// The SMR workloads: XPaxos (n = 4, f = 1, quorum-selection policy) under
// benchmark-driven client load, on the simulator and on loopback TCP.
//
// Every repetition records each submitted operation and each reply, then
// checks the replicas' committed order and final state against KvModel
// (common.hpp). Clients stop issuing and drain at the end of every
// repetition, so nothing is in flight when the check runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "crypto/signer.hpp"
#include "layers.hpp"
#include "load/async_engine.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "refclock.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tracing.hpp"
#include "workloads.hpp"
#include "xpaxos/messages.hpp"
#include "xpaxos/replica.hpp"

namespace perfbench {
namespace {

constexpr ProcessId kReplicas = 4;
constexpr int kF = 1;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct SmrShape {
  std::uint32_t clients = 8;
  /// Closed loop: requests each client keeps outstanding.
  std::uint32_t outstanding = 4;
  /// > 0: open loop at this many arrivals per second in total.
  std::uint64_t open_rate = 0;
  /// Open loop: per-client in-flight cap; arrivals beyond it are shed.
  std::uint32_t open_cap = 1 << 16;
  std::size_t pipeline_window = 16;
  std::size_t max_batch = 16;
  OpMix mix;
};

/// The benchmark's client fleet: one AsyncEngine per client transport,
/// fed from the benchmark's own op stream, recording every submission
/// and reply.
class Clients {
 public:
  Clients(const SmrShape& shape, std::vector<net::Transport*> transports,
          const crypto::KeyRegistry& keys, std::uint64_t seed,
          std::function<std::uint64_t()> now)
      : shape_(shape), now_(std::move(now)), records_(transports.size()) {
    load::AsyncEngineConfig ec;
    ec.replicas = kReplicas;
    ec.f = kF;
    for (std::size_t i = 0; i < transports.size(); ++i) {
      Client c;
      c.transport = transports[i];
      c.engine = std::make_unique<load::AsyncEngine>(*transports[i], keys, ec);
      c.gen = std::make_unique<OpGen>(mix_seed(seed, 1000 + i), shape.mix);
      clients_.push_back(std::move(c));
    }
  }

  ~Clients() {
    for (auto& c : clients_) c.pacer.cancel();
  }

  /// Closed loop: every client keeps `outstanding` requests in flight
  /// until it has issued `budget` more (UINT64_MAX = until stop()).
  void start_closed(std::uint64_t budget) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      clients_[i].budget = budget;
      pump(i);
    }
  }

  /// Open loop at shape.open_rate arrivals/s in total, staggered across
  /// clients, until stop().
  void start_open() {
    const SimDuration interval =
        1'000'000'000ULL * clients_.size() / shape_.open_rate;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      clients_[i].budget = UINT64_MAX;
      arm(i, interval * (i + 1) / clients_.size(), interval);
    }
  }

  void stop() {
    for (auto& c : clients_) {
      c.budget = 0;
      c.pacer.cancel();
    }
  }

  bool drained() const {
    for (const auto& c : clients_)
      if (c.engine->outstanding() > 0) return false;
    return true;
  }

  const std::vector<std::vector<OpRecord>>& records() const {
    return records_;
  }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t not_ok() const { return not_ok_; }
  std::uint64_t retransmissions() const {
    std::uint64_t total = 0;
    for (const auto& c : clients_) total += c.engine->retransmissions();
    return total;
  }

 private:
  struct Client {
    net::Transport* transport = nullptr;
    std::unique_ptr<load::AsyncEngine> engine;
    std::unique_ptr<OpGen> gen;
    std::uint64_t budget = 0;
    sim::TimerHandle pacer;
  };

  void submit(std::size_t i) {
    Client& c = clients_[i];
    OpRecord record;
    record.op = c.gen->next();
    record.submit_ns = now_();
    auto encoded = record.op.encode();
    records_[i].push_back(std::move(record));
    const std::uint64_t expected_seq = records_[i].size();
    const std::uint64_t seq = c.engine->submit(
        std::move(encoded), [this, i](const smr::Outcome& outcome) {
          settle(i, outcome);
        });
    if (seq != expected_seq) ++not_ok_;  // engine numbering drifted
    if (c.budget != UINT64_MAX) --c.budget;
  }

  void settle(std::size_t i, const smr::Outcome& outcome) {
    OpRecord& record = records_[i][outcome.client_seq - 1];
    record.acked = outcome.status == smr::ResultStatus::kOk;
    if (!record.acked) ++not_ok_;
    record.reply = outcome.value;
    record.ack_ns = now_();
    if (shape_.open_rate == 0) pump(i);
  }

  void pump(std::size_t i) {
    Client& c = clients_[i];
    while (c.budget > 0 && c.engine->outstanding() < shape_.outstanding)
      submit(i);
  }

  void arm(std::size_t i, SimDuration delay, SimDuration interval) {
    Client& c = clients_[i];
    c.pacer = c.transport->timers().schedule_timer(delay, [this, i, interval] {
      Client& me = clients_[i];
      if (me.budget == 0) return;
      if (me.engine->outstanding() >= shape_.open_cap) {
        ++shed_;
      } else {
        submit(i);
      }
      arm(i, interval, interval);
    });
  }

  SmrShape shape_;
  std::function<std::uint64_t()> now_;
  std::vector<Client> clients_;
  std::vector<std::vector<OpRecord>> records_;
  std::uint64_t shed_ = 0;
  std::uint64_t not_ok_ = 0;
};

xpaxos::ReplicaConfig replica_config(const SmrShape& shape) {
  xpaxos::ReplicaConfig rc;
  rc.n = kReplicas;
  rc.f = kF;
  rc.policy = xpaxos::QuorumPolicy::kQuorumSelection;
  rc.pipeline_window = shape.pipeline_window;
  rc.max_batch = shape.max_batch;
  return rc;
}

/// Replica views for check_smr; crashed replicas are left out.
std::vector<ReplicaView> replica_views(
    const std::vector<std::unique_ptr<xpaxos::Replica>>& replicas,
    const std::function<bool(ProcessId)>& crashed) {
  std::vector<ReplicaView> views;
  for (const auto& r : replicas) {
    if (crashed(r->self())) continue;
    ReplicaView v;
    v.id = r->self();
    for (const auto& e : r->executed_history())
      if (e.client >= kReplicas) v.order.push_back({e.client, e.client_seq});
    const auto* kv = dynamic_cast<const app::KvStore*>(&r->store());
    if (kv != nullptr) v.state = kv->range_entries("", "");
    v.must_be_complete = r->in_active_quorum() &&
                         r->status() == xpaxos::Replica::Status::kNormal;
    views.push_back(std::move(v));
  }
  return views;
}

/// Every alive replica in normal operation, and every member of the
/// current active quorum among them has executed as far as any replica.
bool replicas_settled(
    const std::vector<std::unique_ptr<xpaxos::Replica>>& replicas,
    const std::function<bool(ProcessId)>& crashed) {
  SeqNum furthest = 0;
  for (const auto& r : replicas)
    if (!crashed(r->self())) furthest = std::max(furthest, r->last_executed());
  for (const auto& r : replicas) {
    if (crashed(r->self())) continue;
    if (r->status() != xpaxos::Replica::Status::kNormal) return false;
    if (r->in_active_quorum() && r->last_executed() != furthest) return false;
    if (r->is_leader() &&
        (r->pending_proposals() > 0 || r->in_flight_instances() > 0))
      return false;
  }
  return true;
}

/// Longest gap between consecutive acknowledgements at or after `from`,
/// counting the gap from `from` to the first one, in the records' ns.
double longest_gap_ns(const std::vector<std::vector<OpRecord>>& records,
                      std::uint64_t from, std::uint64_t until) {
  std::vector<std::uint64_t> acks;
  for (const auto& mine : records)
    for (const auto& r : mine)
      if (r.acked && r.ack_ns >= from && r.ack_ns <= until)
        acks.push_back(r.ack_ns);
  std::sort(acks.begin(), acks.end());
  std::uint64_t prev = from;
  std::uint64_t longest = 0;
  for (std::uint64_t t : acks) {
    longest = std::max(longest, t - prev);
    prev = t;
  }
  return static_cast<double>(longest);
}

/// Per-layer counters, summed over the repetitions of a traced run.
struct SmrLayerCounters {
  std::uint64_t ops = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t viewchange_bytes = 0;
  std::uint64_t events = 0;
  double run_wall_ns = 0;  // raw wall time inside the event loop
  std::uint64_t view_changes = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t expectations = 0;
  std::uint64_t suspicions_raised = 0;
  std::uint64_t suspicions_cancelled = 0;
  std::uint64_t epoch_advances = 0;
  std::uint64_t history_entries = 0;  // largest, at the end of a repetition
  std::uint64_t frames = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t reps = 0;
  std::vector<std::vector<std::uint8_t>> op_stream;  // one repetition's ops
};

void harvest_replicas(
    const std::vector<std::unique_ptr<xpaxos::Replica>>& replicas,
    SmrLayerCounters& layers) {
  for (const auto& r : replicas) {
    layers.view_changes += r->view_changes();
    auto& fd = r->failure_detector();
    layers.expectations += fd.expectations_issued();
    layers.suspicions_raised += fd.suspicions_raised();
    layers.suspicions_cancelled += fd.suspicions_cancelled();
    if (r->selector() != nullptr)
      layers.epoch_advances += r->selector()->core().epoch_advances();
    layers.history_entries =
        std::max<std::uint64_t>(layers.history_entries,
                                r->executed_history().size());
  }
}

void keep_op_stream(const std::vector<std::vector<OpRecord>>& records,
                    SmrLayerCounters& layers) {
  if (!layers.op_stream.empty()) return;
  for (const auto& mine : records)
    for (const auto& r : mine) layers.op_stream.push_back(r.op.encode());
}

/// Aggregated end-to-end figures of a run.
struct SmrSeries {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> ops_per_s;     // per repetition
  std::vector<double> latencies_ms;  // pooled
  std::vector<double> outage_ms;     // per repetition
  std::uint64_t total_ops = 0;       // timed repetitions only
  double total_norm_ns = 0;
  std::uint64_t view_changes = 0;    // summed over replicas and repetitions
  std::uint64_t viewchange_bytes = 0;
  std::string error;
};

// --------------------------------------------------------------------------
// Simulator substrate

struct SimPlan {
  SmrShape shape;
  /// Arrivals stop after this much virtual time.
  SimDuration load_ns = 0;
  /// > 0: crash the view-1 leader (replica 0) at this virtual time.
  SimDuration crash_at = 0;
  /// Virtual time allowed for the drain before the repetition fails.
  SimDuration drain_cap_ns = 20'000'000'000;
};

using CheckInspector =
    std::function<void(const std::vector<std::vector<OpRecord>>&,
                       const std::vector<ReplicaView>&)>;

/// One repetition: a fresh cluster runs the plan, drains and is checked.
/// The normalised wall time covers construction through the drain.
void sim_repetition(const SimPlan& plan, std::uint64_t seed, NormClock& clock,
                    bool timed, SmrSeries& series, SpanLog* log,
                    SmrLayerCounters* layers,
                    const CheckInspector& inspect = nullptr) {
  const SmrShape& shape = plan.shape;
  double norm_ns = 0;
  double run_wall = 0;
  // Close a normalisation segment every ~20 ms of wall time, so drift
  // inside a long repetition is tracked.
  std::uint64_t segment_start = wall_ns();
  const auto maybe_lap = [&](bool force) {
    if (!timed) return;
    if (!force && wall_ns() - segment_start < 20'000'000) return;
    norm_ns += clock.lap();
    segment_start = wall_ns();
  };
  if (timed) clock.begin();

  sim::Simulator sim;
  const auto total = static_cast<ProcessId>(kReplicas + shape.clients);
  crypto::KeyRegistry keys(total, seed);
  sim::Network network(sim, total, sim::NetworkConfig{}, seed);
  std::vector<std::unique_ptr<runtime::SimTransport>> base;
  std::vector<std::unique_ptr<TimedTransport>> wrapped;
  std::vector<std::unique_ptr<xpaxos::Replica>> replicas;
  const auto transport_for = [&](ProcessId id,
                                 std::function<Role()> role) -> net::Transport& {
    base.push_back(std::make_unique<runtime::SimTransport>(network, id));
    if (log == nullptr) return *base.back();
    wrapped.push_back(
        std::make_unique<TimedTransport>(*base.back(), log, std::move(role)));
    return *wrapped.back();
  };
  for (ProcessId id = 0; id < kReplicas; ++id) {
    net::Transport& t = transport_for(id, [&replicas, id] {
      return replicas[id]->is_leader() ? Role::kLeader : Role::kFollower;
    });
    replicas.push_back(
        std::make_unique<xpaxos::Replica>(t, keys, replica_config(shape)));
  }
  std::vector<net::Transport*> client_transports;
  for (ProcessId id = kReplicas; id < total; ++id)
    client_transports.push_back(&transport_for(id, [] { return Role::kClient; }));
  Clients clients(shape, client_transports, keys, seed,
                  [&sim] { return sim.now(); });

  if (plan.crash_at > 0)
    sim.schedule_at(plan.crash_at, [&network] { network.crash(0); });
  if (shape.open_rate > 0) {
    clients.start_open();
  } else {
    clients.start_closed(UINT64_MAX);
  }
  const auto crashed = [&network](ProcessId id) {
    return network.is_crashed(id);
  };
  const auto run_slice = [&](SimDuration ns) {
    const std::uint64_t t0 = wall_ns();
    sim.run_for(ns);
    run_wall += static_cast<double>(wall_ns() - t0);
  };
  constexpr SimDuration kSlice = 1'000'000;  // 1 ms virtual
  while (sim.now() < plan.load_ns) {
    run_slice(kSlice);
    maybe_lap(false);
  }
  clients.stop();
  const SimTime drain_deadline = sim.now() + plan.drain_cap_ns;
  while (!(clients.drained() && replicas_settled(replicas, crashed)) &&
         sim.now() < drain_deadline) {
    run_slice(kSlice);
    maybe_lap(false);
  }
  maybe_lap(true);

  // --- untimed: check and harvest -------------------------------------
  const auto& records = clients.records();
  std::uint64_t submitted = 0;
  std::uint64_t acked = 0;
  for (const auto& mine : records)
    for (const auto& r : mine) {
      ++submitted;
      if (r.acked) ++acked;
    }
  series.attempted += submitted + clients.shed();
  series.failed += clients.shed() + (submitted - acked);
  if (series.error.empty()) {
    if (!clients.drained())
      series.error = "drain did not finish within the virtual-time cap";
    else if (clients.not_ok() > 0)
      series.error = "a request settled with a non-OK status";
    else
      series.error = check_smr(records, kReplicas,
                               replica_views(replicas, crashed));
  }
  if (inspect) inspect(records, replica_views(replicas, crashed));
  if (!timed) return;
  for (const auto& r : replicas) series.view_changes += r->view_changes();
  series.viewchange_bytes +=
      network.stats().bytes_by_type("xpaxos.viewchange") +
      network.stats().bytes_by_type("xpaxos.newview");
  series.ops_per_s.push_back(static_cast<double>(acked) / norm_ns * 1e9);
  series.total_ops += acked;
  series.total_norm_ns += norm_ns;
  for (const auto& mine : records)
    for (const auto& r : mine)
      if (r.acked)
        series.latencies_ms.push_back(
            static_cast<double>(r.ack_ns - r.submit_ns) / 1e6);
  series.outage_ms.push_back(
      longest_gap_ns(records, plan.crash_at, UINT64_MAX) / 1e6);

  if (layers != nullptr) {
    layers->ops += acked;
    layers->net_msgs += network.stats().total_messages();
    layers->net_bytes += network.stats().total_bytes();
    layers->viewchange_bytes +=
        network.stats().bytes_by_type("xpaxos.viewchange") +
        network.stats().bytes_by_type("xpaxos.newview");
    layers->events += sim.events_processed();
    layers->run_wall_ns += run_wall;
    layers->retransmissions += clients.retransmissions();
    ++layers->reps;
    harvest_replicas(replicas, *layers);
    keep_op_stream(records, *layers);
  }
}

// --------------------------------------------------------------------------
// Result assembly

/// How per-repetition figures combine into the run's value. kMean (total
/// operations over total normalised time; mean outage) is for workloads
/// whose repetitions fall into two modes, where a median would jump
/// between them from one seed to the next.
enum class Aggregate { kMedian, kMean };

double run_ops_per_s(const SmrSeries& series, Aggregate aggregate) {
  return aggregate == Aggregate::kMean
             ? static_cast<double>(series.total_ops) / series.total_norm_ns * 1e9
             : median(series.ops_per_s);
}

void set_common_e2e(RunResult& result, const SmrSeries& series,
                    double setup_ns, Aggregate aggregate) {
  const std::size_t samples = series.latencies_ms.size();
  const double tail = tail_percentile(samples);
  result.metrics.set("setup_s", setup_ns / 1e9, "s");
  double mean_outage = 0;
  for (double ms : series.outage_ms) mean_outage += ms;
  if (!series.outage_ms.empty())
    mean_outage /= static_cast<double>(series.outage_ms.size());
  const bool mean = aggregate == Aggregate::kMean;
  result.metrics.set("ops_per_s", run_ops_per_s(series, aggregate), "ops/s");
  result.metrics.set("latency_p50_ms", quantile(series.latencies_ms, 0.5), "ms");
  result.metrics.set("latency_p99_ms", quantile(series.latencies_ms, tail),
                     "ms");
  result.metrics.set("outage_ms", mean ? mean_outage : median(series.outage_ms),
                     "ms");
  result.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  char note[200];
  std::snprintf(note, sizeof note,
                "repetitions=%zu latency_samples=%zu tail_percentile=p%.2f "
                "view_changes=%llu viewchange_bytes=%llu",
                series.ops_per_s.size(), samples, tail * 100,
                static_cast<unsigned long long>(series.view_changes),
                static_cast<unsigned long long>(series.viewchange_bytes));
  result.notes.push_back(note);
}

double est_crypto_us_per_op(const SpanLog& log, std::uint64_t ops,
                            double hmac_cost_ns) {
  // MACs each delivered message costs: one signature check, plus the
  // embedded PREPARE's on a COMMIT; every distinct message is signed once.
  double macs = 0;
  for (const auto& type : log.type_names()) {
    const double verifies_each = type == "xpaxos.commit" ? 2.0 : 1.0;
    macs += static_cast<double>(log.sends_of_type(type)) * verifies_each +
            static_cast<double>(log.distinct_sends_of_type(type));
  }
  return ops == 0 ? 0 : macs * hmac_cost_ns / static_cast<double>(ops) / 1e3;
}

/// Every per-layer metric. Layers a workload does not exercise read 0.
void set_smr_layers(RunResult& result, const SpanLog& log,
                    const SmrLayerCounters& c, bool loopback) {
  auto& m = result.metrics;
  const double ops = static_cast<double>(std::max<std::uint64_t>(c.ops, 1));
  const double hmac = hmac_ns(log.median_message_bytes());
  m.set("crypto.hmac_ns", hmac, "ns");
  m.set("crypto.sha256_mb_per_s", sha256_mb_per_s(), "MB/s");
  m.set("crypto.est_us_per_op", est_crypto_us_per_op(log, c.ops, hmac), "us");
  m.set("net.msgs_per_op", static_cast<double>(c.net_msgs) / ops, "msgs");
  m.set("net.bytes_per_op", static_cast<double>(c.net_bytes) / ops, "B");
  m.set("net.viewchange_bytes",
        c.reps == 0 ? 0
                    : static_cast<double>(c.viewchange_bytes) /
                          static_cast<double>(c.reps),
        "B");
  std::vector<sim::PayloadPtr> samples;
  for (const auto& type : log.type_names())
    for (const auto& s : log.samples(type)) samples.push_back(s);
  const CodecCost codec =
      codec_cost(samples, static_cast<ProcessId>(kReplicas + SmrShape{}.clients));
  m.set("net.encode_ns_per_kib", codec.encode_ns_per_kib, "ns");
  m.set("net.decode_ns_per_kib", codec.decode_ns_per_kib, "ns");
  m.set("net.frames_per_writev",
        c.writev_calls == 0 ? 0
                            : static_cast<double>(c.frames) /
                                  static_cast<double>(c.writev_calls),
        "frames");
  m.set("net.writev_calls_per_op", static_cast<double>(c.writev_calls) / ops,
        "calls");
  m.set("sim.events_per_op", static_cast<double>(c.events) / ops, "events");
  m.set("sim.dispatch_us_per_op",
        loopback ? 0
                 : std::max(0.0, c.run_wall_ns - log.total_self_ns()) / ops /
                       1e3,
        "us");
  m.set("xpaxos.leader_us_per_op", log.self_ns(Role::kLeader) / ops / 1e3,
        "us");
  m.set("xpaxos.follower_us_per_op", log.self_ns(Role::kFollower) / ops / 1e3,
        "us");
  const double prepares =
      static_cast<double>(log.distinct_sends_of_type("xpaxos.prepare"));
  m.set("xpaxos.ops_per_prepare", prepares == 0 ? 0 : ops / prepares, "ops");
  const double reps = static_cast<double>(std::max<std::uint64_t>(c.reps, 1));
  m.set("xpaxos.view_changes", static_cast<double>(c.view_changes) / reps,
        "count");
  double reproposals = 0;
  const auto& newviews = log.samples("xpaxos.newview");
  for (const auto& nv : newviews)
    if (const auto* msg =
            dynamic_cast<const xpaxos::NewViewMessage*>(nv.get()))
      reproposals += static_cast<double>(msg->reproposals.size());
  m.set("xpaxos.reproposals_per_newview",
        newviews.empty() ? 0
                         : reproposals / static_cast<double>(newviews.size()),
        "slots");
  m.set("xpaxos.viewchange_us",
        (log.self_ns_of_type("xpaxos.viewchange") +
         log.self_ns_of_type("xpaxos.newview")) /
            reps / 1e3,
        "us");
  m.set("xpaxos.history_entries", static_cast<double>(c.history_entries),
        "entries");
  m.set("load.client_us_per_op", log.self_ns(Role::kClient) / ops / 1e3, "us");
  m.set("load.retransmissions", static_cast<double>(c.retransmissions) / reps,
        "count");
  m.set("app.apply_ns_per_op", apply_ns_per_op(c.op_stream), "ns");
  m.set("fd.expectations_per_op", static_cast<double>(c.expectations) / ops,
        "count");
  m.set("fd.suspicions_raised", static_cast<double>(c.suspicions_raised) / reps,
        "count");
  m.set("fd.suspicions_cancelled",
        static_cast<double>(c.suspicions_cancelled) / reps, "count");
  m.set("suspect.gossip_bytes_per_round", 0, "B");
  m.set("suspect.epoch_advances", static_cast<double>(c.epoch_advances) / reps,
        "count");
  m.set("suspect.matrix_resident_bytes", 0, "B");
  m.set("graph.solve_us", 0, "us");
  m.set("qs.solver_runs", 0, "count");
  m.set("qs.cache_hits", 0, "count");
  m.set("qs.quorums_issued_max", 0, "count");
  m.set("qs.converge_ms", 0, "ms");
  m.set("runtime.handler_us_per_round", 0, "us");
}

/// Fills the result: end-to-end metrics, or with --trace 1 the per-layer
/// ones (and the span file).
void report(RunResult& result, const RunArgs& args, const SmrSeries& series,
            double setup_ns, const SpanLog& log,
            const SmrLayerCounters& layers, bool loopback,
            Aggregate aggregate) {
  if (args.trace) {
    result.metrics.set("trace.ops_per_s", run_ops_per_s(series, aggregate),
                       "ops/s");
    set_smr_layers(result, log, layers, loopback);
    result.notes.push_back(log.breakdown());
    if (!log.write(args.out_dir + "/trace-" + args.workload + ".jsonl"))
      result.notes.push_back("trace file not written");
    char note[120];
    std::snprintf(note, sizeof note, "repetitions=%zu",
                  series.ops_per_s.size());
    result.notes.push_back(note);
  } else {
    set_common_e2e(result, series, setup_ns, aggregate);
  }
  result.attempted = series.attempted;
  result.failed = series.failed;
  if (!series.error.empty()) {
    result.correct = false;
    result.error = series.error;
  }
}

RunResult run_sim_workload(const RunArgs& args, const SimPlan& plan,
                           const SimPlan& warmup, Aggregate aggregate) {
  RunResult result;
  NormClock clock;
  SmrSeries series;
  SpanLog log;
  SmrLayerCounters layers;
  SpanLog* span_log = args.trace ? &log : nullptr;
  SmrLayerCounters* layer_counters = args.trace ? &layers : nullptr;

  // Set-up: the first cluster of the process, run briefly, untimed.
  sim_repetition(warmup, mix_seed(args.seed, 0), clock, /*timed=*/false,
                 series, nullptr, nullptr);
  const double setup_ns = end_setup_ns();

  const std::uint64_t deadline =
      wall_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::uint64_t rep = 1;
  do {
    sim_repetition(plan, mix_seed(args.seed, rep++), clock, /*timed=*/true,
                   series, span_log, layer_counters);
  } while (wall_ns() < deadline && series.error.empty());

  report(result, args, series, setup_ns, log, layers, /*loopback=*/false,
         aggregate);
  return result;
}

}  // namespace

SmrOutputs small_smr_run(std::uint64_t seed) {
  SimPlan plan;
  plan.shape.mix = OpMix{16, 16, 0.5, 0.4};
  plan.load_ns = 40'000'000;
  NormClock clock;
  SmrSeries series;
  SmrOutputs out;
  sim_repetition(plan, seed, clock, /*timed=*/false, series, nullptr, nullptr,
                 [&out](const std::vector<std::vector<OpRecord>>& records,
                        const std::vector<ReplicaView>& views) {
                   out.records = records;
                   out.views = views;
                 });
  out.error = series.error;
  return out;
}

RunResult run_smr_steady(const RunArgs& args) {
  SimPlan plan;
  plan.shape.outstanding = 4;
  plan.shape.mix = OpMix{64, 16, 0.5, 0.4};
  plan.load_ns = 200'000'000;
  SimPlan warmup = plan;
  warmup.load_ns = 100'000'000;
  return run_sim_workload(args, plan, warmup, Aggregate::kMedian);
}

RunResult run_smr_leader_crash(const RunArgs& args) {
  SimPlan plan;
  plan.shape.open_rate = 4000;
  plan.shape.mix = OpMix{256, 256, 0.9, 0.1};
  plan.crash_at = 100'000'000;
  plan.load_ns = 600'000'000;
  SimPlan warmup = plan;
  warmup.crash_at = 0;
  warmup.load_ns = 100'000'000;
  // Each crash either recovers in one round of view changes or cascades
  // (CHANGES.md FOUND), so repetitions are bimodal: report means.
  return run_sim_workload(args, plan, warmup, Aggregate::kMean);
}

// --------------------------------------------------------------------------
// Loopback TCP substrate

namespace {

/// 4 replicas and 8 clients over real TCP on 127.0.0.1, all on one
/// EventLoop thread, shaped like load::run_loopback. Only the links the
/// protocol uses are dialled: replica <-> replica and replica <-> client.
class LoopbackRig {
 public:
  LoopbackRig(const SmrShape& shape, std::uint64_t seed, SpanLog* log)
      : keys_(static_cast<ProcessId>(kReplicas + shape.clients), seed) {
    const auto total = static_cast<ProcessId>(kReplicas + shape.clients);
    for (ProcessId id = 0; id < total; ++id) {
      net::TcpTransport::Config config;
      config.self = id;
      config.n = total;
      config.auth_seed = seed;
      tcp_.push_back(std::make_unique<net::TcpTransport>(loop_, config));
    }
    for (ProcessId from = 0; from < total; ++from)
      for (ProcessId to = 0; to < total; ++to)
        if (linked(from, to)) tcp_[from]->set_peer(to, tcp_[to]->listen_port());
    const auto transport_for = [&](ProcessId id,
                                   std::function<Role()> role) -> net::Transport& {
      if (log == nullptr) return *tcp_[id];
      wrapped_.push_back(
          std::make_unique<TimedTransport>(*tcp_[id], log, std::move(role)));
      return *wrapped_.back();
    };
    // Real-time failure-detector pacing, as in load::run_loopback.
    xpaxos::ReplicaConfig rc = replica_config(shape);
    rc.fd = fd::FailureDetectorConfig{40'000'000, 1'000'000'000, true};
    for (ProcessId id = 0; id < kReplicas; ++id) {
      net::Transport& t = transport_for(id, [this, id] {
        return replicas_[id]->is_leader() ? Role::kLeader : Role::kFollower;
      });
      replicas_.push_back(std::make_unique<xpaxos::Replica>(t, keys_, rc));
    }
    std::vector<net::Transport*> client_transports;
    for (ProcessId id = kReplicas; id < total; ++id)
      client_transports.push_back(
          &transport_for(id, [] { return Role::kClient; }));
    clients_ = std::make_unique<Clients>(shape, client_transports, keys_, seed,
                                         [this] { return loop_.now_ns(); });
    for (auto& t : tcp_) t->start();
  }

  ~LoopbackRig() {
    // Protocol first: timers cancelled before the sockets go.
    clients_.reset();
    replicas_.clear();
    for (auto& t : tcp_) t->shutdown();
  }

  bool connect() {
    return run_until(
        [this] {
          const auto total = static_cast<ProcessId>(tcp_.size());
          for (ProcessId from = 0; from < total; ++from)
            for (ProcessId to = 0; to < total; ++to)
              if (linked(from, to) && !tcp_[from]->connected_to(to))
                return false;
          return true;
        },
        20'000'000'000ULL);
  }

  /// Closed loop until every client issued `per_client` requests, then
  /// drain. False when the drain did not finish within 60 s.
  bool burst(std::uint64_t per_client) {
    clients_->start_closed(per_client);
    return run_until(
        [this] {
          return clients_->drained() &&
                 replicas_settled(replicas_, [](ProcessId) { return false; });
        },
        60'000'000'000ULL);
  }

  std::string describe() const {
    std::string out;
    for (const auto& r : replicas_)
      out += " [r" + std::to_string(r->self()) + " view " +
             std::to_string(r->view()) + " executed " +
             std::to_string(r->last_executed()) + "]";
    return out;
  }

  net::EventLoop& loop() { return loop_; }
  const Clients& clients() const { return *clients_; }
  const std::vector<std::unique_ptr<xpaxos::Replica>>& replicas() const {
    return replicas_;
  }
  net::IoStats io() const {
    net::IoStats sum;
    for (const auto& t : tcp_) {
      sum.frames_sent += t->io_stats().frames_sent;
      sum.bytes_sent += t->io_stats().bytes_sent;
      sum.writev_calls += t->io_stats().writev_calls;
    }
    return sum;
  }

 private:
  static bool linked(ProcessId from, ProcessId to) {
    return from != to && (from < kReplicas || to < kReplicas);
  }

  bool run_until(const std::function<bool()>& done, std::uint64_t timeout_ns) {
    const std::uint64_t deadline = loop_.now_ns() + timeout_ns;
    while (!done()) {
      const std::uint64_t now = loop_.now_ns();
      if (now >= deadline) return false;
      loop_.poll_once(std::min<std::uint64_t>(deadline - now, 1'000'000));
    }
    return true;
  }

  net::EventLoop loop_;
  crypto::KeyRegistry keys_;
  std::vector<std::unique_ptr<net::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TimedTransport>> wrapped_;
  std::vector<std::unique_ptr<xpaxos::Replica>> replicas_;
  std::unique_ptr<Clients> clients_;
};

}  // namespace

RunResult run_smr_loopback(const RunArgs& args) {
  // A fresh cluster per repetition: one cluster under sustained load
  // falls into a view-change storm after about 800 commits (CHANGES.md
  // FOUND), which would turn this workload into a measurement of that
  // fault instead of the transport.
  constexpr std::uint64_t kRequestsPerClient = 50;
  SmrShape shape;
  shape.outstanding = 4;
  shape.mix = OpMix{64, 16, 0.5, 0.4};

  RunResult result;
  NormClock clock;
  SpanLog log;
  SpanLog* span_log = args.trace ? &log : nullptr;
  SmrLayerCounters layers;
  SmrSeries series;

  const auto repetition = [&](std::uint64_t seed, bool timed) {
    LoopbackRig rig(shape, seed, span_log);
    if (!rig.connect()) {
      series.error = "loopback mesh did not connect";
      return;
    }
    const net::IoStats io0 = rig.io();
    const std::uint64_t start = rig.loop().now_ns();
    if (timed) clock.begin();
    const std::uint64_t t0 = wall_ns();
    const bool drained = rig.burst(kRequestsPerClient);
    const double raw = static_cast<double>(wall_ns() - t0);
    const double norm = timed ? clock.lap() : raw;

    const auto& records = rig.clients().records();
    std::uint64_t submitted = 0, acked = 0;
    for (const auto& mine : records)
      for (const auto& r : mine) {
        ++submitted;
        if (r.acked) ++acked;
      }
    series.attempted += submitted;
    series.failed += submitted - acked;
    if (series.error.empty()) {
      if (!drained)
        series.error = "repetition did not drain within 60 s:" + rig.describe();
      else if (rig.clients().not_ok() > 0)
        series.error = "a request settled with a non-OK status";
      else
        series.error = check_smr(records, kReplicas,
                                 replica_views(rig.replicas(),
                                               [](ProcessId) { return false; }));
    }
    for (const auto& r : rig.replicas()) series.view_changes += r->view_changes();
    if (!timed) return;
    const double scale = norm / raw;  // wall ns -> normalised ns
    for (const auto& mine : records)
      for (const auto& r : mine)
        if (r.acked)
          series.latencies_ms.push_back(
              static_cast<double>(r.ack_ns - r.submit_ns) * scale / 1e6);
    series.ops_per_s.push_back(static_cast<double>(acked) / norm * 1e9);
    series.total_ops += acked;
    series.total_norm_ns += norm;
    series.outage_ms.push_back(longest_gap_ns(records, start, UINT64_MAX) *
                               scale / 1e6);
    if (span_log == nullptr) return;
    const net::IoStats io = rig.io();
    layers.ops += acked;
    layers.run_wall_ns += raw;
    layers.frames += io.frames_sent - io0.frames_sent;
    layers.net_msgs += io.frames_sent - io0.frames_sent;
    layers.net_bytes += io.bytes_sent - io0.bytes_sent;
    layers.writev_calls += io.writev_calls - io0.writev_calls;
    layers.retransmissions += rig.clients().retransmissions();
    ++layers.reps;
    harvest_replicas(rig.replicas(), layers);
    keep_op_stream(records, layers);
  };

  // Set-up: the first cluster of the process, connected and run once.
  repetition(mix_seed(args.seed, 0), /*timed=*/false);
  const double setup_ns = end_setup_ns();
  const std::uint64_t deadline =
      wall_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::uint64_t rep = 1;
  while (series.error.empty()) {
    repetition(mix_seed(args.seed, rep++), /*timed=*/true);
    if (wall_ns() >= deadline) break;
  }

  report(result, args, series, setup_ns, log, layers, /*loopback=*/true,
         Aggregate::kMedian);
  return result;
}

}  // namespace perfbench
