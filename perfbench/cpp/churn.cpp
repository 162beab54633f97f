// qs-churn-n64: the suspicion plane on its own. 64 quorum-selection
// processes (heartbeat application -> failure detector -> suspicion
// matrix -> independent set, Figure 1) over the simulator, through a
// fixed schedule: a crash, then a partition that heals.
//
// Convergence is timed exactly: the simulator is stepped one event at a
// time, and after each event the processes that handled a message or
// sent one are checked for a new <QUORUM, Q> output. A fault's
// convergence time runs from the fault to the last quorum change of any
// alive process in its window (for the partition: through the heal); at
// the window's end the quorum-selection properties are checked.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "crypto/signer.hpp"
#include "layers.hpp"
#include "refclock.hpp"
#include "runtime/node_process.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "store/node_store.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr ProcessId kN = 64;
constexpr int kF = 21;
constexpr SimDuration kMs = 1'000'000;
constexpr SimDuration kHeartbeat = 5 * kMs;

enum class FaultKind { kCrash, kPartition };

/// One fault window; for a partition, `heal_at` ends the split.
struct Fault {
  FaultKind kind;
  SimTime at;
  ProcessSet who;
  SimTime heal_at = 0;
  SimTime window_end;
};

/// The fixed schedule of one repetition: a quorum member crashes, then
/// another is cut off from everyone and rejoins. Both faults force a
/// quorum change. At n = 64 one suspicion reaches every process through
/// ~n^2 forwarded deltas, so each fault costs seconds of simulation; the
/// heal window leaves room for digest anti-entropy (every 16th heartbeat)
/// to repair what the partition kept from the cut-off process.
std::vector<Fault> schedule() {
  return {
      {FaultKind::kCrash, 40 * kMs, ProcessSet{0}, 0, 100 * kMs},
      {FaultKind::kPartition, 100 * kMs, ProcessSet{5}, 130 * kMs, 230 * kMs},
  };
}
constexpr SimTime kWarmupEnd = 40 * kMs;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x1b873593ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ChurnSeries {
  std::vector<double> rounds_per_s;   // per repetition
  std::vector<double> converge_ms;    // pooled, one per fault
  std::vector<double> outage_ms;      // per repetition: longest convergence
  std::vector<double> converge_sum_ms;  // per repetition
  std::uint64_t attempted = 0;  // fault windows
  std::uint64_t failed = 0;     // windows that did not converge
  std::uint64_t missed_changes = 0;
  std::string error;
};

struct ChurnLayers {
  double rounds = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t gossip_bytes = 0;
  std::uint64_t events = 0;
  double run_wall_ns = 0;
  std::uint64_t expectations = 0;
  std::uint64_t suspicions_raised = 0;
  std::uint64_t suspicions_cancelled = 0;
  std::uint64_t epoch_advances = 0;
  std::uint64_t solver_runs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t quorums_issued_max = 0;
  std::size_t matrix_resident_bytes = 0;
  std::uint64_t reps = 0;
  std::vector<graph::SimpleGraph> graphs;
};

struct Cluster {
  explicit Cluster(std::uint64_t seed, SpanLog* log)
      : keys(kN, seed), network(sim, kN, sim::NetworkConfig{}, seed) {
    runtime::NodeProcessConfig config;
    config.n = kN;
    config.f = kF;
    config.fd.initial_timeout = 12 * kMs;
    config.heartbeat_period = kHeartbeat;
    config.gossip = suspect::GossipMode::kDelta;
    for (ProcessId id = 0; id < kN; ++id) {
      base.push_back(std::make_unique<runtime::SimTransport>(network, id));
      wrapped.push_back(std::make_unique<TimedTransport>(
          *base.back(), log, [] { return Role::kNode; }, &touched));
      stores.push_back(std::make_unique<store::MemoryNodeStore>());
      nodes.push_back(std::make_unique<runtime::NodeProcess>(
          *wrapped.back(), keys, config, stores.back().get()));
    }
    issued.assign(kN, 0);
  }

  /// Steps every event up to `end`, stamping quorum changes of alive
  /// processes. Returns the raw wall ns spent.
  double step_until(SimTime end) {
    const std::uint64_t t0 = wall_ns();
    for (;;) {
      const auto next = sim.next_event_time();
      if (!next || *next > end) break;
      sim.step();
      for (ProcessId id : touched) {
        const std::uint64_t count = nodes[id]->selector().quorums_issued();
        if (count == issued[id]) continue;
        issued[id] = count;
        if (!network.is_crashed(id)) last_change = sim.now();
      }
      touched.clear();
    }
    sim.run_until(end);
    return static_cast<double>(wall_ns() - t0);
  }

  /// Quorum changes the touched-list missed (should stay 0).
  std::uint64_t sweep_missed() {
    std::uint64_t missed = 0;
    for (ProcessId id = 0; id < kN; ++id) {
      const std::uint64_t count = nodes[id]->selector().quorums_issued();
      if (count != issued[id] && !network.is_crashed(id)) ++missed;
      issued[id] = count;
    }
    return missed;
  }

  std::vector<QuorumView> views() const {
    std::vector<QuorumView> out;
    for (ProcessId id = 0; id < kN; ++id) {
      if (network.is_crashed(id)) continue;
      const auto& selector = nodes[id]->selector();
      QuorumView v;
      v.id = id;
      v.quorum = selector.quorum();
      const Epoch epoch = selector.epoch();
      for (ProcessId a : v.quorum)
        for (ProcessId b : v.quorum)
          if (a != b && selector.matrix().get(a, b) >= epoch)
            v.suspicions_within_quorum.push_back({a, b});
      std::map<Epoch, std::uint64_t> per_epoch;
      for (const auto& record : selector.history())
        v.max_quorums_per_epoch =
            std::max(v.max_quorums_per_epoch, ++per_epoch[record.epoch]);
      out.push_back(std::move(v));
    }
    return out;
  }

  sim::Simulator sim;
  crypto::KeyRegistry keys;
  sim::Network network;
  std::vector<ProcessId> touched;
  std::vector<std::unique_ptr<runtime::SimTransport>> base;
  std::vector<std::unique_ptr<TimedTransport>> wrapped;
  std::vector<std::unique_ptr<store::MemoryNodeStore>> stores;
  std::vector<std::unique_ptr<runtime::NodeProcess>> nodes;
  std::vector<std::uint64_t> issued;
  SimTime last_change = 0;
};

/// One repetition on a fresh cluster. Untimed repetitions stop after the
/// warm-up (process set-up).
void repetition(std::uint64_t seed, NormClock& clock, bool timed,
                ChurnSeries& series, SpanLog* log, ChurnLayers* layers) {
  double norm_ns = 0;
  double run_wall = 0;
  if (timed) clock.begin();
  std::uint64_t segment_start = wall_ns();
  const auto maybe_lap = [&](bool force) {
    if (!timed) return;
    if (!force && wall_ns() - segment_start < 20'000'000) return;
    norm_ns += clock.lap();
    segment_start = wall_ns();
  };

  Cluster c(seed, log);
  for (auto& node : c.nodes) node->start();
  const auto advance = [&](SimTime end) {
    while (c.sim.now() < end) {
      run_wall += c.step_until(std::min(end, c.sim.now() + kMs));
      maybe_lap(false);
    }
  };
  advance(kWarmupEnd);
  if (!timed) return;

  ProcessSet crashed;
  std::vector<double> converge;
  for (const Fault& fault : schedule()) {
    advance(fault.at);
    series.missed_changes += c.sweep_missed();
    c.last_change = fault.at;
    if (fault.kind == FaultKind::kCrash) {
      for (ProcessId id : fault.who) {
        c.network.crash(id);
        crashed.insert(id);
      }
    } else {
      c.network.partition(fault.who, ProcessSet::full(kN) - fault.who);
      advance(fault.heal_at);
      c.network.heal_partition();
    }
    advance(fault.window_end);
    series.missed_changes += c.sweep_missed();
    ++series.attempted;
    const std::string error = check_quorums(kN, kF, crashed, c.views());
    if (!error.empty()) {
      ++series.failed;
      if (series.error.empty())
        series.error = "fault at " + std::to_string(fault.at / kMs) +
                       " ms: " + error;
    }
    converge.push_back(static_cast<double>(c.last_change - fault.at) / 1e6);
    if (layers != nullptr)
      for (ProcessId id = 1; id < kN; id += 9)
        if (!c.network.is_crashed(id))
          layers->graphs.push_back(
              c.nodes[id]->selector().core().current_graph());
  }
  maybe_lap(true);

  const double rounds = static_cast<double>(c.sim.now()) /
                        static_cast<double>(kHeartbeat);
  series.rounds_per_s.push_back(rounds / norm_ns * 1e9);
  series.converge_ms.insert(series.converge_ms.end(), converge.begin(),
                            converge.end());
  series.outage_ms.push_back(*std::max_element(converge.begin(), converge.end()));
  double sum = 0;
  for (double ms : converge) sum += ms;
  series.converge_sum_ms.push_back(sum);

  if (layers == nullptr) return;
  ++layers->reps;
  layers->rounds += rounds;
  const auto& stats = c.network.stats();
  layers->msgs += stats.total_messages();
  layers->bytes += stats.total_bytes();
  layers->gossip_bytes += stats.bytes_by_type("suspect.update") +
                          stats.bytes_by_type("suspect.delta") +
                          stats.bytes_by_type("suspect.digest");
  layers->events += c.sim.events_processed();
  layers->run_wall_ns += run_wall;
  std::uint64_t issued_max = 0;
  std::size_t resident_max = 0;
  for (const auto& node : c.nodes) {
    auto& fd = node->failure_detector();
    layers->expectations += fd.expectations_issued();
    layers->suspicions_raised += fd.suspicions_raised();
    layers->suspicions_cancelled += fd.suspicions_cancelled();
    const auto& selector = node->selector();
    layers->epoch_advances += selector.core().epoch_advances();
    layers->solver_runs += selector.solver_runs();
    layers->cache_hits += selector.cache_hits();
    issued_max = std::max(issued_max, selector.quorums_issued());
    resident_max = std::max(resident_max, selector.matrix().resident_bytes());
  }
  layers->quorums_issued_max = std::max(layers->quorums_issued_max, issued_max);
  layers->matrix_resident_bytes =
      std::max(layers->matrix_resident_bytes, resident_max);
}

void set_layers(RunResult& result, const SpanLog& log, const ChurnLayers& c,
                const ChurnSeries& series) {
  auto& m = result.metrics;
  // On this workload the unit of work ("op") is one heartbeat round.
  const double rounds = std::max(c.rounds, 1.0);
  const double reps = static_cast<double>(std::max<std::uint64_t>(c.reps, 1));
  const double hmac = hmac_ns(log.median_message_bytes());
  double macs = 0;
  for (const auto& type : log.type_names())
    macs += static_cast<double>(log.sends_of_type(type) +
                                log.distinct_sends_of_type(type));
  m.set("trace.ops_per_s", median(series.rounds_per_s), "ops/s");
  m.set("crypto.hmac_ns", hmac, "ns");
  m.set("crypto.sha256_mb_per_s", sha256_mb_per_s(), "MB/s");
  m.set("crypto.est_us_per_op", macs * hmac / rounds / 1e3, "us");
  m.set("net.msgs_per_op", static_cast<double>(c.msgs) / rounds, "msgs");
  m.set("net.bytes_per_op", static_cast<double>(c.bytes) / rounds, "B");
  m.set("net.viewchange_bytes", 0, "B");
  std::vector<sim::PayloadPtr> samples;
  for (const auto& type : log.type_names())
    for (const auto& s : log.samples(type)) samples.push_back(s);
  const CodecCost codec = codec_cost(samples, kN);
  m.set("net.encode_ns_per_kib", codec.encode_ns_per_kib, "ns");
  m.set("net.decode_ns_per_kib", codec.decode_ns_per_kib, "ns");
  m.set("net.frames_per_writev", 0, "frames");
  m.set("net.writev_calls_per_op", 0, "calls");
  m.set("sim.events_per_op", static_cast<double>(c.events) / rounds, "events");
  m.set("sim.dispatch_us_per_op",
        std::max(0.0, c.run_wall_ns - log.total_self_ns()) / rounds / 1e3,
        "us");
  m.set("xpaxos.leader_us_per_op", 0, "us");
  m.set("xpaxos.follower_us_per_op", 0, "us");
  m.set("xpaxos.ops_per_prepare", 0, "ops");
  m.set("xpaxos.view_changes", 0, "count");
  m.set("xpaxos.reproposals_per_newview", 0, "slots");
  m.set("xpaxos.viewchange_us", 0, "us");
  m.set("xpaxos.history_entries", 0, "entries");
  m.set("load.client_us_per_op", 0, "us");
  m.set("load.retransmissions", 0, "count");
  m.set("app.apply_ns_per_op", 0, "ns");
  m.set("fd.expectations_per_op", static_cast<double>(c.expectations) / rounds,
        "count");
  m.set("fd.suspicions_raised", static_cast<double>(c.suspicions_raised) / reps,
        "count");
  m.set("fd.suspicions_cancelled",
        static_cast<double>(c.suspicions_cancelled) / reps, "count");
  m.set("suspect.gossip_bytes_per_round",
        static_cast<double>(c.gossip_bytes) / rounds, "B");
  m.set("suspect.epoch_advances", static_cast<double>(c.epoch_advances) / reps,
        "count");
  m.set("suspect.matrix_resident_bytes",
        static_cast<double>(c.matrix_resident_bytes), "B");
  m.set("graph.solve_us", solve_us(c.graphs, static_cast<int>(kN) - kF), "us");
  m.set("qs.solver_runs", static_cast<double>(c.solver_runs) / reps, "count");
  m.set("qs.cache_hits", static_cast<double>(c.cache_hits) / reps, "count");
  m.set("qs.quorums_issued_max", static_cast<double>(c.quorums_issued_max),
        "count");
  m.set("qs.converge_ms", median(series.converge_sum_ms), "ms");
  m.set("runtime.handler_us_per_round", log.self_ns(Role::kNode) / rounds / 1e3,
        "us");
}

}  // namespace

RunResult run_qs_churn(const RunArgs& args) {
  RunResult result;
  NormClock clock;
  ChurnSeries series;
  SpanLog log;
  ChurnLayers layers;

  repetition(mix_seed(args.seed, 0), clock, /*timed=*/false, series, nullptr,
             nullptr);
  const double setup_ns = end_setup_ns();
  const std::uint64_t deadline =
      wall_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::uint64_t rep = 1;
  do {
    repetition(mix_seed(args.seed, rep++), clock, /*timed=*/true, series,
               args.trace ? &log : nullptr, args.trace ? &layers : nullptr);
  } while (wall_ns() < deadline);

  if (args.trace) {
    set_layers(result, log, layers, series);
    result.notes.push_back(log.breakdown());
    if (!log.write(args.out_dir + "/trace-" + args.workload + ".jsonl"))
      result.notes.push_back("trace file not written");
  } else {
    const double tail = tail_percentile(series.converge_ms.size());
    result.metrics.set("setup_s", setup_ns / 1e9, "s");
    result.metrics.set("ops_per_s", median(series.rounds_per_s), "ops/s");
    result.metrics.set("latency_p50_ms", quantile(series.converge_ms, 0.5),
                       "ms");
    result.metrics.set("latency_p99_ms", quantile(series.converge_ms, tail),
                       "ms");
    result.metrics.set("outage_ms", median(series.outage_ms), "ms");
    result.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  char note[200];
  std::snprintf(note, sizeof note,
                "repetitions=%zu convergence_samples=%zu missed_changes=%llu "
                "converge_sum_ms_median=%.3f",
                series.rounds_per_s.size(), series.converge_ms.size(),
                static_cast<unsigned long long>(series.missed_changes),
                median(series.converge_sum_ms));
  result.notes.push_back(note);
  result.attempted = series.attempted;
  result.failed = series.failed;
  if (!series.error.empty()) {
    result.correct = false;
    result.error = series.error;
  }
  return result;
}

}  // namespace perfbench
