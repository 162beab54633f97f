#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double tail_percentile(std::size_t n) {
  if (n < 40) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- operations -------------------------------------------------------

OpGen::OpGen(std::uint64_t seed, OpMix mix)
    : mix_(mix), state_(seed ^ 0x6f70e2a1c0ffee11ULL) {}

std::uint64_t OpGen::draw() {  // splitmix64
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

app::Operation OpGen::next() {
  app::Operation op;
  op.key = "k" + std::to_string(draw() % mix_.key_space);
  const double roll = static_cast<double>(draw() >> 11) * 0x1.0p-53;
  if (roll < mix_.put) {
    op.type = app::OpType::kPut;
    op.value.resize(mix_.value_bytes);
    for (char& c : op.value) c = static_cast<char>('a' + draw() % 26);
  } else if (roll < mix_.put + mix_.get) {
    op.type = app::OpType::kGet;
  } else {
    op.type = app::OpType::kDel;
  }
  return op;
}

std::string KvModel::apply(const app::Operation& op) {
  switch (op.type) {
    case app::OpType::kPut: {
      const bool existed = data_.count(op.key) > 0;
      data_[op.key] = op.value;
      return existed ? "replaced" : "";
    }
    case app::OpType::kGet: {
      const auto it = data_.find(op.key);
      return it == data_.end() ? "" : it->second;
    }
    case app::OpType::kDel:
      return data_.erase(op.key) > 0 ? "deleted" : "";
  }
  return "<unknown op>";
}

// --- checks -----------------------------------------------------------

std::string check_smr(const std::vector<std::vector<OpRecord>>& ops,
                      std::uint32_t first_client,
                      const std::vector<ReplicaView>& replicas) {
  if (replicas.empty()) return "no alive replica to check";
  const ReplicaView* longest = &replicas.front();
  for (const ReplicaView& r : replicas)
    if (r.order.size() > longest->order.size()) longest = &r;
  for (const ReplicaView& r : replicas) {
    if (!std::equal(r.order.begin(), r.order.end(), longest->order.begin()))
      return "replica " + std::to_string(r.id) +
             " executed an order that is not a prefix of replica " +
             std::to_string(longest->id) + "'s";
  }

  KvModel model;
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  for (const auto& [client, seq] : longest->order) {
    const std::string where =
        "client " + std::to_string(client) + " seq " + std::to_string(seq);
    if (client < first_client || client - first_client >= ops.size())
      return "executed a request from unknown " + where;
    const auto& mine = ops[client - first_client];
    if (seq < 1 || seq > mine.size())
      return "executed a request never submitted: " + where;
    if (!seen.insert({client, seq}).second)
      return "executed twice: " + where;
    const OpRecord& record = mine[seq - 1];
    const std::string expected = model.apply(record.op);
    if (record.acked && record.reply != expected)
      return "reply mismatch for " + where + ": got \"" + record.reply +
             "\", model says \"" + expected + "\"";
  }
  std::size_t submitted = 0;
  for (const auto& mine : ops) submitted += mine.size();
  if (seen.size() != submitted)
    return std::to_string(submitted - seen.size()) + " of " +
           std::to_string(submitted) + " submitted operations never executed";

  const std::vector<std::pair<std::string, std::string>> expected(
      model.data().begin(), model.data().end());
  for (const ReplicaView& r : replicas) {
    if (!r.must_be_complete) continue;
    if (r.order.size() != longest->order.size())
      return "replica " + std::to_string(r.id) + " in the active quorum is " +
             std::to_string(longest->order.size() - r.order.size()) +
             " executions behind";
    if (r.state != expected)
      return "replica " + std::to_string(r.id) +
             " state differs from the model's final map";
  }
  return {};
}

std::string check_quorums(ProcessId n, int f, ProcessSet crashed,
                          const std::vector<QuorumView>& alive) {
  if (alive.empty()) return "no alive process to check";
  const ProcessSet q = alive.front().quorum;
  for (const QuorumView& p : alive)
    if (p.quorum != q)
      return "no agreement: p" + std::to_string(p.id) + " has " +
             p.quorum.to_string() + ", p" + std::to_string(alive.front().id) +
             " has " + q.to_string();
  if (q.size() != static_cast<int>(n) - f)
    return "quorum " + q.to_string() + " has size " +
           std::to_string(q.size()) + ", want n - f = " +
           std::to_string(static_cast<int>(n) - f);
  if (q.intersects(crashed))
    return "quorum " + q.to_string() + " contains crashed processes";
  for (const QuorumView& p : alive)
    if (!p.suspicions_within_quorum.empty())
      return "p" + std::to_string(p.id) + " sees p" +
             std::to_string(p.suspicions_within_quorum.front().first) +
             " suspect p" +
             std::to_string(p.suspicions_within_quorum.front().second) +
             " inside the quorum";
  const auto bound = static_cast<std::uint64_t>(f) *
                         static_cast<std::uint64_t>(f + 1) +
                     1;
  for (const QuorumView& p : alive)
    if (p.max_quorums_per_epoch > bound)
      return "p" + std::to_string(p.id) + " issued " +
             std::to_string(p.max_quorums_per_epoch) +
             " quorums in one epoch (Theorem 3 bound " +
             std::to_string(bound) + ")";
  return {};
}

}  // namespace perfbench
