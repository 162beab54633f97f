// Shared pieces of the benchmark: run arguments, the metric sink, sample
// statistics, the seeded operation generator and the independent models
// every run checks the program's outputs against.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "app/kv_store.hpp"
#include "common/process_set.hpp"
#include "common/types.hpp"

namespace perfbench {

using namespace qsel;  // NOLINT: the benchmark speaks the program's types

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for trace files; the
  /// root .gitignore lists it.
  std::string out_dir = "perfbench-out";
};

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::string error;  // first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Free-form lines printed before the JSON result (sample counts etc.).
  std::vector<std::string> notes;
};

double median(std::vector<double> values);
/// Nearest-rank quantile, p in [0, 1].
double quantile(std::vector<double> values, double p);

/// The highest percentile a sample of `n` supports with at least ten
/// samples beyond it, capped at 0.99; 0.5 below forty samples (a tail
/// read from fewer is no tail).
double tail_percentile(std::size_t n);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Seeded key/value operation stream. Independent of the program's own
/// workload generator: the program only ever sees the encoded operations.
struct OpMix {
  std::uint32_t key_space = 64;
  std::uint32_t value_bytes = 16;
  double put = 0.5;
  double get = 0.4;  // the remainder are deletes
};

class OpGen {
 public:
  OpGen(std::uint64_t seed, OpMix mix);
  app::Operation next();

 private:
  std::uint64_t draw();
  OpMix mix_;
  std::uint64_t state_;
};

/// Independent model of the replicated key-value store: a std::map with
/// the reply conventions the service promises (put -> "" or "replaced",
/// get -> value or "", delete -> "deleted" or "").
class KvModel {
 public:
  std::string apply(const app::Operation& op);
  const std::map<std::string, std::string>& data() const { return data_; }

 private:
  std::map<std::string, std::string> data_;
};

/// One submitted client operation, as the benchmark saw it.
struct OpRecord {
  app::Operation op;
  bool acked = false;
  std::string reply;
  std::uint64_t submit_ns = 0;
  std::uint64_t ack_ns = 0;
};

/// What a replica exposes for the SMR check, copied out of the program.
struct ReplicaView {
  ProcessId id = 0;
  /// Executed client requests in execution order (no-op fillers dropped).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  std::vector<std::pair<std::string, std::string>> state;
  /// Alive member of the final active quorum: must hold every commit.
  bool must_be_complete = false;
};

/// SMR correctness against the model. `ops[c]` holds client c's requests
/// by client_seq - 1; client c has transport id first_client + c.
/// Checks: every replica's executed order is a prefix of the longest one;
/// replaying it on KvModel reproduces every acknowledged reply; every
/// submitted operation executes exactly once; every complete replica's
/// state equals the model's final map. Returns "" or the first violation.
std::string check_smr(const std::vector<std::vector<OpRecord>>& ops,
                      std::uint32_t first_client,
                      const std::vector<ReplicaView>& replicas);

/// What one process exposes for the quorum-selection check.
struct QuorumView {
  ProcessId id = 0;
  ProcessSet quorum;
  /// Suspicions live in the process's current epoch between two members
  /// of its own quorum.
  std::vector<std::pair<ProcessId, ProcessId>> suspicions_within_quorum;
  /// Most quorums this process issued within a single epoch.
  std::uint64_t max_quorums_per_epoch = 0;
};

/// Quorum-selection properties at the end of a fault window, over the
/// alive correct processes: they agree on one quorum Q; |Q| = n - f; Q
/// excludes every crashed id; no member of Q suspects another member;
/// quorums issued per epoch stay within Theorem 3's f(f+1).
std::string check_quorums(ProcessId n, int f, ProcessSet crashed,
                          const std::vector<QuorumView>& alive);

}  // namespace perfbench
