// The benchmark's workloads. Each runs from one process on one thread and
// returns its checked result with every metric of the requested mode.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Ends the set-up phase (everything before the first timed operation)
/// and returns its normalised ns: wall time from process start, minus the
/// kernel runs main() made there, bracketed by the kernel at process
/// start and one run now, so it tracks the machine's speed at set-up time.
double end_setup_ns();

RunResult run_smr_steady(const RunArgs& args);
RunResult run_smr_leader_crash(const RunArgs& args);
RunResult run_smr_loopback(const RunArgs& args);
RunResult run_qs_churn(const RunArgs& args);

/// Outputs of one short smr-steady repetition (self-test input).
struct SmrOutputs {
  std::vector<std::vector<OpRecord>> records;
  std::vector<ReplicaView> views;
  std::string error;  // what the run's own check said
};
SmrOutputs small_smr_run(std::uint64_t seed);

/// Runs every check on a real small run, then on deliberately corrupted
/// copies of its outputs; returns the number of checks that misbehaved.
int run_selftest();

}  // namespace perfbench
