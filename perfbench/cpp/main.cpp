// perfbench — the repository's benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// Runs one workload in this process on one thread, checks its outputs,
// and prints as the last line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
#include <malloc.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "refclock.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {
std::uint64_t g_process_start_ns = 0;
double g_start_kernel_ns = 0;
std::uint64_t g_start_kernel_wall_ns = 0;  // excluded from set-up time
}  // namespace

double end_setup_ns() {
  const auto raw = static_cast<double>(wall_ns() - g_process_start_ns -
                                       g_start_kernel_wall_ns);
  const double kernel = reference_kernel_ns();
  return raw / ((g_start_kernel_ns + kernel) / 2) * kNominalKernelNs;
}
}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload smr-steady|smr-leader-crash|smr-loopback|"
               "qs-churn-n64 --seed N --seconds S --trace 0|1\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = v;
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  g_process_start_ns = wall_ns();
  // The first kernel run pays for faulting its code in; the second is the
  // set-up's left bracket.
  reference_kernel_ns();
  g_start_kernel_ns = reference_kernel_ns();
  g_start_kernel_wall_ns = wall_ns() - g_process_start_ns;
  // Keep freed memory in the process. On a virtual machine the cost of a
  // page fault swings with the host's load, and a heap trimmed after
  // every repetition re-faults its pages in the next one; a long-running
  // server reuses its heap instead. Peak RSS is unaffected.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // the largest glibc accepts
  mallopt(M_TOP_PAD, 64 << 20);
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      args.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, number) && number > 0) {
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      args.trace = number == 1;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);
  if (args.trace) mkdir(args.out_dir.c_str(), 0755);

  RunResult result;
  try {
    if (args.workload == "smr-steady") {
      result = run_smr_steady(args);
    } else if (args.workload == "smr-leader-crash") {
      result = run_smr_leader_crash(args);
    } else if (args.workload == "smr-loopback") {
      result = run_smr_loopback(args);
    } else if (args.workload == "qs-churn-n64") {
      result = run_qs_churn(args);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
  if (!result.correct)
    std::printf("# CHECK FAILED: %s\n", result.error.c_str());
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics.items()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(value.first) +
            ", \"unit\": \"" + value.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
