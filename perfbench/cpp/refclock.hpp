// Reference kernel and the normalised clock built on it.
//
// Wall-clock time on a shared machine drifts by tens of percent between
// runs of bit-identical work (CPU frequency, co-tenants). Every timed
// segment of the benchmark is therefore bracketed by a fixed reference
// kernel and reported as
//
//     segment_time / mean(kernel before, kernel after) * kNominalKernelNs
//
// so a uniform slow-down of the machine cancels out. The kernel lives in
// its own translation unit, compiled with fixed flags, and calls nothing
// from the program under test: no change to the program or its build
// flags can change the kernel's speed.
#pragma once

#include <cstdint>

namespace perfbench {

/// Kernel time on the calibration machine (README "Reference kernel"):
/// normalised figures are in "calibration-machine" units.
inline constexpr double kNominalKernelNs = 1'000'000.0;

/// Runs the reference kernel once; returns its wall time in ns.
double reference_kernel_ns();

/// Monotonic wall clock, ns.
std::uint64_t wall_ns();

/// Accumulates normalised time over segments. begin() opens a segment
/// (running the kernel as its left bracket); lap() closes it with a
/// kernel run that also opens the next one.
class NormClock {
 public:
  void begin();
  /// Normalised ns of the segment since begin()/the previous lap().
  double lap();

 private:
  double prev_kernel_ = 0;
  std::uint64_t started_ = 0;
};

}  // namespace perfbench
