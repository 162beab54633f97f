#include "refclock.hpp"

#include <chrono>
#include <cstddef>

namespace perfbench {
namespace {

// The kernel is the SHA-256 compression function — the benchmark's own
// copy, not the program's — applied to a chained 64-byte block 3000 times.
// It is the program's hottest kind of work: throughput-bound integer code
// with plenty of instruction-level parallelism. On a shared host that is
// what slows down when a co-tenant competes for the same core, while a
// latency-bound dependency chain barely notices; measured against the
// simulator workloads, this kernel tracks the program's speed swings
// where a multiply chain or a cache walk does not (README "Reference
// kernel"). It touches 64 bytes of data and calls nothing outside this
// file, so the program's code and caches cannot change its speed.
constexpr int kBlocks = 3000;

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t ror(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i)
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        ror(w[i - 15], 7) ^ ror(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        ror(w[i - 2], 17) ^ ror(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = h + (ror(e, 6) ^ ror(e, 11) ^ ror(e, 25)) +
                             ((e & f) ^ (~e & g)) + kRound[i] + w[i];
    const std::uint32_t t2 = (ror(a, 2) ^ ror(a, 13) ^ ror(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

volatile std::uint32_t g_sink = 0;

}  // namespace

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double reference_kernel_ns() {
  std::uint8_t block[64];
  for (int i = 0; i < 64; ++i) block[i] = static_cast<std::uint8_t>(i * 7 + 1);
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::uint64_t t0 = wall_ns();
  for (int i = 0; i < kBlocks; ++i) {
    compress(state, block);
    block[i & 63] ^= static_cast<std::uint8_t>(state[0]);  // chain the blocks
  }
  const std::uint64_t t1 = wall_ns();
  g_sink = g_sink + state[0];
  return static_cast<double>(t1 - t0);
}

void NormClock::begin() {
  prev_kernel_ = reference_kernel_ns();
  started_ = wall_ns();
}

double NormClock::lap() {
  const auto elapsed = static_cast<double>(wall_ns() - started_);
  const double kernel = reference_kernel_ns();
  const double scale = kNominalKernelNs / ((prev_kernel_ + kernel) / 2);
  prev_kernel_ = kernel;
  started_ = wall_ns();
  return elapsed * scale;
}

}  // namespace perfbench
