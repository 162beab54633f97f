#include "layers.hpp"

#include <algorithm>

#include "app/kv_store.hpp"
#include "common.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "graph/independent_set.hpp"
#include "net/wire.hpp"
#include "refclock.hpp"

namespace perfbench {
namespace {
volatile std::uint64_t g_sink = 0;
}

double normalised_ns_per_call(const std::function<void()>& body) {
  // Calibrate a round to ~10 ms of wall time, then take the median of
  // seven bracketed rounds.
  std::uint64_t calls = 1;
  for (;;) {
    const std::uint64_t t0 = wall_ns();
    for (std::uint64_t i = 0; i < calls; ++i) body();
    if (wall_ns() - t0 >= 10'000'000 || calls >= (1ULL << 30)) break;
    calls *= 2;
  }
  NormClock clock;
  std::vector<double> per_call;
  clock.begin();
  for (int round = 0; round < 7; ++round) {
    for (std::uint64_t i = 0; i < calls; ++i) body();
    per_call.push_back(clock.lap() / static_cast<double>(calls));
  }
  return median(per_call);
}

double hmac_ns(std::size_t bytes) {
  std::vector<std::uint8_t> key(32, 0x5a);
  std::vector<std::uint8_t> message(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    message[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return normalised_ns_per_call([&] {
    const crypto::Digest d = crypto::hmac_sha256(key, message);
    g_sink = g_sink + d.bytes[0];
    message[0] = d.bytes[1];
  });
}

double sha256_mb_per_s() {
  std::vector<std::uint8_t> buffer(1 << 20);
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = static_cast<std::uint8_t>(i * 2654435761U >> 13);
  const double ns = normalised_ns_per_call([&] {
    const crypto::Digest d = crypto::sha256(buffer);
    buffer[0] = d.bytes[0];
  });
  return static_cast<double>(buffer.size()) / ns * 1e3;  // bytes/ns -> MB/s
}

CodecCost codec_cost(const std::vector<sim::PayloadPtr>& samples,
                     ProcessId n) {
  CodecCost cost;
  std::vector<std::vector<std::uint8_t>> encoded;
  std::size_t bytes = 0;
  for (const auto& message : samples) {
    auto body = net::encode_message(*message);
    if (!body) continue;
    bytes += body->size();
    encoded.push_back(std::move(*body));
  }
  if (encoded.empty() || bytes == 0) return cost;
  const double kib = static_cast<double>(bytes) / 1024.0;
  cost.encode_ns_per_kib = normalised_ns_per_call([&] {
                             for (const auto& message : samples) {
                               const auto body = net::encode_message(*message);
                               g_sink = g_sink + (body ? body->size() : 0);
                             }
                           }) /
                           kib;
  cost.decode_ns_per_kib = normalised_ns_per_call([&] {
                             for (const auto& body : encoded) {
                               const auto message =
                                   net::decode_message(body, n);
                               g_sink = g_sink + (message ? 1 : 0);
                             }
                           }) /
                           kib;
  return cost;
}

double apply_ns_per_op(const std::vector<std::vector<std::uint8_t>>& ops) {
  if (ops.empty()) return 0;
  const double ns = normalised_ns_per_call([&] {
    app::KvStore store;
    for (const auto& op : ops) g_sink = g_sink + store.apply_encoded(op).size();
  });
  return ns / static_cast<double>(ops.size());
}

double solve_us(const std::vector<graph::SimpleGraph>& graphs, int q) {
  if (graphs.empty()) return 0;
  const double ns = normalised_ns_per_call([&] {
    for (const auto& g : graphs) {
      const auto set = graph::first_independent_set(g, q);
      g_sink = g_sink + (set ? static_cast<std::uint64_t>(set->size()) : 0);
    }
  });
  return ns / static_cast<double>(graphs.size()) / 1e3;
}

}  // namespace perfbench
