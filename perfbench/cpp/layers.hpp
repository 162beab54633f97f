// Timed direct calls into single layers (crypto, net codec, app, graph)
// on inputs captured from the workload or shaped like it. Every figure is
// a median over bracketed repetitions, normalised like the end-to-end
// times (refclock.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/simple_graph.hpp"
#include "sim/payload.hpp"

namespace perfbench {

using namespace qsel;  // NOLINT: the benchmark speaks the program's types

/// Normalised ns per call of `body`, median of several bracketed rounds.
double normalised_ns_per_call(const std::function<void()>& body);

/// One hmac_sha256 over a message of `bytes` bytes.
double hmac_ns(std::size_t bytes);
/// Bulk sha256 throughput over a 1 MiB buffer, MB/s (10^6 bytes).
double sha256_mb_per_s();

struct CodecCost {
  double encode_ns_per_kib = 0;
  double decode_ns_per_kib = 0;
};
/// encode_message / decode_message over the sampled messages.
CodecCost codec_cost(const std::vector<sim::PayloadPtr>& samples,
                     ProcessId n);

/// KvStore::apply_encoded per operation, replaying `ops` in order on a
/// fresh store.
double apply_ns_per_op(const std::vector<std::vector<std::uint8_t>>& ops);

/// first_independent_set per graph, µs, over the captured suspect graphs.
double solve_us(const std::vector<graph::SimpleGraph>& graphs, int q);

}  // namespace perfbench
