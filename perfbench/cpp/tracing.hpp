// Benchmark-side tracing: a net::Transport wrapper that times every
// message handler, and the in-memory span log it records into.
//
// The wrapper sits between a node (replica, client or quorum-selection
// process) and its real transport. Delivery upcalls are timed; since no
// substrate delivers a message synchronously inside a send, a handler
// span holds no child spans and its duration is the handler's self time.
// Everything the event loop does outside handlers (timer callbacks,
// scheduling, socket I/O) is "dispatch". Spans stay in memory and are
// written out once the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

using namespace qsel;  // NOLINT: the benchmark speaks the program's types

enum class Role : std::uint8_t { kLeader, kFollower, kClient, kNode };
inline constexpr std::size_t kRoles = 4;

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  // span that sent the message; 0 = none/unknown
  std::uint32_t process;
  std::uint16_t type;
  Role role;
};

class SpanLog {
 public:
  /// Spans kept for the trace file; aggregates count every span.
  static constexpr std::size_t kMaxSpans = 200'000;
  /// Messages of each type kept for the codec timings.
  static constexpr std::size_t kSamplesPerType = 64;

  std::uint16_t type_index(std::string_view tag);
  const std::vector<std::string>& type_names() const { return types_; }

  /// Opens a handler span; returns its id.
  std::uint32_t open();
  void close(std::uint32_t id, std::uint64_t start_ns, std::uint32_t process,
             Role role, const sim::Payload& message);
  void on_send(const sim::PayloadPtr& message, std::size_t copies);

  double self_ns(Role role) const {
    return role_ns_[static_cast<std::size_t>(role)];
  }
  double self_ns_of_type(std::string_view tag) const;
  double total_self_ns() const;
  std::uint64_t sends_of_type(std::string_view tag) const;
  /// Distinct payload objects sent of this type (a broadcast counts once).
  std::uint64_t distinct_sends_of_type(std::string_view tag) const;
  const std::vector<sim::PayloadPtr>& samples(std::string_view tag) const;
  /// Median wire size over every message sent.
  std::size_t median_message_bytes() const;

  /// "type=self_ms/handled ..." for every message type, for the run notes.
  std::string breakdown() const;

  /// Writes spans as JSON lines; returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> types_;
  std::vector<double> type_ns_;
  std::vector<std::uint64_t> type_handled_;
  std::vector<std::uint64_t> type_sends_;
  std::vector<std::uint64_t> type_distinct_sends_;
  std::vector<std::vector<sim::PayloadPtr>> samples_;
  std::array<double, kRoles> role_ns_{};
  std::map<std::size_t, std::uint64_t> size_counts_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
  std::uint32_t current_ = 0;  // span whose handler is running
  const sim::Payload* last_sent_ = nullptr;
  /// Payload -> span that sent it, for parent links.
  std::unordered_map<const sim::Payload*, std::uint32_t> sent_by_;
};

/// Transport wrapper. With a SpanLog it times every delivery; with a
/// `touched` list it notes the process as active after each delivery or
/// send (the quorum-convergence watcher uses it); with neither it only
/// forwards.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, SpanLog* log,
                 std::function<Role()> role,
                 std::vector<ProcessId>* touched = nullptr)
      : inner_(inner),
        log_(log),
        role_(std::move(role)),
        touched_(touched) {}

  ProcessId self() const override { return inner_.self(); }
  ProcessId process_count() const override { return inner_.process_count(); }
  sim::Simulator& timers() override { return inner_.timers(); }
  SimDuration round_length() const override { return inner_.round_length(); }

  void set_handler(Handler handler) override;
  void send(ProcessId to, sim::PayloadPtr message) override;
  void broadcast(ProcessSet targets, const sim::PayloadPtr& message) override;

 private:
  void deliver(ProcessId from, const sim::PayloadPtr& message);

  net::Transport& inner_;
  SpanLog* log_;
  std::function<Role()> role_;
  std::vector<ProcessId>* touched_;
  Handler handler_;
};

}  // namespace perfbench
