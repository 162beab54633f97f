#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "refclock.hpp"

namespace perfbench {

namespace {
const char* role_name(Role role) {
  switch (role) {
    case Role::kLeader: return "leader";
    case Role::kFollower: return "follower";
    case Role::kClient: return "client";
    case Role::kNode: return "node";
  }
  return "?";
}
}  // namespace

std::uint16_t SpanLog::type_index(std::string_view tag) {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i] == tag) return static_cast<std::uint16_t>(i);
  types_.emplace_back(tag);
  type_ns_.push_back(0);
  type_handled_.push_back(0);
  type_sends_.push_back(0);
  type_distinct_sends_.push_back(0);
  samples_.emplace_back();
  return static_cast<std::uint16_t>(types_.size() - 1);
}

std::uint32_t SpanLog::open() {
  current_ = next_id_++;
  return current_;
}

void SpanLog::close(std::uint32_t id, std::uint64_t start_ns,
                    std::uint32_t process, Role role,
                    const sim::Payload& message) {
  const std::uint64_t end_ns = wall_ns();
  const std::uint16_t type = type_index(message.type_tag());
  const auto ns = static_cast<double>(end_ns - start_ns);
  type_ns_[type] += ns;
  ++type_handled_[type];
  role_ns_[static_cast<std::size_t>(role)] += ns;
  std::uint32_t parent = 0;
  if (const auto it = sent_by_.find(&message); it != sent_by_.end())
    parent = it->second;
  if (spans_.size() < kMaxSpans)
    spans_.push_back(Span{start_ns, end_ns, id, parent, process, type, role});
  current_ = 0;
}

void SpanLog::on_send(const sim::PayloadPtr& message, std::size_t copies) {
  const std::uint16_t type = type_index(message->type_tag());
  type_sends_[type] += copies;
  if (message.get() != last_sent_) {
    ++type_distinct_sends_[type];
    last_sent_ = message.get();
    if (samples_[type].size() < kSamplesPerType)
      samples_[type].push_back(message);
  }
  size_counts_[message->wire_size()] += copies;
  if (current_ != 0) {
    if (sent_by_.size() > 4 * kMaxSpans) sent_by_.clear();
    sent_by_[message.get()] = current_;
  }
}

double SpanLog::self_ns_of_type(std::string_view tag) const {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i] == tag) return type_ns_[i];
  return 0;
}

double SpanLog::total_self_ns() const {
  double total = 0;
  for (double ns : role_ns_) total += ns;
  return total;
}

std::uint64_t SpanLog::sends_of_type(std::string_view tag) const {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i] == tag) return type_sends_[i];
  return 0;
}

std::uint64_t SpanLog::distinct_sends_of_type(std::string_view tag) const {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i] == tag) return type_distinct_sends_[i];
  return 0;
}

const std::vector<sim::PayloadPtr>& SpanLog::samples(
    std::string_view tag) const {
  static const std::vector<sim::PayloadPtr> kNone;
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i] == tag) return samples_[i];
  return kNone;
}

std::size_t SpanLog::median_message_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [size, count] : size_counts_) total += count;
  std::uint64_t seen = 0;
  for (const auto& [size, count] : size_counts_) {
    seen += count;
    if (2 * seen >= total) return size;
  }
  return 0;
}

std::string SpanLog::breakdown() const {
  std::string out = "handler self time by type:";
  for (std::size_t i = 0; i < types_.size(); ++i) {
    char item[160];
    std::snprintf(item, sizeof item, " %s=%.1fms/%llu", types_[i].c_str(),
                  type_ns_[i] / 1e6,
                  static_cast<unsigned long long>(type_handled_[i]));
    out += item;
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%u,\"parent\":%u,\"process\":%u,\"role\":\"%s\","
                  "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                  s.id, s.parent, s.process, role_name(s.role),
                  types_[s.type].c_str(),
                  static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns));
    out << line;
  }
  return static_cast<bool>(out);
}

// --- TimedTransport ---------------------------------------------------

void TimedTransport::set_handler(Handler handler) {
  handler_ = std::move(handler);
  if (!handler_) {
    inner_.set_handler(nullptr);
    return;
  }
  inner_.set_handler([this](ProcessId from, const sim::PayloadPtr& message) {
    deliver(from, message);
  });
}

void TimedTransport::deliver(ProcessId from, const sim::PayloadPtr& message) {
  if (log_ == nullptr) {
    handler_(from, message);
  } else {
    const Role role = role_();
    const std::uint32_t id = log_->open();
    const std::uint64_t start = wall_ns();
    handler_(from, message);
    log_->close(id, start, self(), role, *message);
  }
  if (touched_ != nullptr) touched_->push_back(self());
}

void TimedTransport::send(ProcessId to, sim::PayloadPtr message) {
  if (log_ != nullptr) log_->on_send(message, 1);
  if (touched_ != nullptr) touched_->push_back(self());
  inner_.send(to, std::move(message));
}

void TimedTransport::broadcast(ProcessSet targets,
                               const sim::PayloadPtr& message) {
  if (log_ != nullptr)
    log_->on_send(message, static_cast<std::size_t>(targets.size()));
  if (touched_ != nullptr) touched_->push_back(self());
  inner_.broadcast(targets, message);
}

}  // namespace perfbench
