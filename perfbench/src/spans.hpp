// In-memory span recorder for the traced run.
//
// Spans are recorded around the benchmark's own calls into each layer's
// public functions; nothing inside the library is instrumented. Each span
// holds a name, start and end (steady-clock ns), its parent span and a
// context id (the month or request it belongs to). Spans stay in memory
// and are written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";    ///< Layer-qualified name, static storage.
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;      ///< 1-based; 0 is "no span".
  std::uint32_t parent = 0;  ///< 0 = root.
  std::uint64_t context = 0; ///< Month or request id.

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may
/// overlap one another, e.g. device tasks on a thread pool, and may
/// stick out of the parent; only the covered part inside the parent
/// counts). Indexed like `spans`.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Thread-safe recorder. Ids are handed out at open time, so a parent
/// opened on one thread can be named as the parent of spans recorded on
/// pool workers.
class SpanRecorder {
 public:
  /// Reserves an id for a span that will be closed later.
  std::uint32_t open() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }

  void record(const char* name, std::uint32_t id, std::uint32_t parent,
              std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t context = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, context});
  }

  /// Opens and records in one go (for leaf spans timed by the caller).
  void leaf(const char* name, std::uint32_t parent, std::uint64_t start_ns,
            std::uint64_t end_ns, std::uint64_t context = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        Span{name, start_ns, end_ns, ++next_id_, parent, context});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time per span name, in ns.
  std::map<std::string, std::uint64_t> self_by_name() const;
  /// Total duration and count per span name.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
  duration_by_name() const;

  /// Writes the spans as JSON lines.
  void write_jsonl(const std::string& path) const;

 private:
  std::mutex mu_;
  std::uint32_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint32_t parent,
             std::uint64_t context = 0)
      : rec_(rec), name_(name), parent_(parent), context_(context) {
    if (rec_ != nullptr) {
      id_ = rec_->open();
      start_ = now_ns();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->record(name_, id_, parent_, start_, now_ns(), context_);
    }
  }

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  const char* name_;
  std::uint32_t parent_;
  std::uint64_t context_;
  std::uint32_t id_ = 0;
  std::uint64_t start_ = 0;
};

}  // namespace perfbench
