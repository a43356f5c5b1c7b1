// In-memory span recorder for the traced run. A span is one public call
// into the library (or a group of them): name, start, end, the span that
// caused it and the operation it belongs to. Spans stay in memory and are
// written out as JSON lines when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  // -1: a root span
  int64_t op = -1;      // operation index within its rung, -1: none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Starts a span and returns its id. Thread-safe.
  int64_t Begin(std::string_view name, int64_t parent = -1, int64_t op = -1);
  void End(int64_t id);
  /// Every finished span named `name`, in start order.
  std::vector<Span> Finished(std::string_view name) const;
  /// One JSON object per line; false when the file cannot be written.
  bool Write(const std::string& path) const;
  size_t size() const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index == span id
};

/// Records one span for its lifetime; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string_view name, int64_t parent = -1,
             int64_t op = -1)
      : t_(t), id_(t ? t->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* t_;
  int64_t id_;
};

}  // namespace pb
