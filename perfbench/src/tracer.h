// Host-time spans recorded from the benchmark's own files around each call
// into a simulator layer. Spans stay in memory during the run and are
// written out once at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";  // a static string: "<layer>.<step>"
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  // index into the span list, -1 for a root
  int op = -1;      // the op the span belongs to
};

class Tracer {
 public:
  /// Start of op `op`: later spans belong to it.
  void begin_op(int op) { op_ = op; }

  /// Open a span nested in the innermost open one; returns its id.
  int open(const char* name);
  void close(int id);

  /// Record an already-measured interval nested in the innermost open
  /// span (used for intervals bounded by simulator idle callbacks).
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  /// Per op, the summed duration in ms of every span called `name`; ops
  /// without such a span are absent.
  std::map<int, double> per_op_ms(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Write the spans as tab-separated lines (id, parent, op, name,
  /// start_us, end_us; times relative to the first span). Returns false
  /// when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = -1;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it a no-op, so untraced runs pay one branch.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
