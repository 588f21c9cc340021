#pragma once

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark itself around the calls it makes into
// each library layer; the library is never modified. A span has a name, a
// start and end on the steady clock, and the id of the span that was open on
// the same thread when it began (its parent). Every span of one benchmark
// run carries the same run id. Spans stay in memory and are written out
// once, at the end, as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing).
//
// When the recorder is disabled, Scope costs one branch and records nothing:
// the end-to-end metrics come from runs with the recorder disabled.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  ///< steady-clock microseconds since recorder start
  double end_us = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1: a root span
  uint32_t thread = 0;  ///< small per-recorder thread index
};

/// Half-open time interval [begin, end) in microseconds.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of `intervals` clipped to `window`. Overlapping and
/// nested intervals are counted once.
double CoveredLength(Interval window, std::vector<Interval> intervals);

/// Self time of `span`: its duration minus the part of its interval covered
/// by the union of its direct children's intervals (children from other
/// threads included). Never negative.
double SelfTime(const Span& span, const std::vector<Span>& all);

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, uint64_t run_id);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t run_id() const { return run_id_; }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  int64_t Begin(const char* name);
  /// Closes span `id` (must be the innermost open span of this thread).
  void End(int64_t id);

  /// RAII span. Nesting on one thread sets the parent automatically.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name)
        : recorder_(recorder),
          id_(recorder != nullptr && recorder->enabled()
                  ? recorder->Begin(name)
                  : -1) {}
    ~Scope() {
      if (id_ >= 0) recorder_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int64_t id_;
  };

  /// Closed spans, in the order they were opened. Call once no span is open.
  std::vector<Span> spans() const;

  /// Sum of the durations of every closed span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Sum of the self times of every closed span called `name`, in seconds.
  double SelfSeconds(const std::string& name) const;

  /// Writes every closed span as Chrome trace-event JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double NowUs() const;
  uint32_t ThreadIndexLocked();

  const bool enabled_;
  const uint64_t run_id_;
  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;      // guarded by mu_; index == span id
  std::vector<uint64_t> thread_keys_;  // guarded by mu_
};

}  // namespace perfbench
