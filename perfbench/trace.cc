#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Open spans of the calling thread, innermost last. Keyed by recorder so two
// recorders alive on one thread keep separate parent chains.
thread_local std::vector<std::pair<const SpanRecorder*, int64_t>> tls_open;

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

}  // namespace

double CoveredLength(Interval window, std::vector<Interval> intervals) {
  for (Interval& iv : intervals) {
    iv.begin = std::max(iv.begin, window.begin);
    iv.end = std::min(iv.end, window.end);
  }
  intervals.erase(std::remove_if(intervals.begin(), intervals.end(),
                                 [](const Interval& iv) {
                                   return iv.end <= iv.begin;
                                 }),
                  intervals.end());
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double run_begin = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (open && iv.begin <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = iv.begin;
    run_end = iv.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

double SelfTime(const Span& span, const std::vector<Span>& all) {
  std::vector<Interval> children;
  for (const Span& s : all) {
    if (s.parent == span.id) children.push_back({s.start_us, s.end_us});
  }
  const double self =
      (span.end_us - span.start_us) -
      CoveredLength({span.start_us, span.end_us}, std::move(children));
  return std::max(0.0, self);
}

SpanRecorder::SpanRecorder(bool enabled, uint64_t run_id)
    : enabled_(enabled), run_id_(run_id), origin_ns_(SteadyNowNs()) {}

double SpanRecorder::NowUs() const {
  return static_cast<double>(SteadyNowNs() - origin_ns_) / 1e3;
}

uint32_t SpanRecorder::ThreadIndexLocked() {
  const uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (size_t i = 0; i < thread_keys_.size(); ++i) {
    if (thread_keys_[i] == key) return static_cast<uint32_t>(i);
  }
  thread_keys_.push_back(key);
  return static_cast<uint32_t>(thread_keys_.size() - 1);
}

int64_t SpanRecorder::Begin(const char* name) {
  if (!enabled_) return -1;
  int64_t parent = -1;
  for (auto it = tls_open.rbegin(); it != tls_open.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.end_us = -1.0;  // open
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.thread = ThreadIndexLocked();
    id = static_cast<int64_t>(spans_.size());
    span.id = id;
    span.start_us = NowUs();
    spans_.push_back(std::move(span));
  }
  tls_open.emplace_back(this, id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  if (id < 0) return;
  const double now = NowUs();
  for (auto it = tls_open.rbegin(); it != tls_open.rend(); ++it) {
    if (it->first == this && it->second == id) {
      tls_open.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> closed;
  closed.reserve(spans_.size());
  for (const Span& s : spans_) {
    if (s.end_us >= s.start_us) closed.push_back(s);
  }
  return closed;
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  double total_us = 0.0;
  for (const Span& s : spans()) {
    if (s.name == name) total_us += s.end_us - s.start_us;
  }
  return total_us / 1e6;
}

double SpanRecorder::SelfSeconds(const std::string& name) const {
  const std::vector<Span> all = spans();
  double total_us = 0.0;
  for (const Span& s : all) {
    if (s.name == name) total_us += SelfTime(s, all);
  }
  return total_us / 1e6;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "{\"name\": ");
    WriteJsonString(f, s.name);
    std::fprintf(f,
                 ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %lld, \"parent\": %lld, \"run\": %llu}}%s\n",
                 s.thread, s.start_us, s.end_us - s.start_us,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(run_id_),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
