#include "report.h"

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json (same names, same units).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},  {"human_cost", "pairs"},
    {"precision", "ratio"}, {"recall", "ratio"},
};

// Must match "per_layer" in BENCHMARK.json. The first block is user-facing
// figures that no bound can gate: wall_s, which drifts with the host's speed
// far more than any bound allows (see README.md), and the figures only some
// workloads have. They are measured on untraced repetitions of the traced
// run; the rest are single layers.
const MetricDef kPerLayer[] = {
    {"wall_s", "s"},
    {"crowd_tasks", "HITs"},
    {"ingest_p50_ms", "ms"},
    {"ingest_tail_ms", "ms"},
    {"certify_s", "s"},
    {"read_p50_us", "us"},
    {"read_p99_us", "us"},
    {"trace_overhead_frac", "ratio"},
    {"common.pool_threads", "count"},
    {"data.columns_build_s", "s"},
    {"text.tfidf_s", "s"},
    {"data.lsh_block_s", "s"},
    {"data.lsh_cpu_s", "s"},
    {"data.candidate_pairs", "pairs"},
    {"data.candidate_match_frac", "ratio"},
    {"data.mmap_open_s", "s"},
    {"core.partition_s", "s"},
    {"core.apply_s", "s"},
    {"core.samp_s", "s"},
    {"core.samp_self_s", "s"},
    {"core.samp_cpu_s", "s"},
    {"core.hybr_s", "s"},
    {"gp.grid_fits", "count"},
    {"gp.warm_starts", "count"},
    {"gp.rows_appended", "count"},
    {"gp.warm_frac", "ratio"},
    {"core.stratum_hits", "count"},
    {"core.stratum_misses", "count"},
    {"core.oracle_pairs_saved", "pairs"},
    {"core.oracle_requests", "count"},
    {"core.oracle_duplicate_requests", "count"},
    {"core.crowd_answer_s", "s"},
    {"core.oracle_batches", "count"},
    {"core.crowd.pairs_purchased", "pairs"},
    {"core.crowd.pairs_inferred", "pairs"},
    {"core.crowd.worker_answers", "count"},
    {"core.crowd.inferred_frac", "ratio"},
    {"entity.cluster_s", "s"},
    {"entity.entities", "count"},
    {"core.service.cert_handoff_ms", "ms"},
    {"core.service.drain_s", "s"},
    {"core.service.snapshots_published", "count"},
    {"core.service.reviews_folded", "count"},
    {"core.service.queue_batches", "count"},
    {"core.service.queue_answers", "count"},
    {"core.service.queue_depth_max", "count"},
    {"core.service.read_epoch_lag_p50", "epochs"},
    {"core.service.read_epoch_lag_max", "epochs"},
    {"core.service.snapshot_pin_p50_us", "us"},
    {"core.snapshot.find_p50_us", "us"},
    {"entity.entity_of_p50_us", "us"},
    {"core.streaming.ingest_p50_ms", "ms"},
    {"core.streaming.certify_s", "s"},
    {"gp.prov_extensions", "count"},
    {"gp.prov_grid_fits", "count"},
    {"core.service.publish_overhead_ms", "ms"},
};

const MetricDef* Find(const std::string& name) {
  for (const MetricDef& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  for (const MetricDef& m : kPerLayer) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

template <size_t N>
void PrintJsonMetrics(const MetricDef (&defs)[N], const Outcome& outcome) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < N; ++i) {
    const auto it = outcome.metrics.find(defs[i].name);
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name,
                std::isfinite(value) ? value : 0.0, defs[i].unit);
  }
  std::printf("}");
}

}  // namespace

void Outcome::Op(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what);
  }
}

void Outcome::Set(const std::string& name, double value) {
  if (Find(name) == nullptr) {
    std::fprintf(stderr, "perfbench: metric %s is not in the catalogue\n",
                 name.c_str());
    std::abort();
  }
  metrics[name] = value;
}

void Outcome::NoteSeries(const std::string& label,
                         const std::vector<double>& values) {
  std::string line = label + ":";
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    line += buf;
  }
  notes.push_back(line);
}

bool MoreSetup(const std::vector<double>& setup_s) {
  const int done = static_cast<int>(setup_s.size());
  if (done < kSetupReps) return true;
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return done < kMaxSetupReps && total < kSetupSeconds;
}

bool RepSchedule::Next(bool* traced) {
  const size_t done = untraced_ + traced_;
  const bool need_more = done == 0 || elapsed_ < options_.seconds ||
                         (options_.trace && traced_ == 0);
  if (!need_more) return false;
  // U T T U U T T U ...: each kind gets early and late positions alike.
  *traced = options_.trace && (done % 4 == 1 || done % 4 == 2);
  if (*traced) {
    ++traced_;
  } else {
    ++untraced_;
  }
  return true;
}

void RepSchedule::StartRepetition() {
#ifdef __GLIBC__
  // Hand the heap memory earlier repetitions freed back to the system, so
  // every repetition's high-water mark starts from the same baseline instead
  // of creeping up with the repetition count.
  malloc_trim(0);
#endif
  if (!ResetPeakRss() && untraced_ + traced_ == 1) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the RSS high-water mark; "
                 "peak_rss_mb covers every repetition so far\n");
  }
}

void RepSchedule::Done(double timed_seconds) {
  rep_peak_rss_mb_.push_back(PeakRssMb());
  elapsed_ += timed_seconds;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM rather than getrusage's ru_maxrss: only VmHWM follows a reset
  // through clear_refs.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double WindowedQuantile(std::vector<double> values, double q,
                        double half_window) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double last = static_cast<double>(values.size() - 1);
  const size_t center = static_cast<size_t>(std::lround(q * last));
  const size_t lo = static_cast<size_t>(
      std::lround(std::max(0.0, q - half_window) * last));
  const size_t hi = static_cast<size_t>(
      std::lround(std::min(1.0, q + half_window) * last));
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = std::min(lo, center); i <= std::max(hi, center); ++i) {
    sum += values[i];
    ++count;
  }
  return sum / static_cast<double>(count);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int PrintResult(const RunOptions& options, const Outcome& outcome) {
  const bool correct = outcome.failed == 0;
  std::printf("workload %s, seed %llu, %s run\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  for (const std::string& note : outcome.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const auto& [name, value] : outcome.metrics) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), value, Find(name)->unit);
  }
  std::printf("  %-36s %.6g ratio (%zu of %zu timed operations)\n",
              "failed_frac",
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              outcome.failed, outcome.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
              correct ? "true" : "false", std::max<size_t>(1, outcome.attempted),
              outcome.failed);
  if (options.trace) {
    PrintJsonMetrics(kPerLayer, outcome);
  } else {
    PrintJsonMetrics(kEndToEnd, outcome);
  }
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
