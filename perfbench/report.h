#pragma once

// Shared plumbing of the benchmark program: run options, the metric catalogue
// every workload reports against, timing helpers, and the result printer.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// What one benchmark process reports. `metrics` holds every value the
/// workload measured, keyed by catalogue name; names the workload leaves
/// out are layers it bypasses and print as 0 in the traced result.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable context lines

  /// Counts one timed operation; `ok == false` also counts it as failed and
  /// prints `what` to stderr.
  void Op(bool ok, const char* what);
  void Set(const std::string& name, double value);
  /// Adds a note listing `values` (e.g. the wall time of each repetition).
  void NoteSeries(const std::string& label, const std::vector<double>& values);
};

double Median(std::vector<double> values);

/// Set-up runs at least `kSetupReps` times and, while it is cheap, again
/// until `kSetupSeconds` of set-up have elapsed, at most `kMaxSetupReps`
/// times; setup_s is the median. Timed repetitions run until `seconds` of
/// timed work have elapsed, at least one. In a traced run the repetitions
/// alternate untraced / traced in the order U T T U, with at least one of
/// each: end-to-end figures come only from the untraced ones.
constexpr int kSetupReps = 7;
constexpr int kMaxSetupReps = 50;
constexpr double kSetupSeconds = 1.0;

/// True while another set-up should run, given the times of those done.
bool MoreSetup(const std::vector<double>& setup_s);

class RepSchedule {
 public:
  explicit RepSchedule(const RunOptions& options) : options_(options) {}
  /// True while another repetition should start; `*traced` says whether it
  /// is a traced one.
  bool Next(bool* traced);
  /// Call right before the repetition, after releasing what the previous
  /// one left behind: trims freed heap memory and resets the RSS mark.
  void StartRepetition();
  /// Adds the timed seconds of the repetition that just ended.
  void Done(double timed_seconds);
  /// Highest of the repetitions' resident-set high-water marks (MiB).
  /// Before every repetition freed heap memory is trimmed and the mark is
  /// reset, so each mark covers what set-up left resident plus that
  /// repetition; a whole-process mark would grow with the number of
  /// repetitions, which depends on speed. The highest rather than the
  /// median: within one run the marks of `certify_2m` fall into two modes
  /// about 8% apart, and the median of three or four flips between them.
  double peak_rss_mb() const {
    double peak = 0.0;
    for (const double mb : rep_peak_rss_mb_) peak = std::max(peak, mb);
    return peak;
  }
  const std::vector<double>& rep_peak_rss_mb() const {
    return rep_peak_rss_mb_;
  }
  size_t untraced() const { return untraced_; }
  size_t traced() const { return traced_; }

 private:
  const RunOptions& options_;
  double elapsed_ = 0.0;
  std::vector<double> rep_peak_rss_mb_;
  size_t untraced_ = 0;
  size_t traced_ = 0;
};

double NowSeconds();
/// User + system CPU seconds of the whole process (all threads).
double CpuSeconds();
/// Resident-set high-water mark of the process, in MiB (VmHWM).
double PeakRssMb();
/// Resets the high-water mark to the current resident set (Linux
/// /proc/self/clear_refs, "5"). Returns false where unsupported.
bool ResetPeakRss();

/// Estimate of quantile `q` of `values` that keeps sub-sample digits: the
/// mean of the order statistics ranked within `q ± half_window` (at least
/// the one at rank q). Used for latency percentiles over many samples.
double WindowedQuantile(std::vector<double> values, double q,
                        double half_window);

/// Mixes the workload seed into an independent stream for one input.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Prints every measured metric with its unit (human-readable), then, as
/// the last line, the result JSON: end-to-end metrics in an untraced run,
/// per-layer metrics in a traced run. Returns the process exit code.
int PrintResult(const RunOptions& options, const Outcome& outcome);

}  // namespace perfbench
