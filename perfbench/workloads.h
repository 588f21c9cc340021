#pragma once

#include "core/estimation_engine.h"
#include "report.h"

namespace perfbench {

/// Raw record tables -> columns + TF-IDF -> MinHash LSH -> partition ->
/// SAMP answered by a noisy crowd through HIT packing -> labels -> entities.
void RunRecordsCrowd(const RunOptions& options, SpanRecorder* recorder,
                     Outcome* out);

/// 2M-pair columnar file -> mmap -> partition -> SAMP then HYBR on one
/// estimation context -> labels. Inline oracle.
void RunCertify2m(const RunOptions& options, SpanRecorder* recorder,
                  Outcome* out);

/// Resolution service ingesting 64 shuffled shards with review bursts and
/// two certifications while two closed-loop readers send identity reads.
void RunServeMixed(const RunOptions& options, SpanRecorder* recorder,
                   Outcome* out);

/// Reports the estimation engine's cache and GP counters and the oracle's
/// request counters (per-layer metrics shared by every workload).
inline void SetEngineCounters(const humo::core::CacheStats& cache,
                              size_t oracle_requests, size_t duplicates,
                              Outcome* out) {
  auto count = [](size_t v) { return static_cast<double>(v); };
  out->Set("gp.grid_fits", count(cache.gp_grid_fits));
  out->Set("gp.warm_starts", count(cache.gp_warm_starts));
  out->Set("gp.rows_appended", count(cache.gp_rows_appended));
  const size_t fits = cache.gp_warm_starts + cache.gp_grid_fits;
  out->Set("gp.warm_frac",
           fits > 0 ? count(cache.gp_warm_starts) / count(fits) : 0.0);
  out->Set("core.stratum_hits", count(cache.stratum_hits));
  out->Set("core.stratum_misses", count(cache.stratum_misses));
  out->Set("core.oracle_pairs_saved", count(cache.oracle_pairs_saved));
  out->Set("core.oracle_requests", count(oracle_requests));
  out->Set("core.oracle_duplicate_requests", count(duplicates));
}

}  // namespace perfbench
