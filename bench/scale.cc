// Million-pair hot-path bench: drives the full generate -> block ->
// partition -> SAMP-certify (-> RISK) pipeline at 1M+ candidate pairs and
// records, per scale:
//
//   gen_ms         columnar pair synthesis (data::GenerateScaleColumns,
//                  parallel per-pair Rng::Stream)
//   block_ms       TokenBlock over grouped record tables sized to the scale
//                  (capped by HUMO_SCALE_BLOCK_MAX_PAIRS)
//   build_ms       Workload construction: AoS input -> SoA columns + O(n)
//                  radix sort, vs. build_legacy_ms, the pre-overhaul
//                  std::sort-of-structs construction — build_speedup is the
//                  ratio the CI perf gate tracks
//   partition_ms   SubsetPartition::Rebuild over the contiguous similarity
//                  column, vs. partition_legacy_ms, the pre-overhaul
//                  AoS-striding loop — partition_speedup gated likewise
//   samp_*         SAMP certification (alpha=beta=theta=0.9) end to end,
//                  including DH verification through the paged-bitmap
//                  oracle; oracle_answer_mb is the oracle's answer-memory
//                  footprint at completion
//   risk_*         RISK certification at the same requirement (skipped
//                  above HUMO_SCALE_RISK_MAX_PAIRS)
//   peak_rss_mb    getrusage high-water mark after the scale's stages
//
// The bench CHECKS what it advertises and exits nonzero on violation:
//   * the radix-built workload must equal the comparison-sorted legacy
//     workload column for column (same totals order => same unique result);
//   * SAMP on the seeded DS/AB golden workloads must reproduce the exact
//     golden precision/recall/cost the test suite pins — the proof that the
//     SoA/radix/bitmap overhaul did not move a single certified result.
//
// Environment knobs:
//   HUMO_SCALE_PAIRS            comma list of scales (default
//                               "100000,1000000")
//   HUMO_SCALE_REPS             best-of repetitions for build/partition
//                               timings (default 3)
//   HUMO_SCALE_CERTIFY          run SAMP certification (default 1)
//   HUMO_SCALE_RISK_MAX_PAIRS   largest scale that also runs RISK
//                               (default 1000000; 0 disables RISK)
//   HUMO_SCALE_BLOCK_MAX_PAIRS  cap on the blocking stage's candidate
//                               count (default 1000000; 0 disables)
//   HUMO_SCALE_GOLDEN           run the DS/AB golden self-check (default 1)

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<size_t> ParseScales(const std::string& csv) {
  std::vector<size_t> scales;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) scales.push_back(std::stoull(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return scales;
}

/// The pre-overhaul SubsetPartition::RebuildTail(0) body, verbatim modulo
/// the AoS vector it strides over — the baseline of partition_speedup.
void LegacyRebuild(const std::vector<data::InstancePair>& pairs,
                   size_t subset_size, std::vector<core::Subset>* subsets) {
  const size_t n = pairs.size();
  const size_t m = n / subset_size;
  subsets->clear();
  if (n == 0) return;
  if (m == 0) {
    core::Subset s{0, n, 0.0};
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) acc += pairs[i].similarity;
    s.avg_similarity = acc / static_cast<double>(n);
    subsets->assign(1, s);
    return;
  }
  subsets->reserve(m);
  for (size_t k = 0; k < m; ++k) {
    core::Subset s;
    s.begin = k * subset_size;
    s.end = (k + 1 == m) ? n : (k + 1) * subset_size;
    double acc = 0.0;
    for (size_t i = s.begin; i < s.end; ++i) acc += pairs[i].similarity;
    s.avg_similarity = acc / static_cast<double>(s.size());
    subsets->push_back(s);
  }
}

struct ScaleResult {
  size_t scale = 0;
  double gen_ms = 0.0;
  size_t block_pairs = 0;
  double block_ms = 0.0;
  double build_ms = 0.0;
  double build_legacy_ms = 0.0;
  double build_speedup = 0.0;
  double partition_ms = 0.0;
  double partition_legacy_ms = 0.0;
  double partition_speedup = 0.0;
  double samp_ms = -1.0;
  long long samp_cost = -1;
  double samp_precision = -1.0;
  double samp_recall = -1.0;
  double oracle_answer_mb = -1.0;
  double risk_ms = -1.0;
  long long risk_cost = -1;
  double peak_rss_mb = 0.0;
};

const core::QualityRequirement kReq{0.9, 0.9, 0.9};
constexpr uint64_t kSeed = 1000;
constexpr size_t kSubsetSize = 200;

int RunScale(size_t scale, size_t reps, bool certify, size_t risk_max,
             size_t block_max, ScaleResult* out) {
  out->scale = scale;
  data::ScaleWorkloadConfig cfg;
  cfg.num_pairs = scale;

  // ---- Generate (columnar — the layout the pipeline actually uses). ----
  double t0 = NowMs();
  const data::ScaleColumns columns = data::GenerateScaleColumns(cfg);
  out->gen_ms = NowMs() - t0;
  // Same realization as AoS structs: the legacy construction's input.
  std::vector<data::InstancePair> raw = data::GenerateScalePairs(cfg);

  // ---- Block (grouped tables -> TokenBlock), capped. ----
  if (block_max > 0) {
    data::ScaleTablesConfig tables_cfg;
    tables_cfg.left_per_group = 8;
    tables_cfg.right_per_group = 8;
    tables_cfg.groups = std::max<size_t>(1, std::min(scale, block_max) / 64);
    const data::ScaleTables tables = data::GenerateScaleTables(tables_cfg);
    const data::PairScorer scorer = [](const data::Record& a,
                                       const data::Record& b) {
      return text::JaccardSimilarity(text::WordTokens(a.attributes[1]),
                                     text::WordTokens(b.attributes[1]));
    };
    t0 = NowMs();
    const data::Workload blocked =
        data::TokenBlock(tables.left, tables.right, 0, scorer, 0.0);
    out->block_ms = NowMs() - t0;
    out->block_pairs = blocked.size();
    const size_t expected = tables_cfg.groups * 64;
    if (blocked.size() != expected) {
      std::fprintf(stderr,
                   "bench_scale: TokenBlock produced %zu candidates, "
                   "expected %zu\n",
                   blocked.size(), expected);
      return 1;
    }
  }

  // ---- Workload construction: columnar radix sort vs. legacy std::sort
  // of AoS structs. Both start from their generator's natural output and
  // end at the same sorted, queryable workload.
  data::Workload workload;
  for (size_t rep = 0; rep < reps; ++rep) {
    data::ScaleColumns copy = columns;
    t0 = NowMs();
    data::Workload w = data::Workload::FromColumns(
        std::move(copy.left_ids), std::move(copy.right_ids),
        std::move(copy.similarities), std::move(copy.labels));
    const double ms = NowMs() - t0;
    out->build_ms = rep == 0 ? ms : std::min(out->build_ms, ms);
    if (rep + 1 == reps) workload = std::move(w);
  }
  std::vector<data::InstancePair> legacy = std::move(raw);
  for (size_t rep = 0; rep < reps; ++rep) {
    std::vector<data::InstancePair> copy = legacy;
    t0 = NowMs();
    std::sort(copy.begin(), copy.end(), data::PairLess);
    const double ms = NowMs() - t0;
    out->build_legacy_ms =
        rep == 0 ? ms : std::min(out->build_legacy_ms, ms);
    if (rep + 1 == reps) legacy = std::move(copy);
  }
  out->build_speedup = out->build_legacy_ms / out->build_ms;

  // Contract: the radix-built workload equals the comparison-sorted legacy
  // one element for element.
  for (size_t i = 0; i < workload.size(); ++i) {
    if (workload.Similarity(i) != legacy[i].similarity ||
        workload.left_ids()[i] != legacy[i].left_id ||
        workload.right_ids()[i] != legacy[i].right_id ||
        workload.IsMatch(i) != legacy[i].is_match) {
      std::fprintf(stderr,
                   "bench_scale: radix/legacy sort divergence at index %zu "
                   "(scale %zu)\n",
                   i, scale);
      return 1;
    }
  }

  // ---- Partition rebuild: contiguous column vs. legacy AoS stride. ----
  core::SubsetPartition partition(&workload, kSubsetSize);
  for (size_t rep = 0; rep < reps; ++rep) {
    t0 = NowMs();
    partition.Rebuild();
    const double ms = NowMs() - t0;
    out->partition_ms = rep == 0 ? ms : std::min(out->partition_ms, ms);
  }
  std::vector<core::Subset> legacy_subsets;
  for (size_t rep = 0; rep < reps; ++rep) {
    t0 = NowMs();
    LegacyRebuild(legacy, kSubsetSize, &legacy_subsets);
    const double ms = NowMs() - t0;
    out->partition_legacy_ms =
        rep == 0 ? ms : std::min(out->partition_legacy_ms, ms);
  }
  out->partition_speedup = out->partition_legacy_ms / out->partition_ms;
  if (legacy_subsets.size() != partition.num_subsets()) {
    std::fprintf(stderr, "bench_scale: subset count divergence\n");
    return 1;
  }
  for (size_t k = 0; k < legacy_subsets.size(); ++k) {
    if (legacy_subsets[k].avg_similarity != partition[k].avg_similarity) {
      std::fprintf(stderr,
                   "bench_scale: avg_similarity divergence at subset %zu\n",
                   k);
      return 1;
    }
  }
  legacy.clear();
  legacy.shrink_to_fit();

  // ---- SAMP certification end to end. ----
  if (certify) {
    core::Oracle oracle(&workload);
    core::PartialSamplingOptions options;
    options.seed = kSeed;
    t0 = NowMs();
    auto solution =
        core::PartialSamplingOptimizer(options).Optimize(partition, kReq,
                                                         &oracle);
    if (!solution.ok()) {
      std::fprintf(stderr, "bench_scale: SAMP failed at scale %zu: %s\n",
                   scale, solution.status().ToString().c_str());
      return 1;
    }
    const auto resolution =
        core::ApplySolution(partition, *solution, &oracle);
    out->samp_ms = NowMs() - t0;
    out->samp_cost = static_cast<long long>(oracle.cost());
    const auto quality = eval::QualityOf(workload, resolution.labels);
    out->samp_precision = quality.precision;
    out->samp_recall = quality.recall;
    out->oracle_answer_mb =
        static_cast<double>(oracle.AnswerMemoryBytes()) / (1024.0 * 1024.0);
  }

  // ---- RISK certification. ----
  if (certify && risk_max > 0 && scale <= risk_max) {
    core::Oracle oracle(&workload);
    core::RiskAwareOptions options;
    options.sampling.seed = kSeed;
    t0 = NowMs();
    auto outcome =
        core::RiskAwareOptimizer(options).Resolve(partition, kReq, &oracle);
    if (!outcome.ok()) {
      std::fprintf(stderr, "bench_scale: RISK failed at scale %zu: %s\n",
                   scale, outcome.status().ToString().c_str());
      return 1;
    }
    out->risk_ms = NowMs() - t0;
    out->risk_cost = static_cast<long long>(oracle.cost());
  }

  out->peak_rss_mb = PeakRssMb();
  return 0;
}

/// SAMP golden rows shared with the golden regression suite through
/// eval/golden_reference.h (seeded DS 20k / AB 60k, alpha=beta=theta=0.9,
/// seed 1000). The bench re-derives them through the overhauled layout and
/// refuses to write a baseline if a single double moved.
int CheckGolden() {
  const eval::GoldenSampReference golden[] = {eval::kGoldenSampDs,
                                              eval::kGoldenSampAb};
  for (const eval::GoldenSampReference& g : golden) {
    const data::Workload w =
        std::string(g.workload) == "DS"
            ? data::SimulatePairs(data::DsConfigSmall(555, 20000))
            : data::SimulatePairs(data::AbConfigSmall(1234, 60000));
    core::SubsetPartition partition(&w, kSubsetSize);
    core::Oracle oracle(&w);
    core::PartialSamplingOptions options;
    options.seed = kSeed;
    auto solution =
        core::PartialSamplingOptimizer(options).Optimize(partition, kReq,
                                                         &oracle);
    if (!solution.ok()) {
      std::fprintf(stderr, "bench_scale: golden SAMP failed on %s\n", g.workload);
      return 1;
    }
    const auto resolution =
        core::ApplySolution(partition, *solution, &oracle);
    const auto quality = eval::QualityOf(w, resolution.labels);
    if (quality.precision != g.precision || quality.recall != g.recall ||
        oracle.cost() != g.human_cost) {
      std::fprintf(stderr,
                   "bench_scale: golden %s diverged: precision %.17g vs "
                   "%.17g, recall %.17g vs %.17g, cost %zu vs %zu\n",
                   g.workload, quality.precision, g.precision, quality.recall,
                   g.recall, oracle.cost(), g.human_cost);
      return 1;
    }
    std::printf("golden %s: SAMP bit-identical (cost %zu)\n", g.workload,
                g.human_cost);
  }
  return 0;
}

}  // namespace

int main() {
  const std::vector<size_t> scales = ParseScales(
      GetEnvString("HUMO_SCALE_PAIRS", "100000,1000000"));
  const size_t reps = static_cast<size_t>(GetEnvInt64("HUMO_SCALE_REPS", 3));
  const bool certify = GetEnvInt64("HUMO_SCALE_CERTIFY", 1) != 0;
  const size_t risk_max =
      static_cast<size_t>(GetEnvInt64("HUMO_SCALE_RISK_MAX_PAIRS", 1000000));
  const size_t block_max =
      static_cast<size_t>(GetEnvInt64("HUMO_SCALE_BLOCK_MAX_PAIRS", 1000000));
  const bool golden = GetEnvInt64("HUMO_SCALE_GOLDEN", 1) != 0;

  std::printf("bench_scale: million-pair hot paths (threads=%zu, reps=%zu)\n\n",
              ThreadPool::Global()->num_threads(), reps);

  // True only when the golden self-check actually RAN and passed (a
  // failure exits before the JSON is written); false records a skipped
  // check honestly.
  const bool golden_ok = golden;
  if (golden) {
    if (CheckGolden() != 0) return 1;
  }

  std::printf("%10s | %9s %9s | %9s %9s %7s | %9s %9s %7s | %9s %10s | %8s\n",
              "pairs", "gen ms", "block ms", "build ms", "legacy", "speedup",
              "part ms", "legacy", "speedup", "samp ms", "oracle MB",
              "rss MB");

  std::vector<ScaleResult> results;
  for (size_t scale : scales) {
    ScaleResult r;
    if (RunScale(scale, reps, certify, risk_max, block_max, &r) != 0) {
      return 1;
    }
    std::printf(
        "%10zu | %9.1f %9.1f | %9.1f %9.1f %6.2fx | %9.2f %9.2f %6.2fx | "
        "%9.1f %10.3f | %8.1f\n",
        r.scale, r.gen_ms, r.block_ms, r.build_ms, r.build_legacy_ms,
        r.build_speedup, r.partition_ms, r.partition_legacy_ms,
        r.partition_speedup, r.samp_ms, r.oracle_answer_mb, r.peak_rss_mb);
    results.push_back(r);
  }

  std::vector<bench::JsonFields> rows;
  for (const ScaleResult& r : results) {
    bench::JsonFields& f = rows.emplace_back();
    f.emplace_back("scale", r.scale);
    f.emplace_back("gen_ms", r.gen_ms);
    f.emplace_back("block_pairs", r.block_pairs);
    f.emplace_back("block_ms", r.block_ms);
    f.emplace_back("build_ms", r.build_ms);
    f.emplace_back("build_legacy_ms", r.build_legacy_ms);
    f.emplace_back("build_speedup", r.build_speedup);
    f.emplace_back("partition_ms", r.partition_ms);
    f.emplace_back("partition_legacy_ms", r.partition_legacy_ms);
    f.emplace_back("partition_speedup", r.partition_speedup);
    f.emplace_back("samp_ms", r.samp_ms);
    f.emplace_back("samp_cost", r.samp_cost);
    f.emplace_back("samp_precision", r.samp_precision, "%.17g");
    f.emplace_back("samp_recall", r.samp_recall, "%.17g");
    f.emplace_back("oracle_answer_mb", r.oracle_answer_mb);
    f.emplace_back("risk_ms", r.risk_ms);
    f.emplace_back("risk_cost", r.risk_cost);
    f.emplace_back("peak_rss_mb", r.peak_rss_mb, "%.1f");
  }
  bench::JsonFields head;
  head.emplace_back("bench", "scale");
  head.emplace_back("threads", ThreadPool::Global()->num_threads());
  head.emplace_back("reps", reps);
  head.emplace_back("subset_size", kSubsetSize);
  head.emplace_back("golden_ok", golden_ok);
  return bench::WriteBenchJson("scale", head, rows) ? 0 : 1;
}
