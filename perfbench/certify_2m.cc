// certify_2m: the paper's optimizer path at a size where the GP dominates.
// A 2M-pair realization is written to a columnar file during set-up; the
// timed run maps it, partitions, runs SAMP and then HYBR on one estimation
// context (HYBR reuses SAMP's stored outcome) and applies the solution. The
// oracle answers inline; the text, crowd, service and entity layers do no
// work here.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "humo.h"
#include "workloads.h"

namespace perfbench {

using namespace humo;

namespace {

const core::QualityRequirement kReq{0.9, 0.9, 0.9};
constexpr size_t kSubsetSize = 200;
constexpr uint64_t kSamplingSeed = 1000;
constexpr size_t kPairs = 2'000'000;
constexpr size_t kRunPairs = 1'000'000;
constexpr size_t kCrossCheckPairs = 100'000;

bool WriteColumns(const data::ScaleWorkloadConfig& cfg,
                  const std::string& path) {
  std::remove(path.c_str());
  data::ExternalColumnsWriter writer(path, kRunPairs);
  for (size_t begin = 0; begin < cfg.num_pairs; begin += kRunPairs) {
    const size_t end = std::min(begin + kRunPairs, cfg.num_pairs);
    const data::ScaleColumns cols =
        data::GenerateScaleColumnsRange(cfg, begin, end);
    if (!writer
             .Append(cols.similarities.data(), cols.left_ids.data(),
                     cols.right_ids.data(), cols.labels.data(), end - begin)
             .ok()) {
      return false;
    }
  }
  const Result<size_t> written = writer.Finish();
  return written.ok() && *written == cfg.num_pairs;
}

core::PartialSamplingOptions Sampling() {
  core::PartialSamplingOptions sampling;
  sampling.seed = kSamplingSeed;
  return sampling;
}

struct RepResult {
  double wall_s = 0.0;
  double samp_cpu_s = 0.0;
  bool ok = false;
  core::HumoSolution samp, hybr;
  size_t human_cost = 0;
  double precision = 0.0;
  double recall = 0.0;
  size_t oracle_requests = 0;
  size_t oracle_duplicates = 0;
  core::CacheStats cache;
};

RepResult RunOnce(const std::string& path, SpanRecorder* rec, Outcome* out) {
  using Scope = SpanRecorder::Scope;
  RepResult r;
  const double t0 = NowSeconds();
  Scope rep_span(rec, "rep");

  std::optional<Result<std::shared_ptr<data::MmapColumns>>> mapped;
  std::optional<data::Workload> workload;
  {
    Scope s(rec, "data.mmap_open");
    mapped.emplace(data::MmapColumns::Open(path));
    if (mapped->ok()) workload.emplace(data::Workload::FromMmap(**mapped));
  }
  out->Op(mapped->ok(), "certify_2m: MmapColumns::Open failed");
  if (!mapped->ok()) return r;

  std::optional<core::SubsetPartition> partition;
  {
    Scope s(rec, "core.partition");
    partition.emplace(&*workload, kSubsetSize);
  }
  core::Oracle oracle(&*workload);
  core::EstimationContext ctx(&*partition, &oracle);
  const double samp_cpu0 = CpuSeconds();
  std::optional<Result<core::HumoSolution>> samp;
  {
    Scope s(rec, "core.samp");
    samp.emplace(core::PartialSamplingOptimizer(Sampling()).Optimize(&ctx,
                                                                     kReq));
  }
  r.samp_cpu_s = CpuSeconds() - samp_cpu0;
  out->Op(samp->ok(), "certify_2m: SAMP returned an error");
  core::HybridOptions hybrid;
  hybrid.sampling = Sampling();
  std::optional<Result<core::HumoSolution>> hybr;
  {
    Scope s(rec, "core.hybr");
    hybr.emplace(core::HybridOptimizer(hybrid).Optimize(&ctx, kReq));
  }
  out->Op(hybr->ok(), "certify_2m: HYBR returned an error");
  if (!samp->ok() || !hybr->ok()) return r;
  std::optional<core::ResolutionResult> resolution;
  {
    Scope s(rec, "core.apply");
    resolution.emplace(core::ApplySolution(*partition, **hybr, &oracle));
  }
  r.wall_s = NowSeconds() - t0;

  out->Op(oracle.duplicate_requests() == 0,
          "certify_2m: the oracle was asked the same pair twice");
  out->Op(resolution->labels.size() == workload->size(),
          "certify_2m: labels do not cover the workload");
  const eval::Quality quality = eval::QualityOf(*workload, resolution->labels);
  r.ok = true;
  r.samp = **samp;
  r.hybr = **hybr;
  r.human_cost = oracle.cost();
  r.precision = quality.precision;
  r.recall = quality.recall;
  r.oracle_requests = oracle.total_requests();
  r.oracle_duplicates = oracle.duplicate_requests();
  r.cache = ctx.stats();
  return r;
}

bool SameSolution(const core::HumoSolution& a, const core::HumoSolution& b) {
  return a.empty == b.empty && a.h_lo == b.h_lo && a.h_hi == b.h_hi;
}

/// SAMP over the mmap-backed columns must equal SAMP over the same pairs
/// held in RAM (solution and oracle cost).
bool CrossCheckMmapAgainstRam(uint64_t seed, const std::string& path) {
  data::ScaleWorkloadConfig cfg;
  cfg.num_pairs = kCrossCheckPairs;
  cfg.seed = seed;
  if (!WriteColumns(cfg, path)) return false;
  auto mapped = data::MmapColumns::Open(path, /*verify_sorted=*/true);
  if (!mapped.ok()) return false;
  const data::Workload via_mmap = data::Workload::FromMmap(*mapped);
  const data::Workload in_ram = data::GenerateScaleWorkload(cfg);
  auto certify = [](const data::Workload& w, core::HumoSolution* solution,
                    size_t* cost) {
    core::SubsetPartition partition(&w, kSubsetSize);
    core::Oracle oracle(&w);
    auto sol = core::PartialSamplingOptimizer(Sampling()).Optimize(
        partition, kReq, &oracle);
    if (!sol.ok()) return false;
    *solution = *sol;
    *cost = oracle.cost();
    return true;
  };
  core::HumoSolution ram_sol, mmap_sol;
  size_t ram_cost = 0, mmap_cost = 0;
  const bool ok = certify(in_ram, &ram_sol, &ram_cost) &&
                  certify(via_mmap, &mmap_sol, &mmap_cost) &&
                  SameSolution(ram_sol, mmap_sol) && ram_cost == mmap_cost;
  std::remove(path.c_str());
  return ok;
}

}  // namespace

void RunCertify2m(const RunOptions& options, SpanRecorder* recorder,
                  Outcome* out) {
  data::ScaleWorkloadConfig cfg;
  cfg.num_pairs = kPairs;
  cfg.seed = DeriveSeed(options.seed, 1);
  const std::string path = options.out_dir + "/certify_2m-seed" +
                           std::to_string(options.seed) + ".humocol";

  std::vector<double> setup_s;
  while (MoreSetup(setup_s)) {
    const double t0 = NowSeconds();
    const bool written = WriteColumns(cfg, path);
    setup_s.push_back(NowSeconds() - t0);
    if (!written) {
      out->Op(false, "certify_2m: writing the columnar file failed");
      return;
    }
  }

  // The cross-check runs before the timed repetitions, so it also warms
  // the code paths and the heap they use.
  out->Op(CrossCheckMmapAgainstRam(DeriveSeed(options.seed, 2),
                                   options.out_dir + "/certify_2m-check-seed" +
                                       std::to_string(options.seed) +
                                       ".humocol"),
          "certify_2m: SAMP over mmap columns differs from SAMP in RAM");

  RepSchedule schedule(options);
  std::vector<double> untraced_wall, traced_wall;
  double samp_cpu = 0.0;
  std::optional<RepResult> first, last;
  bool traced = false;
  while (schedule.Next(&traced)) {
    schedule.StartRepetition();
    RepResult r = RunOnce(path, traced ? recorder : nullptr, out);
    if (!r.ok) {
      std::remove(path.c_str());
      return;
    }
    schedule.Done(r.wall_s);
    (traced ? traced_wall : untraced_wall).push_back(r.wall_s);
    if (traced) samp_cpu += r.samp_cpu_s;
    if (!first) {
      first = r;
    } else {
      out->Op(SameSolution(r.samp, first->samp) &&
                  SameSolution(r.hybr, first->hybr) &&
                  r.human_cost == first->human_cost,
              "certify_2m: a repetition changed the solution or the cost");
    }
    last = std::move(r);
  }
  std::remove(path.c_str());

  out->Set("setup_s", Median(setup_s));
  out->Set("wall_s", Median(untraced_wall));
  out->NoteSeries("untraced wall_s per repetition", untraced_wall);
  out->Set("peak_rss_mb", schedule.peak_rss_mb());
  out->NoteSeries("peak_rss_mb per repetition", schedule.rep_peak_rss_mb());
  out->Set("human_cost", static_cast<double>(last->human_cost));
  out->Set("precision", last->precision);
  out->Set("recall", last->recall);
  out->notes.push_back(
      std::to_string(kPairs) + " pairs, " +
      std::to_string(schedule.untraced()) + " untraced + " +
      std::to_string(schedule.traced()) + " traced repetitions, " +
      std::to_string(ThreadPool::Global()->num_threads()) + " pool threads");
  if (!options.trace) return;

  const double n = static_cast<double>(schedule.traced());
  out->Set("trace_overhead_frac",
           Median(traced_wall) / Median(untraced_wall) - 1.0);
  out->Set("common.pool_threads",
           static_cast<double>(ThreadPool::Global()->num_threads()));
  out->Set("data.mmap_open_s", recorder->TotalSeconds("data.mmap_open") / n);
  out->Set("core.partition_s", recorder->TotalSeconds("core.partition") / n);
  out->Set("core.samp_s", recorder->TotalSeconds("core.samp") / n);
  out->Set("core.samp_self_s", recorder->SelfSeconds("core.samp") / n);
  out->Set("core.samp_cpu_s", samp_cpu / n);
  out->Set("core.hybr_s", recorder->TotalSeconds("core.hybr") / n);
  out->Set("core.apply_s", recorder->TotalSeconds("core.apply") / n);
  SetEngineCounters(last->cache, last->oracle_requests,
                    last->oracle_duplicates, out);
}

}  // namespace perfbench
