// records_crowd: the headline path from raw records to entities. The text
// and data layers (columns, TF-IDF, LSH) do most of the work; certification
// runs SAMP with every human answer bought from a noisy crowd through
// cluster-packed HITs, so this is the one workload whose oracle goes through
// the crowd provider.

#include <memory>
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
constexpr double kScoreThreshold = 0.2;
constexpr uint64_t kSamplingSeed = 1000;
// 8x8 groups of 15625 give 1M in-group candidate pairs over 250k records.
constexpr size_t kGroups = 15625;
// The crowd: 3 workers per pair, each wrong 5% of the time, aggregated by
// Dawid-Skene. At the library's default 10% worker error SAMP's human cost
// on these candidates is bimodal across crowd realizations (11.6k to 28.5k
// pairs over 15 crowds on one table, median between the modes), which no
// regression bound can gate; at 5% it stays within a few pairs.
constexpr double kWorkerError = 0.05;
// human_cost, precision and recall are medians over this many independent
// crowds certifying the same candidates: the one the timed repetitions use,
// plus the rest certified untimed after them.
constexpr uint64_t kCrowds = 5;

struct Certified {
  bool ok = false;
  std::vector<int> labels;
  size_t human_cost = 0;
  size_t oracle_batches = 0;
  size_t oracle_requests = 0;
  size_t oracle_duplicates = 0;
  double samp_cpu_s = 0.0;
  core::CacheStats cache;
  core::CrowdTaskStats crowd;
};

/// SAMP over `lsh` with every answer bought from a simulated crowd through
/// cluster-packed HITs, then ApplySolution.
Certified CertifyWithCrowd(const data::Workload& lsh,
                           const core::SubsetPartition& partition,
                           const core::CrowdOptions& crowd_options,
                           SpanRecorder* rec, Outcome* out) {
  using Scope = SpanRecorder::Scope;
  Certified c;
  core::Oracle oracle(&lsh);
  core::CrowdOracle crowd(&lsh, crowd_options);
  core::CrowdTaskBroker broker(&lsh, &crowd);
  // Wrapping the broker's provider (already on the answer path) only adds a
  // span and a batch count around it.
  const core::Oracle::AnswerProvider answer = broker.Provider();
  oracle.SetAnswerProvider(
      [&answer, &c, rec](const std::vector<size_t>& indices) {
        Scope s(rec, "core.crowd_answer");
        ++c.oracle_batches;
        return answer(indices);
      });
  core::EstimationContext ctx(&partition, &oracle);
  core::PartialSamplingOptions sampling;
  sampling.seed = kSamplingSeed;
  const double cpu0 = CpuSeconds();
  std::optional<Result<core::HumoSolution>> solution;
  {
    Scope s(rec, "core.samp");
    solution.emplace(
        core::PartialSamplingOptimizer(sampling).Optimize(&ctx, kReq));
  }
  c.samp_cpu_s = CpuSeconds() - cpu0;
  out->Op(solution->ok(), "records_crowd: SAMP returned an error");
  if (!solution->ok()) return c;
  {
    Scope s(rec, "core.apply");
    c.labels = core::ApplySolution(partition, **solution, &oracle).labels;
  }
  c.ok = true;
  c.human_cost = broker.stats().pairs_purchased;
  c.oracle_requests = oracle.total_requests();
  c.oracle_duplicates = oracle.duplicate_requests();
  c.cache = ctx.stats();
  c.crowd = broker.stats();
  return c;
}

struct RepResult {
  double wall_s = 0.0;
  double lsh_cpu_s = 0.0;
  std::unique_ptr<data::Workload> lsh;
  Certified cert;
  size_t entities = 0;
};

RepResult RunOnce(const data::ScaleTables& tables,
                  const core::CrowdOptions& crowd_options, SpanRecorder* rec,
                  Outcome* out) {
  using Scope = SpanRecorder::Scope;
  RepResult r;
  const double t0 = NowSeconds();
  Scope rep_span(rec, "rep");

  text::TokenDictionary dict;
  std::optional<data::RecordColumns> left_cols, right_cols;
  {
    Scope s(rec, "data.columns_build");
    left_cols.emplace(data::RecordColumns::Build(tables.left, 1, &dict));
    right_cols.emplace(data::RecordColumns::Build(tables.right, 1, &dict));
  }
  {
    Scope s(rec, "text.tfidf");
    text::TfIdfModel model;
    model.FitDictionary(dict);
    left_cols->AttachTfIdf(model);
    right_cols->AttachTfIdf(model);
  }
  const double lsh_cpu0 = CpuSeconds();
  {
    Scope s(rec, "data.lsh_block");
    r.lsh = std::make_unique<data::Workload>(data::MinHashLshBlock(
        tables.left, tables.right, *left_cols, *right_cols,
        data::MinHashLshOptions{}, text::IdSetMetric::kJaccard,
        kScoreThreshold));
  }
  r.lsh_cpu_s = CpuSeconds() - lsh_cpu0;
  const data::Workload& lsh = *r.lsh;
  out->Op(lsh.size() > 0, "records_crowd: LSH produced no candidates");

  std::optional<core::SubsetPartition> partition;
  {
    Scope s(rec, "core.partition");
    partition.emplace(&lsh, kSubsetSize);
  }
  r.cert = CertifyWithCrowd(lsh, *partition, crowd_options, rec, out);
  if (!r.cert.ok) return r;
  std::optional<entity::EntityClustering> clustering;
  {
    Scope s(rec, "entity.cluster");
    clustering.emplace(
        entity::EntityClustering::FromLabels(lsh, r.cert.labels));
  }
  r.wall_s = NowSeconds() - t0;

  // Output check: every match-labeled pair shares an entity.
  bool shared = r.cert.labels.size() == lsh.size();
  for (size_t i = 0; shared && i < lsh.size(); ++i) {
    if (r.cert.labels[i] != 1) continue;
    const auto a = clustering->EntityOf({0, lsh[i].left_id});
    const auto b = clustering->EntityOf({1, lsh[i].right_id});
    shared = a.has_value() && b.has_value() && *a == *b;
  }
  out->Op(shared, "records_crowd: a match-labeled pair spans two entities");
  r.entities = clustering->num_entities();
  return r;
}

/// FNV-1a over the labels: compares repetitions without keeping a copy.
uint64_t LabelsHash(const std::vector<int>& labels) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const int label : labels) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(label))) *
        0x100000001b3ULL;
  }
  return h;
}

core::CrowdOptions Crowd(uint64_t seed, uint64_t index) {
  core::CrowdOptions crowd;
  crowd.workers_per_pair = 3;
  crowd.worker_error_rate = kWorkerError;
  crowd.aggregation = core::CrowdAggregation::kDawidSkene;
  crowd.seed = DeriveSeed(seed, 100 + index);
  return crowd;
}

}  // namespace

void RunRecordsCrowd(const RunOptions& options, SpanRecorder* recorder,
                     Outcome* out) {
  data::ScaleTablesConfig tables_cfg;
  tables_cfg.groups = kGroups;
  tables_cfg.left_per_group = 8;
  tables_cfg.right_per_group = 8;
  tables_cfg.perturb_names = true;
  tables_cfg.perturbation = data::LightPerturbation();
  tables_cfg.seed = DeriveSeed(options.seed, 1);

  std::vector<double> setup_s;
  std::optional<data::ScaleTables> tables;
  while (MoreSetup(setup_s)) {
    tables.reset();
    const double t0 = NowSeconds();
    tables.emplace(data::GenerateScaleTables(tables_cfg));
    setup_s.push_back(NowSeconds() - t0);
  }

  RepSchedule schedule(options);
  std::vector<double> untraced_wall, traced_wall;
  double lsh_cpu = 0.0, samp_cpu = 0.0;
  std::optional<RepResult> last;
  uint64_t first_labels = 0;
  bool traced = false;
  while (schedule.Next(&traced)) {
    last.reset();
    schedule.StartRepetition();
    RepResult r = RunOnce(*tables, Crowd(options.seed, 0),
                          traced ? recorder : nullptr, out);
    if (!r.cert.ok) return;
    schedule.Done(r.wall_s);
    (traced ? traced_wall : untraced_wall).push_back(r.wall_s);
    if (traced) {
      lsh_cpu += r.lsh_cpu_s;
      samp_cpu += r.cert.samp_cpu_s;
    }
    const uint64_t labels = LabelsHash(r.cert.labels);
    if (schedule.untraced() + schedule.traced() == 1) {
      first_labels = labels;
    } else {
      out->Op(labels == first_labels,
              "records_crowd: a repetition changed the labels");
    }
    last = std::move(r);
  }

  // The remaining crowds, certified untimed on the same candidates.
  const data::Workload& lsh = *last->lsh;
  const core::SubsetPartition partition(&lsh, kSubsetSize);
  std::vector<double> cost, precision, recall;
  for (uint64_t k = 0; k < kCrowds; ++k) {
    const Certified c =
        k == 0 ? last->cert
               : CertifyWithCrowd(lsh, partition, Crowd(options.seed, k),
                                  nullptr, out);
    if (!c.ok) return;
    const eval::Quality quality = eval::QualityOf(lsh, c.labels);
    cost.push_back(static_cast<double>(c.human_cost));
    precision.push_back(quality.precision);
    recall.push_back(quality.recall);
  }

  const Certified& cert = last->cert;
  out->Set("setup_s", Median(setup_s));
  out->Set("wall_s", Median(untraced_wall));
  out->NoteSeries("untraced wall_s per repetition", untraced_wall);
  out->Set("peak_rss_mb", schedule.peak_rss_mb());
  out->NoteSeries("peak_rss_mb per repetition", schedule.rep_peak_rss_mb());
  out->Set("human_cost", Median(cost));
  out->NoteSeries("human_cost per crowd", cost);
  out->Set("precision", Median(precision));
  out->Set("recall", Median(recall));
  out->Set("crowd_tasks", static_cast<double>(cert.crowd.tasks_posted));
  out->notes.push_back(
      std::to_string(tables->left.size() + tables->right.size()) +
      " records, " + std::to_string(lsh.size()) + " LSH candidates, " +
      std::to_string(schedule.untraced()) + " untraced + " +
      std::to_string(schedule.traced()) + " traced repetitions, " +
      std::to_string(ThreadPool::Global()->num_threads()) + " pool threads");
  if (!options.trace) return;

  const double n = static_cast<double>(schedule.traced());
  out->Set("trace_overhead_frac",
           Median(traced_wall) / Median(untraced_wall) - 1.0);
  out->Set("common.pool_threads",
           static_cast<double>(ThreadPool::Global()->num_threads()));
  out->Set("data.columns_build_s",
           recorder->TotalSeconds("data.columns_build") / n);
  out->Set("text.tfidf_s", recorder->TotalSeconds("text.tfidf") / n);
  out->Set("data.lsh_block_s", recorder->TotalSeconds("data.lsh_block") / n);
  out->Set("data.lsh_cpu_s", lsh_cpu / n);
  out->Set("data.candidate_pairs", static_cast<double>(lsh.size()));
  out->Set("data.candidate_match_frac",
           static_cast<double>(lsh.CountMatches()) /
               static_cast<double>(lsh.size()));
  out->Set("core.partition_s", recorder->TotalSeconds("core.partition") / n);
  out->Set("core.samp_s", recorder->TotalSeconds("core.samp") / n);
  out->Set("core.samp_self_s", recorder->SelfSeconds("core.samp") / n);
  out->Set("core.samp_cpu_s", samp_cpu / n);
  out->Set("core.apply_s", recorder->TotalSeconds("core.apply") / n);
  SetEngineCounters(cert.cache, cert.oracle_requests, cert.oracle_duplicates,
                    out);
  out->Set("core.crowd_answer_s",
           recorder->TotalSeconds("core.crowd_answer") / n);
  out->Set("core.oracle_batches", static_cast<double>(cert.oracle_batches));
  out->Set("core.crowd.pairs_purchased",
           static_cast<double>(cert.crowd.pairs_purchased));
  out->Set("core.crowd.pairs_inferred",
           static_cast<double>(cert.crowd.pairs_inferred()));
  out->Set("core.crowd.worker_answers",
           static_cast<double>(cert.crowd.worker_answers));
  out->Set("core.crowd.inferred_frac",
           cert.crowd.pairs_answered() > 0
               ? static_cast<double>(cert.crowd.pairs_inferred()) /
                     static_cast<double>(cert.crowd.pairs_answered())
               : 0.0);
  out->Set("entity.cluster_s", recorder->TotalSeconds("entity.cluster") / n);
  out->Set("entity.entities", static_cast<double>(last->entities));
}

}  // namespace perfbench
