// Budget-to-guarantee curves with a TASK-denominated cost axis: the same
// SAMP / RISK certifications as bench_risk_vs_humo, but with every human
// question routed through the crowd task layer (core/crowd_tasks.h) —
// cluster-packed HITs over a simulated CrowdOracle, transitivity /
// anti-transitivity inference answering correlated pairs for free.
//
// Workloads:
//   DS / AB   the paper's Fig. 6 simulations. Their generators emit
//             degree-1 records (no two pairs share a record), so inference
//             finds nothing — the task-cost reduction there is pure HIT
//             packing, and the rows pin that packing alone clears the 20%
//             bar.
//   ENT       entity-graph workload (latent clusters, transitively
//             consistent truth, shared records): packing AND inference
//             both contribute, and the inferred-answer fraction is the
//             headline number.
//
// The bench CHECKS the contracts it advertises and exits nonzero on
// violation, so the committed BENCH_crowd.json cannot silently go stale:
//   - certified:        each run meets alpha = beta = theta = 0.9;
//   - tasks <= questions  (a HIT holds at least one pair);
//   - task_reduction >= 0.20 on every row (the acceptance bar — in
//     practice packing alone clears ~0.9);
//   - ENT inferred_fraction >= 0.20 under SAMP (full-DH certification,
//     where intra-cluster redundancy is actually inspected) and >= 0.10
//     under RISK (risk-ordered partial inspection buys fewer redundant
//     pairs by design, so less is inferable);
//   - thread_invariant: the full pipeline replays bit-identically at 1 and
//     4 threads (labels, counters, and crowd stats).
//
// Environment knobs (all optional):
//   HUMO_CROWD_BENCH_PAIRS_DS   DS size (default 20000; CI smoke 6000)
//   HUMO_CROWD_BENCH_PAIRS_AB   AB size (default 60000)
//   HUMO_CROWD_BENCH_PAIRS_ENT  ENT target size (default 20000)
//   HUMO_CROWD_TASK_CAPACITY    pairs per HIT (default 10)
//   HUMO_CROWD_WORKERS          workers per pair (default 3)
//   HUMO_CROWD_ERROR            per-worker error rate (default 0.0 — the
//                               guarantee contract assumes a crowd whose
//                               verdicts match the expert's)
//   HUMO_SEED                   sampling seed (default 1000)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;

namespace {

struct Row {
  std::string workload;
  std::string certifier;  // SAMP | RISK
  size_t pairs = 0;
  size_t questions = 0;  // oracle.cost(): distinct pairs asked of the human
  size_t tasks_posted = 0;
  size_t pairs_purchased = 0;
  size_t pairs_inferred = 0;
  size_t worker_answers = 0;
  double inferred_fraction = 0.0;
  double task_reduction = 0.0;  // 1 - tasks / questions
  double precision = 0.0;
  double recall = 0.0;
  bool certified = false;
  bool tasks_le_questions = false;
  bool thread_invariant = false;
};

struct RunOutcome {
  std::vector<int> labels;
  size_t questions = 0;
  double precision = 0.0;
  double recall = 0.0;
  bool ok = false;
  core::CrowdTaskStats stats;
};

bool SameOutcome(const RunOutcome& a, const RunOutcome& b) {
  return a.ok == b.ok && a.labels == b.labels && a.questions == b.questions &&
         a.precision == b.precision && a.recall == b.recall &&
         a.stats.tasks_posted == b.stats.tasks_posted &&
         a.stats.pairs_purchased == b.stats.pairs_purchased &&
         a.stats.pairs_inferred_match == b.stats.pairs_inferred_match &&
         a.stats.pairs_inferred_nonmatch == b.stats.pairs_inferred_nonmatch &&
         a.stats.worker_answers == b.stats.worker_answers;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_crowd — budget-to-guarantee with task-denominated crowd cost",
      "CrowdER-style HIT packing + transitive inference over the §IX crowd "
      "direction");

  const uint64_t seed = bench::BaseSeed();
  const size_t ds_pairs =
      static_cast<size_t>(GetEnvInt64("HUMO_CROWD_BENCH_PAIRS_DS", 20000));
  const size_t ab_pairs =
      static_cast<size_t>(GetEnvInt64("HUMO_CROWD_BENCH_PAIRS_AB", 60000));
  const size_t ent_pairs =
      static_cast<size_t>(GetEnvInt64("HUMO_CROWD_BENCH_PAIRS_ENT", 20000));
  const size_t capacity =
      static_cast<size_t>(GetEnvInt64("HUMO_CROWD_TASK_CAPACITY", 10));
  const double target = 0.9;
  const core::QualityRequirement req{target, target, target};

  core::CrowdOptions crowd_options;
  crowd_options.workers_per_pair =
      static_cast<size_t>(GetEnvInt64("HUMO_CROWD_WORKERS", 3));
  crowd_options.worker_error_rate = GetEnvDouble("HUMO_CROWD_ERROR", 0.0);

  std::vector<Row> rows;
  bool contract_ok = true;
  auto check = [&](bool ok, const char* what, const Row& r) {
    if (!ok) {
      std::fprintf(stderr, "CONTRACT VIOLATION: %s %s: %s\n",
                   r.workload.c_str(), r.certifier.c_str(), what);
      contract_ok = false;
    }
  };

  struct WorkloadSpec {
    std::string name;
    data::Workload workload;
    core::CrowdTaskOptions task_options;
  };
  std::vector<WorkloadSpec> specs;
  {
    core::CrowdTaskOptions two_table;
    two_table.task_capacity = capacity;
    specs.push_back({"DS",
                     data::SimulatePairs(data::DsConfigSmall(555, ds_pairs)),
                     two_table});
    specs.push_back({"AB",
                     data::SimulatePairs(data::AbConfigSmall(1234, ab_pairs)),
                     two_table});
    // ENT: one table, shared records — denser intra-entity redundancy than
    // the entity-layer default so transitive closure has edges to spend.
    data::EntityGraphConfig cfg = data::EntityGraphConfigForPairs(ent_pairs);
    cfg.extra_intra_fraction = 1.5;
    core::CrowdTaskOptions dedup = two_table;
    dedup.left_source = cfg.source;
    dedup.right_source = cfg.source;
    specs.push_back(
        {"ENT", std::move(data::GenerateEntityGraph(cfg).workload), dedup});
  }

  for (const WorkloadSpec& spec : specs) {
    const data::Workload& w = spec.workload;
    const core::SubsetPartition partition(&w, 200);
    std::printf("%s: %zu pairs, %zu matches, %zu subsets\n",
                spec.name.c_str(), w.size(), w.CountMatches(),
                partition.num_subsets());

    for (const char* certifier : {"SAMP", "RISK"}) {
      auto run = [&](size_t threads) -> RunOutcome {
        ThreadPool::SetGlobalThreads(threads);
        core::Oracle oracle(&w);
        core::CrowdOracle crowd(&w, crowd_options);
        core::CrowdTaskBroker broker(&w, &crowd, spec.task_options);
        oracle.SetAnswerProvider(broker.Provider());

        RunOutcome out;
        std::vector<int> labels;
        if (certifier[0] == 'S') {
          core::PartialSamplingOptions opts;
          opts.seed = seed;
          auto sol = core::PartialSamplingOptimizer(opts).Optimize(
              partition, req, &oracle);
          if (!sol.ok()) return out;
          labels = core::ApplySolution(partition, *sol, &oracle).labels;
        } else {
          core::RiskAwareOptions ro;
          ro.sampling.seed = seed;
          auto res =
              core::RiskAwareOptimizer(ro).Resolve(partition, req, &oracle);
          if (!res.ok()) return out;
          labels = std::move(res->resolution.labels);
        }
        const eval::Quality q = eval::QualityOf(w, labels);
        out.labels = std::move(labels);
        out.questions = oracle.cost();
        out.precision = q.precision;
        out.recall = q.recall;
        out.stats = broker.stats();
        out.ok = true;
        return out;
      };

      const RunOutcome serial = run(1);
      const RunOutcome parallel = run(4);
      ThreadPool::SetGlobalThreads(0);

      Row r;
      r.workload = spec.name;
      r.certifier = certifier;
      r.pairs = w.size();
      r.questions = serial.questions;
      r.tasks_posted = serial.stats.tasks_posted;
      r.pairs_purchased = serial.stats.pairs_purchased;
      r.pairs_inferred = serial.stats.pairs_inferred();
      r.worker_answers = serial.stats.worker_answers;
      r.inferred_fraction =
          serial.stats.pairs_answered() == 0
              ? 0.0
              : static_cast<double>(r.pairs_inferred) /
                    static_cast<double>(serial.stats.pairs_answered());
      r.task_reduction =
          r.questions == 0 ? 0.0
                           : 1.0 - static_cast<double>(r.tasks_posted) /
                                       static_cast<double>(r.questions);
      r.precision = serial.precision;
      r.recall = serial.recall;
      r.certified = serial.ok && serial.precision >= target &&
                    serial.recall >= target;
      r.tasks_le_questions = r.tasks_posted <= r.questions;
      r.thread_invariant = SameOutcome(serial, parallel);
      rows.push_back(r);

      check(serial.ok, "run failed to certify a solution", r);
      check(r.certified, "quality guarantee missed", r);
      check(r.tasks_le_questions, "tasks exceed questions", r);
      check(r.task_reduction >= 0.20, "task reduction under 20%", r);
      if (spec.name == "ENT") {
        const double floor = r.certifier == "SAMP" ? 0.20 : 0.10;
        check(r.inferred_fraction >= floor, "inferred fraction under floor",
              r);
      }
      check(r.thread_invariant, "thread-count variance", r);
    }
  }

  std::printf("\n%-4s %-5s %8s %9s %7s %9s %9s %8s %8s %8s %8s\n", "wl",
              "cert", "pairs", "questions", "tasks", "purchased", "inferred",
              "inf_frac", "reduct", "prec", "recall");
  for (const Row& r : rows) {
    std::printf(
        "%-4s %-5s %8zu %9zu %7zu %9zu %9zu %8.4f %8.4f %8.4f %8.4f\n",
        r.workload.c_str(), r.certifier.c_str(), r.pairs, r.questions,
        r.tasks_posted, r.pairs_purchased, r.pairs_inferred,
        r.inferred_fraction, r.task_reduction, r.precision, r.recall);
  }

  std::vector<bench::JsonFields> json_rows;
  for (const Row& r : rows) {
    bench::JsonFields& f = json_rows.emplace_back();
    f.emplace_back("workload", r.workload);
    f.emplace_back("certifier", r.certifier);
    f.emplace_back("pairs", r.pairs);
    f.emplace_back("questions", r.questions);
    f.emplace_back("tasks_posted", r.tasks_posted);
    f.emplace_back("pairs_purchased", r.pairs_purchased);
    f.emplace_back("pairs_inferred", r.pairs_inferred);
    f.emplace_back("worker_answers", r.worker_answers);
    f.emplace_back("inferred_fraction", r.inferred_fraction, "%.6f");
    f.emplace_back("task_reduction", r.task_reduction, "%.6f");
    f.emplace_back("precision", r.precision, "%.6f");
    f.emplace_back("recall", r.recall, "%.6f");
    f.emplace_back("certified", r.certified);
    f.emplace_back("tasks_le_questions", r.tasks_le_questions);
    f.emplace_back("thread_invariant", r.thread_invariant);
  }
  bench::JsonFields head;
  head.emplace_back("bench", "crowd");
  head.emplace_back("alpha", target, "%g");
  head.emplace_back("beta", target, "%g");
  head.emplace_back("theta", target, "%g");
  head.emplace_back("task_capacity", capacity);
  head.emplace_back("workers_per_pair", crowd_options.workers_per_pair);
  head.emplace_back("worker_error_rate", crowd_options.worker_error_rate, "%g");
  if (!bench::WriteBenchJson("crowd", head, json_rows)) return 1;

  if (!contract_ok) {
    std::fprintf(stderr, "crowd bench contract violated; see above\n");
    return 1;
  }
  return 0;
}
