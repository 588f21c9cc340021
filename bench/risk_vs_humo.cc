// Budget-to-guarantee comparison of the risk-aware optimizer against the
// paper's optimizers: for each quality target alpha = beta on the simulated
// DS and AB workloads, how much human budget does each approach spend to
// reach the guarantee, and does the achieved quality meet it?
//
//   BASE       monotonicity search (§V), full DH inspection
//   SAMP       partial sampling + GP bounds (§VI), full DH inspection
//   HYBR       hybrid re-extension (§VII), full DH inspection
//   RISK       SAMP's DH, risk-ordered PARTIAL inspection (r-HUMO-style)
//   HYBR_RISK  HYBR's range selection + risk-ordered partial inspection
//
// Results go to stdout and, machine-readably, to BENCH_risk.json in the
// working directory, the contract tools/check_bench_regression.py gates
// against the committed copy.
//
// The bench *checks* the contract it advertises — at every cell the
// risk-aware optimizer's mean cost must not exceed SAMP's (the two share
// the sampling phase; RISK can only skip DH inspections, never add any) —
// and exits nonzero on violation, so the committed JSON can't silently go
// stale. The strict "fewer inspections" claim at default sizes is asserted
// by tests/core/risk_aware_optimizer_test.cc.
//
// Environment knobs (all optional):
//   HUMO_RISK_BENCH_PAIRS_DS  DS workload size (default 20000; CI smoke 8000)
//   HUMO_RISK_BENCH_PAIRS_AB  AB workload size (default 60000)
//   HUMO_TRIALS               randomized trials per cell (default 5 here)
//   HUMO_SEED                 base sampling seed (default 1000)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;

namespace {

struct Cell {
  std::string workload;
  double alpha = 0.0;
  std::string optimizer;
  size_t trials = 0;
  double mean_cost_fraction = 0.0;
  double mean_precision = 0.0;
  double mean_recall = 0.0;
  double success_rate = 0.0;
  double mean_machine_labeled = 0.0;  // DH pairs left to the machine
};

struct Trial {
  double precision = 0.0, recall = 0.0, cost_fraction = 0.0;
  size_t machine_labeled = 0;
  bool ok = false;
};

Cell Summarize(const std::string& workload, double alpha,
               const std::string& optimizer, const std::vector<Trial>& ts,
               double target) {
  Cell c;
  c.workload = workload;
  c.alpha = alpha;
  c.optimizer = optimizer;
  c.trials = ts.size();
  size_t ok = 0;
  for (const Trial& t : ts) {
    c.mean_cost_fraction += t.cost_fraction;
    c.mean_precision += t.precision;
    c.mean_recall += t.recall;
    c.mean_machine_labeled += static_cast<double>(t.machine_labeled);
    if (t.ok && t.precision >= target && t.recall >= target) ++ok;
  }
  const double n = static_cast<double>(ts.size());
  c.mean_cost_fraction /= n;
  c.mean_precision /= n;
  c.mean_recall /= n;
  c.mean_machine_labeled /= n;
  c.success_rate = static_cast<double>(ok) / n;
  return c;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_risk_vs_humo — budget-to-guarantee curves, BASE/SAMP/HYBR vs "
      "risk-aware inspection",
      "r-HUMO (Hou et al.) risk-ordered inspection on the Fig. 6 workloads");

  const size_t trials = static_cast<size_t>(GetEnvInt64("HUMO_TRIALS", 5));
  const uint64_t base_seed = bench::BaseSeed();
  const size_t ds_pairs =
      static_cast<size_t>(GetEnvInt64("HUMO_RISK_BENCH_PAIRS_DS", 20000));
  const size_t ab_pairs =
      static_cast<size_t>(GetEnvInt64("HUMO_RISK_BENCH_PAIRS_AB", 60000));
  const std::vector<double> targets = {0.80, 0.85, 0.90, 0.95};
  const double theta = 0.9;

  std::vector<Cell> cells;
  bool contract_ok = true;

  for (const char* name : {"DS", "AB"}) {
    const bool is_ds = name[0] == 'D';
    const data::Workload w = data::SimulatePairs(
        is_ds ? data::DsConfigSmall(555, ds_pairs)
              : data::AbConfigSmall(1234, ab_pairs));
    core::SubsetPartition partition(&w, 200);
    std::printf("%s: %zu pairs, %zu matches, %zu subsets\n", name, w.size(),
                w.CountMatches(), partition.num_subsets());

    for (double target : targets) {
      const core::QualityRequirement req{target, target, theta};

      auto run_classic = [&](const char* label,
                             const eval::OptimizerFn& fn) -> Trial {
        core::Oracle oracle(&w);
        Trial t;
        auto sol = fn(partition, req, &oracle);
        if (!sol.ok()) return t;
        const auto res = core::ApplySolution(partition, *sol, &oracle);
        const auto q = eval::QualityOf(w, res.labels);
        t.precision = q.precision;
        t.recall = q.recall;
        t.cost_fraction = oracle.CostFraction();
        t.ok = true;
        (void)label;
        return t;
      };

      // BASE is deterministic — one trial.
      cells.push_back(Summarize(
          name, target, "BASE", {run_classic("BASE", bench::MakeBase())},
          target));

      std::vector<Trial> samp, hybr, risk, hybr_risk;
      for (size_t t = 0; t < trials; ++t) {
        const uint64_t seed = base_seed + t;
        samp.push_back(run_classic("SAMP", bench::MakeSamp(seed)));
        hybr.push_back(run_classic("HYBR", bench::MakeHybr(seed)));
        {
          core::Oracle oracle(&w);
          core::RiskAwareOptions ro;
          ro.sampling.seed = seed;
          Trial tr;
          auto out = core::RiskAwareOptimizer(ro).Resolve(partition, req,
                                                          &oracle);
          if (out.ok()) {
            const auto q = eval::QualityOf(w, out->resolution.labels);
            tr.precision = q.precision;
            tr.recall = q.recall;
            tr.cost_fraction = oracle.CostFraction();
            tr.machine_labeled = out->inspection.pairs_machine_labeled;
            tr.ok = true;
          }
          risk.push_back(tr);
        }
        {
          core::Oracle oracle(&w);
          core::HybridOptions ho;
          ho.sampling.seed = seed;
          Trial tr;
          auto out = core::HybridOptimizer(ho).OptimizeRiskAware(partition,
                                                                 req, &oracle);
          if (out.ok()) {
            const auto q = eval::QualityOf(w, out->resolution.labels);
            tr.precision = q.precision;
            tr.recall = q.recall;
            tr.cost_fraction = oracle.CostFraction();
            tr.machine_labeled = out->inspection.pairs_machine_labeled;
            tr.ok = true;
          }
          hybr_risk.push_back(tr);
        }
      }
      cells.push_back(Summarize(name, target, "SAMP", samp, target));
      cells.push_back(Summarize(name, target, "HYBR", hybr, target));
      cells.push_back(Summarize(name, target, "RISK", risk, target));
      cells.push_back(Summarize(name, target, "HYBR_RISK", hybr_risk, target));

      // Contract: RISK shares SAMP's sampling phase and can only SKIP DH
      // inspections — its budget must never exceed SAMP's.
      const Cell& samp_cell = cells[cells.size() - 4];
      const Cell& risk_cell = cells[cells.size() - 2];
      if (risk_cell.mean_cost_fraction >
          samp_cell.mean_cost_fraction + 1e-12) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s alpha=%.2f RISK cost %.4f > "
                     "SAMP cost %.4f\n",
                     name, target, risk_cell.mean_cost_fraction,
                     samp_cell.mean_cost_fraction);
        contract_ok = false;
      }
    }
  }

  std::printf("\n%-4s %-6s %-10s %8s %8s %8s %8s %10s\n", "wl", "alpha",
              "optimizer", "cost", "prec", "recall", "succ", "machine");
  for (const Cell& c : cells) {
    std::printf("%-4s %-6.2f %-10s %8.4f %8.4f %8.4f %8.2f %10.0f\n",
                c.workload.c_str(), c.alpha, c.optimizer.c_str(),
                c.mean_cost_fraction, c.mean_precision, c.mean_recall,
                c.success_rate, c.mean_machine_labeled);
  }

  std::vector<bench::JsonFields> rows;
  for (const Cell& c : cells) {
    bench::JsonFields& f = rows.emplace_back();
    f.emplace_back("workload", c.workload);
    f.emplace_back("alpha", c.alpha, "%.2f");
    f.emplace_back("beta", c.alpha, "%.2f");
    f.emplace_back("optimizer", c.optimizer);
    f.emplace_back("trials", c.trials);
    f.emplace_back("mean_cost_fraction", c.mean_cost_fraction, "%.6f");
    f.emplace_back("mean_precision", c.mean_precision, "%.6f");
    f.emplace_back("mean_recall", c.mean_recall, "%.6f");
    f.emplace_back("success_rate", c.success_rate, "%.4f");
    f.emplace_back("mean_machine_labeled", c.mean_machine_labeled, "%.1f");
  }
  bench::JsonFields head;
  head.emplace_back("bench", "risk_vs_humo");
  head.emplace_back("theta", theta, "%g");
  head.emplace_back("trials", trials);
  if (!bench::WriteBenchJson("risk", head, rows)) return 1;

  if (!contract_ok) {
    std::fprintf(stderr, "risk-vs-humo contract violated; see above\n");
    return 1;
  }
  return 0;
}
