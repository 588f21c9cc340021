// Entity-layer bench: cluster-build throughput and transitivity repair on
// the synthetic entity graph at the million-pair scale preset. Unlike the
// DS/AB pair simulators (degree-1 records), the entity graph realizes a
// latent partition with multi-record entities, duplicate mentions, and
// cross-entity pairs — the workload shape where union-find clustering and
// the correlation-clustering repair actually have work to do.
//
// The bench *checks* the contracts it advertises and exits nonzero on any
// violation, so the committed BENCH_entities.json cannot silently go stale:
//   * exact_recovery — clustering the ground-truth labels recovers the
//     latent partition bit-for-bit (up to canonical renumbering);
//   * repaired_transitive — after RepairTransitivity the labels ARE a
//     clustering relation (zero disagreements against their own closure),
//     and repair never increased disagreements vs the noisy input;
//   * thread_invariant — clustering and repair checksums are identical
//     with the global pool pinned to 1 and to 4 threads;
//   * cluster-build throughput stays above HUMO_ENTITY_MPS_FLOOR (default
//     1.0 Mpairs/sec) — the committed baseline gates the real number at
//     20% tolerance in CI; the floor only catches catastrophic loss.
//
// Environment knobs (all optional):
//   HUMO_ENTITY_PAIRS      comma list of target pair counts
//                          (default "1000000" — the 1M-pair scale preset)
//   HUMO_ENTITY_REPS       clustering reps, best-of timing (default 3)
//   HUMO_ENTITY_NOISE      label flip fraction fed to repair (default 0.02
//                          — high enough that some conflict components have
//                          genuinely improving moves, so the baseline pins
//                          a repair that DOES something, not a no-op)
//   HUMO_ENTITY_MPS_FLOOR  minimum cluster Mpairs/sec (default 1.0)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;

namespace {

constexpr entity::ClusteringOptions kDedup{0, 0};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Row {
  size_t target_pairs = 0;
  size_t pairs = 0;
  size_t records = 0;
  size_t entities = 0;
  size_t noise_flips = 0;
  double cluster_ms = 0.0;  // best of HUMO_ENTITY_REPS
  double cluster_mpairs_per_sec = 0.0;
  double repair_ms = 0.0;
  size_t conflict_components = 0;
  size_t moves_applied = 0;
  size_t disagreements_before = 0;
  size_t disagreements_after = 0;
  bool exact_recovery = false;
  bool repaired_transitive = false;
  bool thread_invariant = false;
  double entity_precision = 0.0;
  double entity_recall = 0.0;
  double jaccard_agreement = 0.0;
};

/// Latent partition recovered exactly: same entity count and a consistent
/// latent->predicted bijection over every record.
bool RecoversLatentPartition(const data::EntityGraph& g,
                             const entity::EntityClustering& c) {
  if (c.num_records() != g.num_records) return false;
  if (c.num_entities() != g.num_entities) return false;
  std::vector<uint32_t> latent_to_predicted(g.num_entities, UINT32_MAX);
  for (uint32_t r = 0; r < g.num_records; ++r) {
    const auto predicted = c.EntityOf({0, r});
    if (!predicted.has_value()) return false;
    uint32_t& mapped = latent_to_predicted[g.entity_of_record[r]];
    if (mapped == UINT32_MAX) {
      mapped = *predicted;
    } else if (mapped != *predicted) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_entities — union-find clustering and transitivity repair on "
      "the latent entity graph",
      "ISSUE 8 entity contracts: exact recovery, transitive closure, "
      "thread-count invariance");

  const std::string pairs_list = GetEnvString("HUMO_ENTITY_PAIRS", "1000000");
  const size_t reps = static_cast<size_t>(GetEnvInt64("HUMO_ENTITY_REPS", 3));
  const double noise = GetEnvDouble("HUMO_ENTITY_NOISE", 0.02);
  const double mps_floor = GetEnvDouble("HUMO_ENTITY_MPS_FLOOR", 1.0);

  std::vector<Row> rows;
  bool contract_ok = true;

  for (const std::string& token : SplitAny(pairs_list, ", ")) {
    const size_t target = static_cast<size_t>(std::stoull(token));
    const data::EntityGraphConfig config =
        data::EntityGraphConfigForPairs(target, bench::BaseSeed());
    const data::EntityGraph g = data::GenerateEntityGraph(config);
    const std::vector<int> truth_labels = g.workload.GroundTruthLabels();
    const std::vector<int> noisy =
        data::NoisyLabels(g.workload, noise, bench::BaseSeed() ^ 0xA5A5);

    Row row;
    row.target_pairs = target;
    row.pairs = g.workload.size();
    row.records = g.num_records;
    row.entities = g.num_entities;
    for (size_t i = 0; i < noisy.size(); ++i) {
      if (noisy[i] != truth_labels[i]) ++row.noise_flips;
    }
    std::printf("entity graph: %zu pairs (target %zu), %zu records, "
                "%zu entities, %zu noisy flips\n",
                row.pairs, target, row.records, row.entities,
                row.noise_flips);

    // --- Cluster-build throughput: best of `reps` over the truth labels.
    entity::EntityClustering truth_clusters;
    for (size_t rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      entity::EntityClustering c =
          entity::EntityClustering::FromLabels(g.workload, truth_labels,
                                               kDedup);
      const double ms = MsSince(start);
      if (rep == 0 || ms < row.cluster_ms) row.cluster_ms = ms;
      truth_clusters = std::move(c);
    }
    row.cluster_mpairs_per_sec =
        row.cluster_ms > 0.0
            ? static_cast<double>(row.pairs) / (row.cluster_ms * 1e3)
            : 0.0;
    row.exact_recovery = RecoversLatentPartition(g, truth_clusters);

    // --- Transitivity repair over the noisy labels.
    const auto repair_start = std::chrono::steady_clock::now();
    const entity::RepairResult repaired =
        entity::RepairTransitivity(g.workload, noisy, kDedup);
    row.repair_ms = MsSince(repair_start);
    row.conflict_components = repaired.stats.conflict_components;
    row.moves_applied = repaired.stats.moves_applied;
    row.disagreements_before = repaired.stats.disagreements_before;
    row.disagreements_after = repaired.stats.disagreements_after;
    row.repaired_transitive =
        entity::CountDisagreements(g.workload, repaired.labels,
                                   repaired.clustering, kDedup) == 0 &&
        row.disagreements_after <= row.disagreements_before;

    // --- Thread-count invariance: pool pinned to 1 vs 4 threads must give
    // bit-identical clustering AND repair results.
    uint64_t cluster_checksum[2] = {0, 0};
    uint64_t repair_checksum[2] = {0, 0};
    const size_t thread_counts[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
      ThreadPool::SetGlobalThreads(thread_counts[t]);
      cluster_checksum[t] =
          entity::EntityClustering::FromLabels(g.workload, truth_labels,
                                               kDedup)
              .Checksum();
      repair_checksum[t] =
          entity::RepairTransitivity(g.workload, noisy, kDedup)
              .clustering.Checksum();
    }
    ThreadPool::SetGlobalThreads(0);  // restore the default pool
    row.thread_invariant = cluster_checksum[0] == cluster_checksum[1] &&
                           repair_checksum[0] == repair_checksum[1] &&
                           repair_checksum[0] ==
                               repaired.clustering.Checksum();

    // --- Entity-level quality of the repaired clustering (informational;
    // the exact contract fields above already pin determinism).
    const entity::EntityClustering truth =
        eval::TruthClustering(g.workload, kDedup);
    const eval::EntityQuality quality =
        eval::EntityQualityOf(truth, repaired.clustering);
    row.entity_precision = quality.precision;
    row.entity_recall = quality.recall;
    row.jaccard_agreement = eval::JaccardAgreement(truth, repaired.clustering);

    if (!row.exact_recovery) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: truth-label clustering does not "
                   "recover the latent partition\n");
      contract_ok = false;
    }
    if (!row.repaired_transitive) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: repair left an inconsistent "
                   "labeling (before=%zu after=%zu)\n",
                   row.disagreements_before, row.disagreements_after);
      contract_ok = false;
    }
    if (!row.thread_invariant) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: clustering/repair not bit-identical "
                   "across thread counts\n");
      contract_ok = false;
    }
    if (row.cluster_mpairs_per_sec < mps_floor) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: %.2f Mpairs/sec below the %.2f "
                   "floor\n",
                   row.cluster_mpairs_per_sec, mps_floor);
      contract_ok = false;
    }
    rows.push_back(row);
  }

  std::printf("\n%9s %9s %9s %8s %10s %9s %7s %7s %6s %6s %6s\n", "pairs",
              "records", "entities", "clust_ms", "Mpairs/s", "repair_ms",
              "dis_in", "dis_out", "exact", "trans", "thrd");
  for (const Row& r : rows) {
    std::printf("%9zu %9zu %9zu %8.1f %10.2f %9.1f %7zu %7zu %6s %6s %6s\n",
                r.pairs, r.records, r.entities, r.cluster_ms,
                r.cluster_mpairs_per_sec, r.repair_ms,
                r.disagreements_before, r.disagreements_after,
                r.exact_recovery ? "yes" : "no",
                r.repaired_transitive ? "yes" : "no",
                r.thread_invariant ? "yes" : "no");
  }

  std::vector<bench::JsonFields> json_rows;
  for (const Row& r : rows) {
    bench::JsonFields& f = json_rows.emplace_back();
    f.emplace_back("pairs", r.pairs);
    f.emplace_back("records", r.records);
    f.emplace_back("entities", r.entities);
    f.emplace_back("noise_flips", r.noise_flips);
    f.emplace_back("cluster_ms", r.cluster_ms, "%.2f");
    f.emplace_back("cluster_mpairs_per_sec", r.cluster_mpairs_per_sec, "%.2f");
    f.emplace_back("repair_ms", r.repair_ms, "%.2f");
    f.emplace_back("conflict_components", r.conflict_components);
    f.emplace_back("moves_applied", r.moves_applied);
    f.emplace_back("disagreements_before", r.disagreements_before);
    f.emplace_back("disagreements_after", r.disagreements_after);
    f.emplace_back("exact_recovery", r.exact_recovery);
    f.emplace_back("repaired_transitive", r.repaired_transitive);
    f.emplace_back("thread_invariant", r.thread_invariant);
    f.emplace_back("entity_precision", r.entity_precision, "%.6f");
    f.emplace_back("entity_recall", r.entity_recall, "%.6f");
    f.emplace_back("jaccard_agreement", r.jaccard_agreement, "%.6f");
  }
  bench::JsonFields head;
  head.emplace_back("bench", "entities");
  head.emplace_back("noise", noise, "%g");
  head.emplace_back("reps", reps);
  if (!bench::WriteBenchJson("entities", head, json_rows)) return 1;

  if (!contract_ok) {
    std::fprintf(stderr, "entity contracts violated; see above\n");
    return 1;
  }
  std::printf("entity contracts OK\n");
  return 0;
}
