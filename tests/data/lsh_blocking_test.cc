#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "data/blocking.h"
#include "data/record_columns.h"
#include "data/scale_generator.h"
#include "text/token_similarity.h"

namespace humo::data {
namespace {

double NameScorer(const Record& a, const Record& b) {
  return text::JaccardSimilarity(a.attributes[1], b.attributes[1]);
}

ScaleTables PerturbedTables(size_t groups) {
  ScaleTablesConfig config;
  config.groups = groups;
  config.left_per_group = 8;
  config.right_per_group = 8;
  config.match_fraction = 0.05;
  config.perturb_names = true;
  config.perturbation = LightPerturbation();
  return GenerateScaleTables(config);
}

/// 64-bit FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

uint64_t CandidateChecksum(const LshCandidates& c) {
  uint64_t h = Fnv1a(kFnvBasis, c.left.data(),
                     c.left.size() * sizeof(uint32_t));
  return Fnv1a(h, c.right.data(), c.right.size() * sizeof(uint32_t));
}

/// Checksum of every (left_id, right_id, similarity bits, label) in order.
uint64_t WorkloadChecksum(const Workload& w) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < w.size(); ++i) {
    const uint32_t l = w.left_ids()[i];
    const uint32_t r = w.right_ids()[i];
    uint64_t bits = 0;
    std::memcpy(&bits, &w.similarities()[i], sizeof(bits));
    const uint8_t label = w.match_labels()[i];
    h = Fnv1a(h, &l, sizeof(l));
    h = Fnv1a(h, &r, sizeof(r));
    h = Fnv1a(h, &bits, sizeof(bits));
    h = Fnv1a(h, &label, sizeof(label));
  }
  return h;
}

/// The default options and one non-default band/row/probe shape.
std::vector<MinHashLshOptions> GoldenOptions() {
  MinHashLshOptions narrow;
  narrow.bands = 8;
  narrow.rows = 3;
  narrow.probes = 3;
  return {MinHashLshOptions{}, narrow};
}

/// Matched (left id, right id) pairs of a workload.
std::set<std::pair<uint32_t, uint32_t>> MatchedPairs(const Workload& w) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w.IsMatch(i)) out.insert({w[i].left_id, w[i].right_id});
  }
  return out;
}

TEST(MinHashLshBlockTest, RecallAgainstExactTokenBlock) {
  const ScaleTables tables = PerturbedTables(/*groups=*/96);
  constexpr double kThreshold = 0.2;

  // Exact baseline: token blocking on the group key retains every in-group
  // pair above the scoring threshold.
  const Workload exact =
      TokenBlock(tables.left, tables.right, 0, NameScorer, kThreshold);
  const auto exact_matches = MatchedPairs(exact);
  ASSERT_FALSE(exact_matches.empty());

  const Workload lsh =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{},
                      kThreshold);
  const auto lsh_matches = MatchedPairs(lsh);
  size_t retained = 0;
  for (const auto& p : exact_matches) retained += lsh_matches.count(p);
  const double recall =
      static_cast<double>(retained) / static_cast<double>(exact_matches.size());
  EXPECT_GE(recall, 0.95) << retained << "/" << exact_matches.size();
}

TEST(MinHashLshBlockTest, ScoresMatchStringJaccardBitwise) {
  const ScaleTables tables = PerturbedTables(/*groups=*/24);
  const Workload lsh =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{}, 0.2);
  ASSERT_GT(lsh.size(), 0u);
  for (size_t i = 0; i < lsh.size(); ++i) {
    const InstancePair p = lsh[i];
    EXPECT_EQ(p.similarity, NameScorer(tables.left[p.left_id],
                                       tables.right[p.right_id]))
        << "pair " << i;
  }
}

TEST(MinHashLshBlockTest, BitIdenticalAcrossThreadCounts) {
  const ScaleTables tables = PerturbedTables(/*groups=*/48);
  ThreadPool::SetGlobalThreads(1);
  const Workload w1 =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{}, 0.2);
  ThreadPool::SetGlobalThreads(4);
  const Workload w4 =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{}, 0.2);
  ThreadPool::SetGlobalThreads(0);
  ASSERT_EQ(w1.size(), w4.size());
  EXPECT_EQ(w1.similarities(), w4.similarities());
  EXPECT_EQ(w1.left_ids(), w4.left_ids());
  EXPECT_EQ(w1.right_ids(), w4.right_ids());
  EXPECT_EQ(w1.match_labels(), w4.match_labels());
}

TEST(MinHashLshCandidatesTest, CandidatesDeterministicAcrossThreadCounts) {
  const ScaleTables tables = PerturbedTables(/*groups=*/48);
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(tables.left, 1, &dict);
  const RecordColumns right = RecordColumns::Build(tables.right, 1, &dict);
  ThreadPool::SetGlobalThreads(1);
  const LshCandidates c1 = MinHashLshCandidates(left, right,
                                                MinHashLshOptions{});
  ThreadPool::SetGlobalThreads(4);
  const LshCandidates c4 = MinHashLshCandidates(left, right,
                                                MinHashLshOptions{});
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(c1.left, c4.left);
  EXPECT_EQ(c1.right, c4.right);
}

// The expected sizes and checksums were computed with the earlier
// hash-map bucket index, before the flat sorted per-band index replaced
// it: they pin that the index layout does not change a single candidate.
TEST(MinHashLshCandidatesTest, GoldenCandidateStream) {
  const ScaleTables tables = PerturbedTables(/*groups=*/512);
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(tables.left, 1, &dict);
  const RecordColumns right = RecordColumns::Build(tables.right, 1, &dict);
  const std::vector<MinHashLshOptions> options = GoldenOptions();
  const size_t kSizes[] = {1772u, 1609u};
  const uint64_t kChecksums[] = {0x341674C96156D006ULL, 0x0E749A3C4BA480E5ULL};
  for (size_t i = 0; i < options.size(); ++i) {
    const LshCandidates c = MinHashLshCandidates(left, right, options[i]);
    ASSERT_EQ(c.left.size(), c.right.size());
    EXPECT_EQ(c.left.size(), kSizes[i]) << "options " << i;
    EXPECT_EQ(CandidateChecksum(c), kChecksums[i])
        << "options " << i << " checksum 0x" << std::hex
        << CandidateChecksum(c);
  }
}

TEST(MinHashLshCandidatesTest, MoreProbesNeverLoseCandidates) {
  const ScaleTables tables = PerturbedTables(/*groups=*/24);
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(tables.left, 1, &dict);
  const RecordColumns right = RecordColumns::Build(tables.right, 1, &dict);
  MinHashLshOptions one_probe;
  one_probe.probes = 1;
  MinHashLshOptions three_probes;
  three_probes.probes = 3;
  const LshCandidates few = MinHashLshCandidates(left, right, one_probe);
  const LshCandidates many = MinHashLshCandidates(left, right, three_probes);
  EXPECT_GE(many.left.size(), few.left.size());
  std::set<std::pair<uint32_t, uint32_t>> many_set;
  for (size_t i = 0; i < many.left.size(); ++i) {
    many_set.insert({many.left[i], many.right[i]});
  }
  for (size_t i = 0; i < few.left.size(); ++i) {
    EXPECT_TRUE(many_set.count({few.left[i], few.right[i]}))
        << "probe-1 candidate " << i << " lost at probes=3";
  }
}

// Expected values computed with the earlier hash-map bucket index, as for
// GoldenCandidateStream above.
TEST(MinHashLshBlockTest, GoldenWorkload) {
  const ScaleTables tables = PerturbedTables(/*groups=*/512);
  const std::vector<MinHashLshOptions> options = GoldenOptions();
  const size_t kSizes[] = {1771u, 1609u};
  const uint64_t kChecksums[] = {0xF7B2B7B80F9149EDULL, 0x8FFA4530F3AEF352ULL};
  for (size_t i = 0; i < options.size(); ++i) {
    const Workload w =
        MinHashLshBlock(tables.left, tables.right, 1, options[i], 0.2);
    EXPECT_EQ(w.size(), kSizes[i]) << "options " << i;
    EXPECT_EQ(WorkloadChecksum(w), kChecksums[i])
        << "options " << i << " checksum 0x" << std::hex
        << WorkloadChecksum(w);
  }
}

TEST(MinHashLshBlockTest, EmptyTablesAndEmptyValues) {
  RecordTable left({"key", "name"});
  RecordTable right({"key", "name"});
  // Empty tables: empty workload.
  const Workload empty =
      MinHashLshBlock(left, right, 1, MinHashLshOptions{}, 0.1);
  EXPECT_EQ(empty.size(), 0u);

  // Records with empty token sets never enter buckets (and never pair).
  ASSERT_TRUE(left.Add({0, 0, {"k", ""}}).ok());
  ASSERT_TRUE(left.Add({1, 1, {"k", "solid name"}}).ok());
  ASSERT_TRUE(right.Add({0, 0, {"k", ""}}).ok());
  ASSERT_TRUE(right.Add({1, 1, {"k", "solid name"}}).ok());
  const Workload w =
      MinHashLshBlock(left, right, 1, MinHashLshOptions{}, 0.1);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NE(w[i].left_id, 0u);
    EXPECT_NE(w[i].right_id, 0u);
  }
  // The identical non-empty names must collide in every band.
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].similarity, 1.0);
}

TEST(MinHashLshBlockTest, SingletonAndAllIdenticalTables) {
  RecordTable left({"key", "name"});
  RecordTable right({"key", "name"});
  ASSERT_TRUE(left.Add({0, 7, {"k", "lonely record"}}).ok());
  ASSERT_TRUE(right.Add({0, 7, {"k", "lonely record"}}).ok());
  const Workload single =
      MinHashLshBlock(left, right, 1, MinHashLshOptions{}, 0.5);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].is_match);

  RecordTable lmany({"key", "name"});
  RecordTable rmany({"key", "name"});
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(lmany.Add({i, i, {"k", "same exact words"}}).ok());
    ASSERT_TRUE(rmany.Add({i, i, {"k", "same exact words"}}).ok());
  }
  // All-identical: every record shares every bucket; full cross product.
  const Workload all =
      MinHashLshBlock(lmany, rmany, 1, MinHashLshOptions{}, 0.5);
  EXPECT_EQ(all.size(), 20u * 20u);
}

TEST(MinHashLshBlockTest, SeedChangesBucketsButDeterministically) {
  const ScaleTables tables = PerturbedTables(/*groups=*/16);
  MinHashLshOptions a;
  MinHashLshOptions b;
  b.seed = 0xDEADBEEFULL;
  const Workload wa1 =
      MinHashLshBlock(tables.left, tables.right, 1, a, 0.2);
  const Workload wa2 =
      MinHashLshBlock(tables.left, tables.right, 1, a, 0.2);
  // Same options: bit-identical reruns.
  EXPECT_EQ(wa1.similarities(), wa2.similarities());
  EXPECT_EQ(wa1.left_ids(), wa2.left_ids());
  const Workload wb = MinHashLshBlock(tables.left, tables.right, 1, b, 0.2);
  // A different seed is a different hash family; output remains a valid
  // workload (sorted, same scoring) even if the candidate set differs.
  for (size_t i = 1; i < wb.size(); ++i) {
    EXPECT_LE(wb.Similarity(i - 1), wb.Similarity(i));
  }
}

TEST(IdPathBlockersTest, ThresholdBlockIdPathMatchesStringPath) {
  const ScaleTables tables = PerturbedTables(/*groups=*/8);
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(tables.left, 1, &dict);
  const RecordColumns right = RecordColumns::Build(tables.right, 1, &dict);
  const Workload via_strings =
      ThresholdBlock(tables.left, tables.right, NameScorer, 0.3);
  const Workload via_ids =
      ThresholdBlock(tables.left, tables.right, left, right,
                     text::IdSetMetric::kJaccard, 0.3);
  ASSERT_EQ(via_strings.size(), via_ids.size());
  EXPECT_EQ(via_strings.similarities(), via_ids.similarities());
  EXPECT_EQ(via_strings.left_ids(), via_ids.left_ids());
  EXPECT_EQ(via_strings.right_ids(), via_ids.right_ids());
  EXPECT_EQ(via_strings.match_labels(), via_ids.match_labels());
}

TEST(IdPathBlockersTest, SortedNeighborhoodIdPathMatchesStringPath) {
  const ScaleTables tables = PerturbedTables(/*groups=*/8);
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(tables.left, 1, &dict);
  const RecordColumns right = RecordColumns::Build(tables.right, 1, &dict);
  const Workload via_strings = SortedNeighborhoodBlock(
      tables.left, tables.right, 0, /*window=*/10, NameScorer, 0.3);
  const Workload via_ids = SortedNeighborhoodBlock(
      tables.left, tables.right, left, right, 0, /*window=*/10,
      text::IdSetMetric::kJaccard, 0.3);
  ASSERT_EQ(via_strings.size(), via_ids.size());
  EXPECT_EQ(via_strings.similarities(), via_ids.similarities());
  EXPECT_EQ(via_strings.left_ids(), via_ids.left_ids());
  EXPECT_EQ(via_strings.right_ids(), via_ids.right_ids());
  EXPECT_EQ(via_strings.match_labels(), via_ids.match_labels());
}

}  // namespace
}  // namespace humo::data
