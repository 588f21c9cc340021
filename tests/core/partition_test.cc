#include "core/partition.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/logistic_generator.h"

namespace humo::core {
namespace {

data::Workload UniformWorkload(size_t n) {
  std::vector<data::InstancePair> pairs;
  for (uint32_t i = 0; i < n; ++i) {
    pairs.push_back(
        {i, i, static_cast<double>(i) / static_cast<double>(n), false});
  }
  return data::Workload(std::move(pairs));
}

TEST(PartitionTest, EqualSubsetSizes) {
  const data::Workload w = UniformWorkload(1000);
  SubsetPartition p(&w, 100);
  EXPECT_EQ(p.num_subsets(), 10u);
  for (size_t k = 0; k < 10; ++k) EXPECT_EQ(p[k].size(), 100u);
}

TEST(PartitionTest, LastSubsetAbsorbsRemainder) {
  const data::Workload w = UniformWorkload(1050);
  SubsetPartition p(&w, 100);
  EXPECT_EQ(p.num_subsets(), 10u);
  EXPECT_EQ(p[9].size(), 150u);
}

TEST(PartitionTest, FewerPairsThanSubsetSize) {
  const data::Workload w = UniformWorkload(30);
  SubsetPartition p(&w, 100);
  EXPECT_EQ(p.num_subsets(), 1u);
  EXPECT_EQ(p[0].size(), 30u);
}

TEST(PartitionTest, SubsetsAreContiguousAndCoverAll) {
  const data::Workload w = UniformWorkload(777);
  SubsetPartition p(&w, 50);
  size_t expected_begin = 0;
  for (size_t k = 0; k < p.num_subsets(); ++k) {
    EXPECT_EQ(p[k].begin, expected_begin);
    expected_begin = p[k].end;
  }
  EXPECT_EQ(expected_begin, w.size());
}

TEST(PartitionTest, AvgSimilaritiesAreMonotone) {
  const data::Workload w = UniformWorkload(1000);
  SubsetPartition p(&w, 100);
  for (size_t k = 1; k < p.num_subsets(); ++k) {
    EXPECT_GT(p[k].avg_similarity, p[k - 1].avg_similarity);
  }
}

TEST(PartitionTest, AvgSimilarityValue) {
  const data::Workload w = UniformWorkload(10);
  SubsetPartition p(&w, 5);
  // First subset holds similarities 0.0..0.4: mean 0.2.
  EXPECT_NEAR(p[0].avg_similarity, 0.2, 1e-9);
}

TEST(PartitionTest, AveragesBitIdenticalToSerialSumAtScale) {
  // bench_scale's partition check in small: the interleaved multi-chain
  // Rebuild must reproduce a plain left-to-right sum per subset bit for
  // bit, with the pool fanning out and a remainder in the last subset.
  Rng rng(77);
  std::vector<data::InstancePair> pairs;
  for (uint32_t i = 0; i < 100'037; ++i) {
    pairs.push_back({i, i, rng.NextDouble(), false});
  }
  const data::Workload w(std::move(pairs));
  ThreadPool::SetGlobalThreads(4);
  const SubsetPartition p(&w, 200);
  ThreadPool::SetGlobalThreads(0);
  ASSERT_EQ(p.num_subsets(), w.size() / 200);
  for (size_t k = 0; k < p.num_subsets(); ++k) {
    double acc = 0.0;
    for (size_t i = p[k].begin; i < p[k].end; ++i) acc += w.Similarity(i);
    EXPECT_EQ(p[k].avg_similarity, acc / static_cast<double>(p[k].size()))
        << "subset " << k;
  }
}

TEST(PartitionTest, PairsInRange) {
  const data::Workload w = UniformWorkload(1000);
  SubsetPartition p(&w, 100);
  EXPECT_EQ(p.PairsInRange(0, 9), 1000u);
  EXPECT_EQ(p.PairsInRange(2, 4), 300u);
  EXPECT_EQ(p.PairsInRange(5, 5), 100u);
  EXPECT_EQ(p.PairsInRange(7, 3), 0u);  // inverted range
}

TEST(PartitionTest, EmptyWorkload) {
  const data::Workload w;
  SubsetPartition p(&w, 100);
  EXPECT_EQ(p.num_subsets(), 0u);
}

void ExpectBitwiseEqual(const SubsetPartition& a, const SubsetPartition& b) {
  ASSERT_EQ(a.num_subsets(), b.num_subsets());
  for (size_t k = 0; k < a.num_subsets(); ++k) {
    EXPECT_EQ(a[k].begin, b[k].begin) << k;
    EXPECT_EQ(a[k].end, b[k].end) << k;
    EXPECT_EQ(a[k].avg_similarity, b[k].avg_similarity) << k;
  }
}

TEST(PartitionRebuildTest, RebuildMatchesFreshConstructionAfterInteriorMerge) {
  Rng rng(31);
  for (int rep = 0; rep < 10; ++rep) {
    data::Workload w = UniformWorkload(400 + rep * 57);
    SubsetPartition p(&w, 100);
    std::vector<data::InstancePair> extra;
    for (uint32_t i = 0; i < 150; ++i) {
      extra.push_back({5000 + i, i, rng.NextDouble(), rng.NextBernoulli(0.3)});
    }
    w.MergeSorted(std::move(extra));
    p.Rebuild();
    ExpectBitwiseEqual(p, SubsetPartition(&w, 100));
  }
}

TEST(PartitionRebuildTest, RebuildTailMatchesFreshConstructionAfterAppend) {
  Rng rng(37);
  for (int rep = 0; rep < 10; ++rep) {
    data::Workload w = UniformWorkload(350 + rep * 41);
    SubsetPartition p(&w, 100);
    const size_t preserved =
        w.size() / 100 >= 1 ? w.size() / 100 - 1 : 0;
    std::vector<data::InstancePair> extra;
    for (uint32_t i = 0; i < 130; ++i) {
      // Similarities strictly above the existing range: a pure tail append.
      extra.push_back({6000 + i, i, 1.0 + rng.NextDouble(), false});
    }
    ASSERT_TRUE(w.MergeSorted(std::move(extra)));
    p.RebuildTail(preserved);
    ExpectBitwiseEqual(p, SubsetPartition(&w, 100));
  }
}

TEST(PartitionRebuildTest, RebuildTailFromSingleAbsorbingSubset) {
  data::Workload w = UniformWorkload(60);  // below one subset
  SubsetPartition p(&w, 100);
  ASSERT_EQ(p.num_subsets(), 1u);
  std::vector<data::InstancePair> extra;
  for (uint32_t i = 0; i < 180; ++i) {
    extra.push_back({7000 + i, i, 1.0 + 0.001 * static_cast<double>(i),
                     false});
  }
  ASSERT_TRUE(w.MergeSorted(std::move(extra)));
  p.RebuildTail(0);
  ExpectBitwiseEqual(p, SubsetPartition(&w, 100));
  EXPECT_EQ(p.num_subsets(), 2u);
}

TEST(PartitionRebuildTest, RebuildOnShrunkToEmptyWorkload) {
  data::Workload w = UniformWorkload(250);
  SubsetPartition p(&w, 100);
  data::Workload empty;
  SubsetPartition q(&empty, 100);
  q.Rebuild();
  EXPECT_EQ(q.num_subsets(), 0u);
  (void)p;
}

}  // namespace
}  // namespace humo::core
