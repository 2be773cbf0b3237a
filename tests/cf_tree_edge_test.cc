// Targeted CF-tree edge cases: lopsided split rebalancing, the merging
// refinement resplit path, leaf-chain surgery, threshold-kind
// semantics, and degenerate geometries.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "birch/cf_tree.h"
#include "pagestore/memory_tracker.h"
#include "util/random.h"

namespace birch {
namespace {

std::vector<double> P(double x, double y) { return {x, y}; }

TEST(CfTreeEdgeTest, LopsidedSplitRespectsCapacity) {
  // L points in one tight clump plus one far point: farthest-pair
  // seeding attracts everything to one seed; the rebalance step must
  // still leave both sides within capacity.
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 256;
  o.threshold = 0.0;
  CfTree tree(o, &mem);
  size_t l = tree.layout().L();
  for (size_t i = 0; i < l; ++i) {
    tree.InsertPoint(P(1e-4 * static_cast<double>(i), 0.0));  // clump
  }
  tree.InsertPoint(P(1000.0, 0.0));  // triggers the lopsided split
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
  EXPECT_EQ(tree.leaf_entry_count(), l + 1);
}

TEST(CfTreeEdgeTest, RadiusVsDiameterThresholdSemantics) {
  // Two points distance 1 apart: merged diameter = 1, radius = 0.5.
  // A threshold of 0.7 merges them under the radius condition only.
  for (auto kind : {ThresholdKind::kDiameter, ThresholdKind::kRadius}) {
    MemoryTracker mem;
    CfTreeOptions o;
    o.dim = 2;
    o.page_size = 256;
    o.threshold = 0.7;
    o.threshold_kind = kind;
    CfTree tree(o, &mem);
    tree.InsertPoint(P(0, 0));
    InsertOutcome out = tree.InsertPoint(P(1, 0));
    if (kind == ThresholdKind::kRadius) {
      EXPECT_EQ(out, InsertOutcome::kAbsorbed);
    } else {
      EXPECT_EQ(out, InsertOutcome::kNewEntry);
    }
  }
}

TEST(CfTreeEdgeTest, MergingRefinementResplitPath) {
  // Force the resplit branch: many inserts with tiny pages produce
  // frequent splits whose closest-pair merge would overflow.
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 192;  // L = 5: closest-pair merges overflow quickly
  o.threshold = 0.0;
  CfTree tree(o, &mem);
  Rng rng(601);
  for (int i = 0; i < 4000; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 10), rng.Uniform(0, 10)));
  }
  // The workload must actually have exercised the resplit branch.
  EXPECT_GT(tree.stats().resplits, 0u);
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
  EXPECT_NEAR(tree.TreeSummary().n(), 4000.0, 1e-6);
}

TEST(CfTreeEdgeTest, DeepTreeManyLevels) {
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 128;  // tiny fanout -> deep tree
  o.threshold = 0.0;
  CfTree tree(o, &mem);
  Rng rng(602);
  for (int i = 0; i < 5000; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 1000), rng.Uniform(0, 1000)));
  }
  EXPECT_GE(tree.height(), 4u);
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(CfTreeEdgeTest, OneDimensionalData) {
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 1;
  o.page_size = 256;
  o.threshold = 0.5;
  CfTree tree(o, &mem);
  Rng rng(603);
  for (int i = 0; i < 3000; ++i) {
    std::vector<double> p = {rng.Gaussian(i % 3 * 10.0, 0.5)};
    tree.InsertPoint(p);
  }
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
  EXPECT_NEAR(tree.TreeSummary().n(), 3000.0, 1e-6);
}

TEST(CfTreeEdgeTest, HighDimensionalTinyFanout) {
  // dim 32 with the smallest page that holds two nonleaf entries:
  // L and B are both 2.
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 32;
  o.page_size = CfLayout{0, 32}.MinPageSize();
  o.threshold = 1.0;
  CfTree tree(o, &mem);
  EXPECT_EQ(tree.layout().L(), 2u);
  EXPECT_EQ(tree.layout().B(), 2u);
  Rng rng(604);
  std::vector<double> p(32);
  for (int i = 0; i < 500; ++i) {
    for (auto& v : p) v = rng.Gaussian(0, 5);
    tree.InsertPoint(p);
  }
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(CfTreeEdgeTest, WeightedEntriesThroughSplits) {
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 256;
  o.threshold = 0.2;
  CfTree tree(o, &mem);
  Rng rng(605);
  double total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    double w = 1.0 + static_cast<double>(rng.UniformInt(uint64_t{9}));
    tree.InsertPoint(P(rng.Uniform(0, 50), rng.Uniform(0, 50)), w);
    total += w;
  }
  EXPECT_NEAR(tree.TreeSummary().n(), total, 1e-6);
}

TEST(CfTreeEdgeTest, RebuildToSameThresholdIsSafe) {
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 256;
  o.threshold = 0.5;
  CfTree tree(o, &mem);
  Rng rng(606);
  for (int i = 0; i < 1000; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 20), rng.Uniform(0, 20)));
  }
  size_t entries = tree.leaf_entry_count();
  tree.Rebuild(tree.threshold());  // not larger: must not grow
  EXPECT_LE(tree.leaf_entry_count(), entries);
  EXPECT_NEAR(tree.TreeSummary().n(), 1000.0, 1e-6);
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(CfTreeEdgeTest, StatsCountersConsistent) {
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 256;
  o.threshold = 0.3;
  CfTree tree(o, &mem);
  Rng rng(607);
  for (int i = 0; i < 2000; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 40), rng.Uniform(0, 40)));
  }
  const CfTreeStats& s = tree.stats();
  EXPECT_EQ(s.inserts, 2000u);
  EXPECT_EQ(s.absorbed + s.new_entries, 2000u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_GT(s.leaf_splits, 0u);
  EXPECT_GT(s.distance_comparisons, 2000u);
}

}  // namespace
}  // namespace birch
