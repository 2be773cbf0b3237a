// CF tree tests: insertion semantics (absorb / new entry / split /
// reject), structural invariants under random workloads, memory
// accounting (charged pages and the heap-bytes gauge), the leaf chain, merging refinement, and the Reducibility
// Theorem (rebuilding with a larger threshold never grows the tree).
#include "birch/cf_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "pagestore/memory_tracker.h"
#include "util/random.h"

namespace birch {
namespace {

CfTreeOptions SmallTreeOptions(double threshold = 0.5) {
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 256;  // small pages -> small B/L -> deep trees quickly
  o.threshold = threshold;
  return o;
}

std::vector<double> P(double x, double y) { return {x, y}; }

TEST(CfLayoutTest, CapacitiesDeriveFromPageSize) {
  CfLayout l{1024, 2};
  // CF = 4 doubles = 32 bytes; nonleaf entry = 40, leaf entry = 32.
  EXPECT_EQ(l.CfBytes(), 32u);
  EXPECT_EQ(l.NonleafEntryBytes(), 40u);
  size_t usable = 1024 - CfLayout::kNodeHeaderBytes;
  EXPECT_EQ(l.B(), usable / 40);
  EXPECT_EQ(l.L(), usable / 32);
}

TEST(CfLayoutTest, CapacityGrowsWithPageAndShrinksWithDim) {
  CfLayout small{256, 2}, big{4096, 2};
  EXPECT_GT(big.B(), small.B());
  CfLayout lowd{1024, 2}, highd{1024, 32};
  EXPECT_GT(lowd.L(), highd.L());
  // Always at least 2 so splits are possible.
  CfLayout tiny{64, 64};
  EXPECT_GE(tiny.B(), 2u);
  EXPECT_GE(tiny.L(), 2u);
}

TEST(CfTreeTest, FirstInsertCreatesEntry) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(), &mem);
  EXPECT_EQ(tree.InsertPoint(P(0, 0)), InsertOutcome::kNewEntry);
  EXPECT_EQ(tree.leaf_entry_count(), 1u);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.height(), 1u);
}

TEST(CfTreeTest, ClosePointAbsorbed) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(/*threshold=*/1.0), &mem);
  tree.InsertPoint(P(0, 0));
  EXPECT_EQ(tree.InsertPoint(P(0.1, 0.1)), InsertOutcome::kAbsorbed);
  EXPECT_EQ(tree.leaf_entry_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.TreeSummary().n(), 2.0);
}

TEST(CfTreeTest, FarPointCreatesNewEntry) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(/*threshold=*/1.0), &mem);
  tree.InsertPoint(P(0, 0));
  EXPECT_EQ(tree.InsertPoint(P(100, 100)), InsertOutcome::kNewEntry);
  EXPECT_EQ(tree.leaf_entry_count(), 2u);
}

TEST(CfTreeTest, ZeroThresholdMergesOnlyDuplicates) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(/*threshold=*/0.0), &mem);
  tree.InsertPoint(P(1, 1));
  EXPECT_EQ(tree.InsertPoint(P(1, 1)), InsertOutcome::kAbsorbed);
  EXPECT_EQ(tree.InsertPoint(P(1, 1.0001)), InsertOutcome::kNewEntry);
}

TEST(CfTreeTest, SplitGrowsTree) {
  MemoryTracker mem;
  CfTreeOptions o = SmallTreeOptions(0.0);
  CfTree tree(o, &mem);
  size_t l = tree.layout().L();
  // Distinct far-apart points: first L fit in the root leaf, the next
  // forces a split and a new root.
  for (size_t i = 0; i <= l; ++i) {
    tree.InsertPoint(P(10.0 * static_cast<double>(i), 0.0));
  }
  EXPECT_GE(tree.height(), 2u);
  EXPECT_EQ(tree.leaf_entry_count(), l + 1);
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(CfTreeTest, RejectWithoutSplitLeavesTreeUntouched) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(0.0), &mem);
  size_t l = tree.layout().L();
  for (size_t i = 0; i < l; ++i) {
    tree.InsertPoint(P(10.0 * static_cast<double>(i), 0.0));
  }
  CfVector before = tree.TreeSummary();
  EXPECT_EQ(tree.InsertPoint(P(1e6, 1e6), 1.0, InsertMode::kNoSplit),
            InsertOutcome::kRejected);
  EXPECT_EQ(tree.leaf_entry_count(), l);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.TreeSummary(), before);
}

TEST(CfTreeTest, TreeSummaryCountsAllPoints) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(0.2), &mem);
  Rng rng(7);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 50), rng.Uniform(0, 50)));
  }
  EXPECT_NEAR(tree.TreeSummary().n(), n, 1e-6);
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(CfTreeTest, LeafChainCoversAllEntries) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(0.1), &mem);
  Rng rng(8);
  for (int i = 0; i < 1500; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 30), rng.Uniform(0, 30)));
  }
  std::vector<CfVector> entries;
  tree.CollectLeafEntries(&entries);
  EXPECT_EQ(entries.size(), tree.leaf_entry_count());
  double total = 0.0;
  for (const auto& e : entries) total += e.n();
  EXPECT_NEAR(total, 1500.0, 1e-6);
}

TEST(CfTreeTest, MemoryAccountingTracksNodes) {
  MemoryTracker mem;
  CfTreeOptions o = SmallTreeOptions(0.0);
  {
    CfTree tree(o, &mem);
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
      tree.InsertPoint(P(rng.Uniform(0, 100), rng.Uniform(0, 100)));
    }
    EXPECT_EQ(mem.used(), tree.node_count() * o.page_size);
  }
  // Destructor releases everything.
  EXPECT_EQ(mem.used(), 0u);
}

TEST(CfTreeTest, OverBudgetDetected) {
  MemoryTracker mem(4 * 256);  // room for 4 pages
  CfTree tree(SmallTreeOptions(0.0), &mem);
  Rng rng(10);
  int i = 0;
  while (!tree.over_budget() && i < 100000) {
    tree.InsertPoint(P(rng.Uniform(0, 1000), rng.Uniform(0, 1000)));
    ++i;
  }
  EXPECT_TRUE(tree.over_budget());
  EXPECT_LT(i, 100000);
}

TEST(CfTreeTest, RebuildReducesLeafEntries) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(0.0), &mem);
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 20), rng.Uniform(0, 20)));
  }
  size_t before_entries = tree.leaf_entry_count();
  size_t before_nodes = tree.node_count();
  double n_before = tree.TreeSummary().n();

  tree.Rebuild(/*new_threshold=*/2.0);

  // Reducibility: larger threshold, no more entries/nodes than before,
  // same points summarized.
  EXPECT_LE(tree.leaf_entry_count(), before_entries);
  EXPECT_LE(tree.node_count(), before_nodes);
  EXPECT_NEAR(tree.TreeSummary().n(), n_before, 1e-6);
  EXPECT_DOUBLE_EQ(tree.threshold(), 2.0);
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(CfTreeTest, RebuildExtractsLowWeightOutliers) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(0.5), &mem);
  // A dense blob of 500 duplicate-ish points plus 5 lone points.
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    tree.InsertPoint(P(rng.Gaussian(0, 0.05), rng.Gaussian(0, 0.05)));
  }
  for (int i = 0; i < 5; ++i) {
    tree.InsertPoint(P(1000.0 + 50.0 * i, -1000.0));
  }
  std::vector<CfVector> outliers;
  tree.Rebuild(/*new_threshold=*/1.0, /*outlier_n_threshold=*/2.0,
               &outliers);
  // The lone points (weight 1) fall below the threshold of 2 points.
  EXPECT_GE(outliers.size(), 5u);
  double outlier_points = 0.0;
  for (const auto& e : outliers) outlier_points += e.n();
  EXPECT_NEAR(tree.TreeSummary().n() + outlier_points, 505.0, 1e-6);
}

TEST(CfTreeTest, MergingRefinementCanBeDisabled) {
  MemoryTracker mem1, mem2;
  CfTreeOptions with = SmallTreeOptions(0.0);
  CfTreeOptions without = SmallTreeOptions(0.0);
  without.merging_refinement = false;
  CfTree t1(with, &mem1), t2(without, &mem2);
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    double x = rng.Uniform(0, 10), y = rng.Uniform(0, 10);
    t1.InsertPoint(P(x, y));
    t2.InsertPoint(P(x, y));
  }
  EXPECT_EQ(t2.stats().merge_refinements, 0u);
  std::string why;
  EXPECT_TRUE(t1.CheckInvariants(&why)) << why;
  EXPECT_TRUE(t2.CheckInvariants(&why)) << why;
  // Same data either way.
  EXPECT_NEAR(t1.TreeSummary().n(), t2.TreeSummary().n(), 1e-6);
}

TEST(CfTreeTest, MostCrowdedLeafMinMergePositive) {
  MemoryTracker mem;
  CfTree tree(SmallTreeOptions(0.0), &mem);
  Rng rng(14);
  for (int i = 0; i < 200; ++i) {
    tree.InsertPoint(P(rng.Uniform(0, 5), rng.Uniform(0, 5)));
  }
  double dmin = tree.MostCrowdedLeafMinMerge();
  EXPECT_GT(dmin, 0.0);
  // Rebuilding with exactly dmin merges at least one pair.
  size_t before = tree.leaf_entry_count();
  tree.Rebuild(dmin);
  EXPECT_LT(tree.leaf_entry_count(), before);
}

/// Heap bytes of every node under `node`, summed from the nodes
/// themselves: the CfNode, its column block and its children array.
size_t SubtreeHeapBytes(const CfNode* node) {
  size_t bytes = sizeof(CfNode) +
                 node->rows.block_doubles() * sizeof(double) +
                 node->children.capacity() * sizeof(CfNode*);
  for (const CfNode* child : node->children) {
    bytes += SubtreeHeapBytes(child);
  }
  return bytes;
}

TEST(CfTreeHeapGaugeTest, GaugeEqualsTheNodesBytesThroughSplitsAndRebuilds) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const obs::Gauge& gauge =
      obs::Registry::Default().GetGauge("tree/heap_bytes");
  for (size_t dim : {size_t{2}, size_t{16}, size_t{64}}) {
    const double baseline = gauge.Value();
    {
      MemoryTracker mem;
      CfTreeOptions o;
      o.dim = dim;
      o.page_size = 1024;
      o.threshold = 0.5;
      CfTree tree(o, &mem);
      Rng rng(900 + dim);
      std::vector<double> x(dim);
      for (int i = 0; i < 1500; ++i) {
        for (auto& v : x) v = rng.Uniform(0, 50);
        tree.InsertPoint(x);
      }
      ASSERT_GT(tree.stats().leaf_splits, 0u) << "dim=" << dim;
      ASSERT_GT(tree.stats().nonleaf_splits, 0u) << "dim=" << dim;
      EXPECT_EQ(gauge.Value() - baseline,
                static_cast<double>(SubtreeHeapBytes(tree.root())))
          << "dim=" << dim;
      tree.Rebuild(4.0 * std::sqrt(static_cast<double>(dim)));
      ASSERT_EQ(tree.stats().rebuilds, 1u);
      EXPECT_EQ(gauge.Value() - baseline,
                static_cast<double>(SubtreeHeapBytes(tree.root())))
          << "dim=" << dim;
    }
    EXPECT_EQ(gauge.Value(), baseline) << "dim=" << dim;
  }
  obs::SetEnabled(was_enabled);
}

// Parameterized structural stress: random workloads across page sizes,
// metrics and threshold kinds must always satisfy every invariant.
struct StressParam {
  size_t page_size;
  DistanceMetric metric;
  ThresholdKind kind;
  double threshold;
};

/// Prints a parameter as e.g. "p256_D2_diameter_t0_3": page size,
/// metric, threshold kind and threshold ('.' as '_'). gtest_discover_tests
/// puts this value in the ctest name in place of the parameter index
/// (a name generator would leave the "# GetParam() = ..." comment in
/// it).
void PrintTo(const StressParam& p, std::ostream* os) {
  char threshold[32];
  std::snprintf(threshold, sizeof(threshold), "%g", p.threshold);
  std::string name = "p" + std::to_string(p.page_size) + "_" +
                     MetricName(p.metric) + "_" +
                     (p.kind == ThresholdKind::kDiameter ? "diameter"
                                                         : "radius") +
                     "_t" + threshold;
  std::replace(name.begin(), name.end(), '.', '_');
  *os << name;
}

class CfTreeStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(CfTreeStressTest, InvariantsHoldUnderRandomInserts) {
  const StressParam& p = GetParam();
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = p.page_size;
  o.metric = p.metric;
  o.threshold_kind = p.kind;
  o.threshold = p.threshold;
  CfTree tree(o, &mem);
  Rng rng(100 + p.page_size);
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    tree.InsertPoint(P(rng.Gaussian(0, 5), rng.Gaussian(0, 5)));
  }
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
  EXPECT_NEAR(tree.TreeSummary().n(), n, 1e-6);

  // Rebuild twice with growing thresholds; invariants must survive.
  double t1 = std::max(2.0 * p.threshold, 0.5);
  tree.Rebuild(t1);
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
  size_t entries_t1 = tree.leaf_entry_count();
  tree.Rebuild(2.0 * t1);
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
  EXPECT_LE(tree.leaf_entry_count(), entries_t1);
  EXPECT_NEAR(tree.TreeSummary().n(), n, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CfTreeStressTest,
    ::testing::Values(
        StressParam{128, DistanceMetric::kD0, ThresholdKind::kDiameter, 0.0},
        StressParam{256, DistanceMetric::kD0, ThresholdKind::kDiameter, 0.3},
        StressParam{256, DistanceMetric::kD1, ThresholdKind::kDiameter, 0.3},
        StressParam{256, DistanceMetric::kD2, ThresholdKind::kDiameter, 0.3},
        StressParam{256, DistanceMetric::kD2, ThresholdKind::kRadius, 0.15},
        StressParam{256, DistanceMetric::kD3, ThresholdKind::kDiameter, 0.5},
        StressParam{256, DistanceMetric::kD4, ThresholdKind::kDiameter, 0.3},
        StressParam{1024, DistanceMetric::kD2, ThresholdKind::kDiameter, 0.3},
        StressParam{4096, DistanceMetric::kD2, ThresholdKind::kDiameter,
                    0.3}));

}  // namespace
}  // namespace birch
