// Randomized differential tests ("fuzz"): long random operation
// sequences against the CF tree — inserts of points, weighted points
// and subcluster CFs under every insert mode, interleaved with
// rebuilds at growing thresholds — checked after every phase against a
// flat reference accumulator and the full structural invariant suite.
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "birch/cf_tree.h"
#include "pagestore/memory_tracker.h"
#include "util/random.h"

namespace birch {
namespace {

struct FuzzParam {
  uint64_t seed;
  size_t dim;
  size_t page_size;
  DistanceMetric metric;
};

/// Prints a parameter as e.g. "seed1_d2_p256_D2": seed, dimension, page
/// size and metric. gtest_discover_tests puts this value in the ctest
/// name in place of the parameter index.
void PrintTo(const FuzzParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_d" << p.dim << "_p" << p.page_size << "_"
      << MetricName(p.metric);
}

class CfTreeFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(CfTreeFuzzTest, RandomOpsAgainstReference) {
  const FuzzParam& param = GetParam();
  Rng rng(param.seed);

  CfTreeOptions o;
  o.dim = param.dim;
  o.page_size = param.page_size;
  o.threshold = 0.0;
  o.metric = param.metric;
  MemoryTracker mem;
  CfTree tree(o, &mem);

  CfVector reference(param.dim);  // exact sum of accepted inserts
  double threshold = 0.0;
  std::vector<double> p(param.dim);

  const int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    double roll = rng.NextDouble();
    if (roll < 0.80) {
      // Plain point insert (sometimes weighted).
      for (auto& v : p) v = rng.Gaussian(0, 10);
      double w = rng.NextDouble() < 0.1
                     ? 1.0 + static_cast<double>(rng.UniformInt(int64_t{0},
                                                                int64_t{4}))
                     : 1.0;
      tree.InsertPoint(p, w);
      CfVector cf = CfVector::FromPoint(p, w);
      reference.Add(cf);
    } else if (roll < 0.90) {
      // Subcluster CF insert.
      CfVector cf(param.dim);
      int pts = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
      for (int i = 0; i < pts; ++i) {
        for (auto& v : p) v = rng.Gaussian(5, 3);
        cf.AddPoint(p);
      }
      tree.InsertEntry(cf);
      reference.Add(cf);
    } else if (roll < 0.97) {
      // Restricted-mode insert: accepted only sometimes.
      for (auto& v : p) v = rng.Gaussian(-5, 10);
      InsertMode mode = roll < 0.935 ? InsertMode::kNoSplit
                                     : InsertMode::kAbsorbOnly;
      InsertOutcome out = tree.InsertPoint(p, 1.0, mode);
      if (out != InsertOutcome::kRejected) {
        reference.Add(CfVector::FromPoint(p));
      }
    } else {
      // Rebuild with a strictly larger threshold.
      threshold = threshold > 0 ? threshold * 1.5 : 0.05;
      size_t entries_before = tree.leaf_entry_count();
      tree.Rebuild(threshold);
      EXPECT_LE(tree.leaf_entry_count(), entries_before);
    }

    if (op % 1000 == 999) {
      std::string why;
      ASSERT_TRUE(tree.CheckInvariants(&why)) << "op " << op << ": " << why;
      CfVector summary = tree.TreeSummary();
      ASSERT_NEAR(summary.n(), reference.n(), 1e-6 * (1 + reference.n()));
      ASSERT_NEAR(summary.ss(), reference.ss(),
                  1e-6 * (1 + reference.ss()));
      for (size_t t = 0; t < param.dim; ++t) {
        ASSERT_NEAR(summary.ls()[t], reference.ls()[t],
                    1e-6 * (1 + std::fabs(reference.ls()[t])));
      }
    }
  }

  // Final: the leaf chain carries exactly the tree contents.
  std::vector<CfVector> entries;
  tree.CollectLeafEntries(&entries);
  CfVector chain_sum(param.dim);
  for (const auto& e : entries) chain_sum.Add(e);
  EXPECT_NEAR(chain_sum.n(), reference.n(), 1e-6 * (1 + reference.n()));
  EXPECT_EQ(entries.size(), tree.leaf_entry_count());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CfTreeFuzzTest,
    ::testing::Values(FuzzParam{1, 2, 256, DistanceMetric::kD2},
                      FuzzParam{2, 2, 128, DistanceMetric::kD0},
                      FuzzParam{3, 5, 512, DistanceMetric::kD2},
                      FuzzParam{4, 3, 256, DistanceMetric::kD4},
                      FuzzParam{5, 1, 256, DistanceMetric::kD1},
                      FuzzParam{6, 8, 1024, DistanceMetric::kD3},
                      FuzzParam{7, 2, 4096, DistanceMetric::kD2},
                      FuzzParam{8, 16, 2048, DistanceMetric::kD2}));

}  // namespace
}  // namespace birch
