// Cross-module integration tests:
//  - checkpoint/resume: persist a Phase-1 tree with TreeIO, reopen it,
//    keep inserting, and finish the pipeline on the reopened tree;
//  - full-pipeline parameterized sweep over (dim, metric, global
//    algorithm) on generated workloads;
//  - distance-limited clustering (k = 0) end to end;
//  - determinism of the whole pipeline for a fixed seed.
#include <gtest/gtest.h>

#include "birch/birch.h"
#include "birch/tree_io.h"
#include "datagen/generator.h"
#include "eval/matching.h"
#include "eval/quality.h"

namespace birch {
namespace {

GeneratedData Blobs(size_t dim, int k, int n_per, uint64_t seed) {
  GeneratorOptions o;
  o.dim = dim;
  o.k = k;
  o.n_low = o.n_high = n_per;
  o.r_low = o.r_high = 1.0;
  o.grid_spacing = 12.0;
  o.seed = seed;
  auto gen = Generate(o);
  EXPECT_TRUE(gen.ok());
  return std::move(gen).ValueOrDie();
}

TEST(IntegrationTest, CheckpointResumeAcrossTreeIo) {
  auto g = Blobs(2, 9, 600, 401);

  // Phase 1 over the first half.
  CfTreeOptions topt;
  topt.dim = 2;
  topt.page_size = 512;
  topt.threshold = 0.8;
  MemoryTracker mem1;
  CfTree tree(topt, &mem1);
  size_t half = g.data.size() / 2;
  for (size_t i = 0; i < half; ++i) tree.InsertPoint(g.data.Row(i));

  // Checkpoint the tree as node records...
  const TreeImage image = TreeIO::Write(tree);

  // ...reopen elsewhere, stream the second half.
  MemoryTracker mem2;
  auto reopened = TreeIO::Read(image, topt, &mem2);
  ASSERT_TRUE(reopened.ok());
  CfTree& resumed = *reopened.value();
  for (size_t i = half; i < g.data.size(); ++i) {
    resumed.InsertPoint(g.data.Row(i));
  }
  EXPECT_NEAR(resumed.TreeSummary().n(),
              static_cast<double>(g.data.size()), 1e-6);

  // Global clustering over the resumed tree's entries.
  std::vector<CfVector> entries;
  resumed.CollectLeafEntries(&entries);
  GlobalClusterOptions gopt;
  gopt.k = 9;
  auto clustering = GlobalCluster(entries, gopt);
  ASSERT_TRUE(clustering.ok());
  MatchReport match =
      MatchClusters(g.actual, clustering.value().clusters);
  EXPECT_EQ(match.matched, 9);
  EXPECT_LT(match.mean_centroid_displacement, 1.0);
}

struct SweepParam {
  size_t dim;
  DistanceMetric metric;
  GlobalAlgorithm algorithm;
};

/// Prints a parameter as e.g. "d2_D0_hierarchical": dimension, metric
/// and Phase-3 algorithm. gtest_discover_tests puts this value in the
/// ctest name in place of the parameter index.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "d" << p.dim << "_" << MetricName(p.metric) << "_";
  switch (p.algorithm) {
    case GlobalAlgorithm::kHierarchical:
      *os << "hierarchical";
      return;
    case GlobalAlgorithm::kKMeans:
      *os << "kmeans";
      return;
    case GlobalAlgorithm::kMedoids:
      *os << "medoids";
      return;
  }
}

class PipelineSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PipelineSweepTest, RecoversClusters) {
  const SweepParam& p = GetParam();
  auto g = Blobs(p.dim, 8, 300, 402 + p.dim);
  BirchOptions o;
  o.dim = p.dim;
  o.k = 8;
  o.resources.memory_bytes = 48 * 1024;
  o.tree.metric = p.metric;
  o.global_phase.algorithm = p.algorithm;
  auto result = ClusterDataset(g.data, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  MatchReport match = MatchClusters(g.actual, result.value().clusters);
  // Well-separated blobs (spacing 12, radius 1): every configuration
  // must recover essentially all clusters.
  EXPECT_GE(match.matched, 7)
      << "dim=" << p.dim << " metric=" << MetricName(p.metric);
  EXPECT_LT(match.mean_centroid_displacement, 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweepTest,
    ::testing::Values(
        SweepParam{2, DistanceMetric::kD0, GlobalAlgorithm::kHierarchical},
        SweepParam{2, DistanceMetric::kD1, GlobalAlgorithm::kHierarchical},
        SweepParam{2, DistanceMetric::kD2, GlobalAlgorithm::kHierarchical},
        SweepParam{2, DistanceMetric::kD4, GlobalAlgorithm::kHierarchical},
        SweepParam{2, DistanceMetric::kD2, GlobalAlgorithm::kKMeans},
        SweepParam{2, DistanceMetric::kD2, GlobalAlgorithm::kMedoids},
        SweepParam{3, DistanceMetric::kD2, GlobalAlgorithm::kHierarchical},
        SweepParam{5, DistanceMetric::kD2, GlobalAlgorithm::kHierarchical},
        SweepParam{10, DistanceMetric::kD2, GlobalAlgorithm::kHierarchical},
        SweepParam{10, DistanceMetric::kD4, GlobalAlgorithm::kKMeans}));

TEST(IntegrationTest, DistanceLimitedClusteringFindsK) {
  // k = 0 with a distance limit between intra- and inter-cluster
  // scales must discover the right number of clusters on its own.
  auto g = Blobs(2, 6, 500, 403);
  BirchOptions o;
  o.dim = 2;
  o.k = 0;
  o.global_phase.distance_limit = 5.0;  // blobs: diameter ~2.7, spacing 12
  auto result = ClusterDataset(g.data, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clusters.size(), 6u);
  MatchReport match = MatchClusters(g.actual, result.value().clusters);
  EXPECT_EQ(match.matched, 6);
}

TEST(IntegrationTest, DistanceLimitValidation) {
  BirchOptions o;
  o.dim = 2;
  o.k = 0;  // no limit either
  EXPECT_FALSE(BirchClusterer::Create(o).ok());
  o.global_phase.distance_limit = 1.0;
  o.global_phase.algorithm = GlobalAlgorithm::kKMeans;
  EXPECT_FALSE(BirchClusterer::Create(o).ok());
  o.global_phase.algorithm = GlobalAlgorithm::kHierarchical;
  EXPECT_TRUE(BirchClusterer::Create(o).ok());
}

TEST(IntegrationTest, PipelineDeterministicForSeed) {
  auto g = Blobs(2, 5, 400, 404);
  BirchOptions o;
  o.dim = 2;
  o.k = 5;
  o.resources.memory_bytes = 24 * 1024;
  o.seed = 1234;
  auto r1 = ClusterDataset(g.data, o);
  auto r2 = ClusterDataset(g.data, o);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().labels, r2.value().labels);
  ASSERT_EQ(r1.value().clusters.size(), r2.value().clusters.size());
  for (size_t c = 0; c < r1.value().clusters.size(); ++c) {
    EXPECT_EQ(r1.value().clusters[c], r2.value().clusters[c]);
  }
  EXPECT_EQ(r1.value().phase1.rebuilds, r2.value().phase1.rebuilds);
}

TEST(IntegrationTest, WeightedStreamEquivalentToExpanded) {
  // Clustering w-weighted points must equal clustering w copies.
  Dataset weighted(2), expanded(2);
  Rng rng(405);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> p = {rng.Gaussian(i % 2 ? 0.0 : 20.0, 1.0),
                             rng.Gaussian(0, 1.0)};
    double w = 1.0 + static_cast<double>(rng.UniformInt(uint64_t{3}));
    weighted.AppendWeighted(p, w);
    for (int r = 0; r < static_cast<int>(w); ++r) expanded.Append(p);
  }
  BirchOptions o;
  o.dim = 2;
  o.k = 2;
  o.refine.passes = 0;  // labels map 1:1 only per-dataset
  auto rw = ClusterDataset(weighted, o);
  auto re = ClusterDataset(expanded, o);
  ASSERT_TRUE(rw.ok() && re.ok());
  ASSERT_EQ(rw.value().clusters.size(), 2u);
  ASSERT_EQ(re.value().clusters.size(), 2u);
  // Same total mass and near-identical centroids.
  auto order = [](const BirchResult& r) {
    return r.centroids[0][0] < r.centroids[1][0]
               ? std::pair<size_t, size_t>{0, 1}
               : std::pair<size_t, size_t>{1, 0};
  };
  auto [w0, w1] = order(rw.value());
  auto [e0, e1] = order(re.value());
  EXPECT_NEAR(rw.value().clusters[w0].n(), re.value().clusters[e0].n(),
              1e-6);
  EXPECT_NEAR(rw.value().centroids[w0][0], re.value().centroids[e0][0],
              0.05);
  EXPECT_NEAR(rw.value().centroids[w1][0], re.value().centroids[e1][0],
              0.05);
}

TEST(IntegrationTest, PhaseTimingsAndMetricsPopulated) {
  // Every phase that ran must report non-zero wall time (phase1 covers
  // the Add() stream, not just the Finish() tail), and the run's
  // metrics snapshot must carry the core counters and phase spans.
  auto g = Blobs(2, 8, 400, 404);
  BirchOptions o;
  o.dim = 2;
  o.k = 8;
  o.resources.memory_bytes = 24 * 1024;  // tight: forces rebuild activity
  o.refine.passes = 1;
  auto result = ClusterDataset(g.data, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BirchResult& r = result.value();

  const PhaseTimings& t = r.timings;
  EXPECT_GT(t.phase1, 0.0);
  EXPECT_GT(t.phase3, 0.0);
  EXPECT_GT(t.phase4, 0.0);  // refinement ran (passes = 1)
  // Phase 1 streamed 3200 points; its wall time must dominate the
  // Finish() tail alone by covering the insert stream.
  EXPECT_GE(t.phase1, t.Total() * 0.01);

  if (obs::Enabled()) {
    ASSERT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metrics.counters.at("phase1/points"), 3200u);
    EXPECT_GT(r.metrics.counters.at("tree/inserts"), 0u);
    EXPECT_GT(r.metrics.counters.at("tree/distance_comps"), 0u);
    EXPECT_GT(r.metrics.spans.at("birch/phase1").total_us, 0.0);
    EXPECT_EQ(r.metrics.spans.at("birch/phase3").count, 1u);
    EXPECT_EQ(r.metrics.spans.at("birch/phase4").count, 1u);
  }
}

}  // namespace
}  // namespace birch
