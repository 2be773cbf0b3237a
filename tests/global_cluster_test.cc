// Phase-3 tests: both global algorithms must recover well-separated
// clusters exactly from subcluster CFs, respect input weights, handle
// edge cases (k >= m, k == 1, distance-limited stopping) and reject
// invalid configurations.
#include "birch/global_cluster.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "util/random.h"

namespace birch {

// Names each GlobalClusterAlgorithms instance by its algorithm (found
// by argument-dependent lookup, so it lives in the enum's namespace).
void PrintTo(GlobalAlgorithm algorithm, std::ostream* os) {
  switch (algorithm) {
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

namespace {

/// Builds `per_group` subcluster CFs around each of `centers`.
std::vector<CfVector> GroupedCfs(
    const std::vector<std::vector<double>>& centers, int per_group,
    double spread, uint64_t seed) {
  Rng rng(seed);
  std::vector<CfVector> cfs;
  for (const auto& c : centers) {
    for (int i = 0; i < per_group; ++i) {
      CfVector cf(c.size());
      // Each subcluster: 20 points around a jittered center.
      std::vector<double> sub(c.size());
      for (size_t t = 0; t < c.size(); ++t) {
        sub[t] = c[t] + rng.Gaussian(0, spread);
      }
      for (int p = 0; p < 20; ++p) {
        std::vector<double> x(c.size());
        for (size_t t = 0; t < c.size(); ++t) {
          x[t] = sub[t] + rng.Gaussian(0, spread / 4);
        }
        cf.AddPoint(x);
      }
      cfs.push_back(cf);
    }
  }
  return cfs;
}

class GlobalClusterAlgorithms
    : public ::testing::TestWithParam<GlobalAlgorithm> {};

TEST_P(GlobalClusterAlgorithms, RecoversSeparatedGroups) {
  std::vector<std::vector<double>> centers = {
      {0, 0}, {100, 0}, {0, 100}, {100, 100}};
  auto cfs = GroupedCfs(centers, 8, 1.0, 41);
  GlobalClusterOptions o;
  o.k = 4;
  o.algorithm = GetParam();
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_EQ(r.clusters.size(), 4u);
  // All 8 subclusters of a group share one label, groups differ.
  std::set<int> labels_seen;
  for (int g = 0; g < 4; ++g) {
    int first = r.assignment[static_cast<size_t>(g * 8)];
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(r.assignment[static_cast<size_t>(g * 8 + i)], first);
    }
    labels_seen.insert(first);
  }
  EXPECT_EQ(labels_seen.size(), 4u);
  // Cluster CFs are exact: 8 * 20 points each.
  for (const auto& c : r.clusters) EXPECT_NEAR(c.n(), 160.0, 1e-9);
}

TEST_P(GlobalClusterAlgorithms, KEqualsInputsYieldsSingletons) {
  auto cfs = GroupedCfs({{0, 0}, {50, 50}}, 3, 1.0, 42);
  GlobalClusterOptions o;
  o.k = static_cast<int>(cfs.size());
  o.algorithm = GetParam();
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().clusters.size(), cfs.size());
}

TEST_P(GlobalClusterAlgorithms, KOneMergesEverything) {
  auto cfs = GroupedCfs({{0, 0}, {9, 9}}, 4, 1.0, 43);
  GlobalClusterOptions o;
  o.k = 1;
  o.algorithm = GetParam();
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().clusters.size(), 1u);
  EXPECT_NEAR(result.value().clusters[0].n(), 8 * 20.0, 1e-9);
}

TEST_P(GlobalClusterAlgorithms, KLargerThanInputsClamped) {
  auto cfs = GroupedCfs({{0, 0}}, 3, 1.0, 44);
  GlobalClusterOptions o;
  o.k = 10;
  o.algorithm = GetParam();
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().clusters.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, GlobalClusterAlgorithms,
                         ::testing::Values(GlobalAlgorithm::kHierarchical,
                                           GlobalAlgorithm::kKMeans,
                                           GlobalAlgorithm::kMedoids));

TEST(GlobalClusterTest, MedoidsRespectWeights) {
  // Two candidate positions; the heavy entries should own the medoids.
  std::vector<CfVector> cfs;
  std::vector<double> a = {0.0}, b = {1.0}, c = {10.0}, d = {11.0};
  cfs.push_back(CfVector::FromPoint(a, 100.0));
  cfs.push_back(CfVector::FromPoint(b, 1.0));
  cfs.push_back(CfVector::FromPoint(c, 100.0));
  cfs.push_back(CfVector::FromPoint(d, 1.0));
  GlobalClusterOptions o;
  o.k = 2;
  o.algorithm = GlobalAlgorithm::kMedoids;
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_EQ(r.clusters.size(), 2u);
  // One cluster holds {0,1}, the other {10,11}.
  EXPECT_EQ(r.assignment[0], r.assignment[1]);
  EXPECT_EQ(r.assignment[2], r.assignment[3]);
  EXPECT_NE(r.assignment[0], r.assignment[2]);
}

TEST(GlobalClusterTest, WeightPullsCentroid) {
  // One massive CF and one light CF in each of two groups: the cluster
  // centroid must sit near the heavy member.
  CfVector heavy(1), light(1);
  std::vector<double> a = {0.0}, b = {1.0};
  heavy.AddPoint(a, 1000.0);
  light.AddPoint(b, 1.0);
  std::vector<CfVector> cfs = {heavy, light};
  GlobalClusterOptions o;
  o.k = 1;
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().clusters[0].Centroid()[0], 1.0 / 1001.0,
              1e-9);
}

TEST(GlobalClusterTest, DistanceLimitStopsMerging) {
  // Two tight pairs far apart; a limit between pair-diameter and
  // pair-gap must leave exactly 2 clusters.
  std::vector<CfVector> cfs = {
      CfVector::FromPoint(std::vector<double>{0.0}),
      CfVector::FromPoint(std::vector<double>{1.0}),
      CfVector::FromPoint(std::vector<double>{100.0}),
      CfVector::FromPoint(std::vector<double>{101.0})};
  GlobalClusterOptions o;
  o.k = 0;
  o.distance_limit = 10.0;
  o.metric = DistanceMetric::kD0;
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().clusters.size(), 2u);
}

TEST(GlobalClusterTest, HierarchicalMetricSweep) {
  std::vector<std::vector<double>> centers = {{0, 0}, {60, 0}, {0, 60}};
  auto cfs = GroupedCfs(centers, 6, 1.0, 45);
  for (auto m : {DistanceMetric::kD0, DistanceMetric::kD1,
                 DistanceMetric::kD2, DistanceMetric::kD3,
                 DistanceMetric::kD4}) {
    GlobalClusterOptions o;
    o.k = 3;
    o.metric = m;
    auto result = GlobalCluster(cfs, o);
    ASSERT_TRUE(result.ok()) << MetricName(m);
    EXPECT_EQ(result.value().clusters.size(), 3u) << MetricName(m);
  }
}

TEST(GlobalClusterTest, InvalidConfigsRejected) {
  auto cfs = GroupedCfs({{0, 0}}, 2, 1.0, 46);
  GlobalClusterOptions o;
  // Empty input.
  EXPECT_EQ(GlobalCluster({}, o).status().code(),
            StatusCode::kInvalidArgument);
  // k == 0 without a distance limit.
  o.k = 0;
  EXPECT_EQ(GlobalCluster(cfs, o).status().code(),
            StatusCode::kInvalidArgument);
  // k == 0 with k-means.
  o.distance_limit = 1.0;
  o.algorithm = GlobalAlgorithm::kKMeans;
  EXPECT_EQ(GlobalCluster(cfs, o).status().code(),
            StatusCode::kInvalidArgument);
  // Oversized hierarchical input.
  GlobalClusterOptions o2;
  o2.k = 2;
  o2.max_hierarchical_inputs = 1;
  EXPECT_EQ(GlobalCluster(cfs, o2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GlobalClusterTest, AssignmentCoversAllInputs) {
  auto cfs = GroupedCfs({{0, 0}, {30, 30}, {60, 0}}, 7, 1.5, 47);
  GlobalClusterOptions o;
  o.k = 3;
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_EQ(r.assignment.size(), cfs.size());
  double total = 0.0;
  for (const auto& c : r.clusters) total += c.n();
  EXPECT_NEAR(total, 21 * 20.0, 1e-9);
  for (int a : r.assignment) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, static_cast<int>(r.clusters.size()));
  }
}

TEST(GlobalClusterTest, CentroidsAccessor) {
  auto cfs = GroupedCfs({{5, 5}}, 3, 0.5, 48);
  GlobalClusterOptions o;
  o.k = 1;
  auto result = GlobalCluster(cfs, o);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().clusters.size(), 1u);
  const std::vector<double> centroid = result.value().clusters[0].Centroid();
  EXPECT_NEAR(centroid[0], 5.0, 1.0);
  EXPECT_NEAR(centroid[1], 5.0, 1.0);
}

/// The exact bits of every cluster CF (N, vector, scalar), in order.
std::vector<uint64_t> CfBits(const std::vector<CfVector>& cfs) {
  std::vector<uint64_t> bits;
  std::vector<double> buf;
  for (const CfVector& cf : cfs) {
    buf.clear();
    cf.SerializeTo(&buf);
    for (double v : buf) bits.push_back(std::bit_cast<uint64_t>(v));
  }
  return bits;
}

// A pool only spreads the sweeps over threads: each task writes its own
// entries' slots, and the k-means centroids are folded in entry order,
// so every pool size gives the serial assignment and cluster CFs bit for
// bit. 960 inputs split every ParallelFor into chunks at 2-4 threads.
TEST(GlobalClusterTest, PooledRunsMatchSerialBitwise) {
  for (CfRepresentation rep :
       {CfRepresentation::kClassic, CfRepresentation::kBetula}) {
    // 16 overlapping groups in 3-D, so k-means runs several rounds.
    Rng rng(49);
    std::vector<CfVector> cfs;
    std::vector<double> x(3);
    for (int i = 0; i < 960; ++i) {
      CfVector cf(3, rep);
      for (int p = 0; p <= i % 5; ++p) {
        x = {10.0 * (i % 16) + rng.Gaussian(0, 6), rng.Gaussian(0, 6),
             rng.Gaussian(0, 6)};
        cf.AddPoint(x);
      }
      cfs.push_back(cf);
    }
    for (GlobalAlgorithm algorithm :
         {GlobalAlgorithm::kKMeans, GlobalAlgorithm::kHierarchical}) {
      GlobalClusterOptions o;
      o.k = 12;
      o.algorithm = algorithm;
      auto serial = GlobalCluster(cfs, o);
      ASSERT_TRUE(serial.ok());
      for (int threads : {2, 3, 4}) {
        SCOPED_TRACE(testing::Message()
                     << CfRepresentationName(rep) << " algorithm="
                     << static_cast<int>(algorithm)
                     << " threads=" << threads);
        exec::ThreadPool pool(threads);
        o.pool = &pool;
        auto pooled = GlobalCluster(cfs, o);
        ASSERT_TRUE(pooled.ok());
        EXPECT_EQ(pooled.value().assignment, serial.value().assignment);
        EXPECT_EQ(CfBits(pooled.value().clusters),
                  CfBits(serial.value().clusters));
      }
    }
  }
}

}  // namespace
}  // namespace birch
