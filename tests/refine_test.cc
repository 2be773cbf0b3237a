// Phase-4 tests: redistribution must assign points to the nearest
// seed, move centroids toward the true centers, discard far outliers
// when asked, converge (stop when stable), and give the serial result
// bit for bit on a worker pool.
#include "birch/refine.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "util/math.h"
#include "util/random.h"

namespace birch {
namespace {

Dataset TwoBlobs(uint64_t seed, int n_per, double cx0, double cx1) {
  Dataset data(2);
  Rng rng(seed);
  for (int i = 0; i < n_per; ++i) {
    std::vector<double> p = {rng.Gaussian(cx0, 1.0), rng.Gaussian(0, 1.0)};
    data.Append(p);
  }
  for (int i = 0; i < n_per; ++i) {
    std::vector<double> p = {rng.Gaussian(cx1, 1.0), rng.Gaussian(0, 1.0)};
    data.Append(p);
  }
  return data;
}

std::vector<CfVector> SeedsAt(std::vector<std::vector<double>> centers) {
  std::vector<CfVector> seeds;
  for (auto& c : centers) seeds.push_back(CfVector::FromPoint(c));
  return seeds;
}

TEST(RefineTest, AssignsToNearestSeed) {
  Dataset data = TwoBlobs(51, 200, 0.0, 20.0);
  auto seeds = SeedsAt({{0.0, 0.0}, {20.0, 0.0}});
  RefineOptions o;
  auto result = RefineClusters(data, seeds, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  for (int i = 0; i < 200; ++i) EXPECT_EQ(r.labels[static_cast<size_t>(i)], 0);
  for (int i = 200; i < 400; ++i) {
    EXPECT_EQ(r.labels[static_cast<size_t>(i)], 1);
  }
  EXPECT_NEAR(r.clusters[0].n(), 200.0, 1e-9);
  EXPECT_NEAR(r.clusters[1].n(), 200.0, 1e-9);
}

TEST(RefineTest, CentroidsMoveTowardTruthAcrossPasses) {
  Dataset data = TwoBlobs(52, 500, 0.0, 12.0);
  // Seeds deliberately offset from the true centers.
  auto seeds = SeedsAt({{3.0, 2.0}, {9.0, -2.0}});
  RefineOptions o;
  o.passes = 10;
  auto result = RefineClusters(data, seeds, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  // After refinement the centroids sit near (0,0) and (12,0).
  auto c0 = r.clusters[0].Centroid();
  auto c1 = r.clusters[1].Centroid();
  if (c0[0] > c1[0]) std::swap(c0, c1);
  EXPECT_NEAR(c0[0], 0.0, 0.3);
  EXPECT_NEAR(c1[0], 12.0, 0.3);
  EXPECT_LT(r.passes_run, 10);  // converged early
}

TEST(RefineTest, OutlierDiscard) {
  Dataset data(2);
  Rng rng(53);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> p = {rng.Gaussian(0, 0.5), rng.Gaussian(0, 0.5)};
    data.Append(p);
  }
  std::vector<double> far = {500.0, 500.0};
  data.Append(far);
  auto seeds = SeedsAt({{0.0, 0.0}});
  RefineOptions o;
  o.outlier_distance = 10.0;
  auto result = RefineClusters(data, seeds, o);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().labels.back(), -1);
  EXPECT_EQ(result.value().points_discarded, 1u);
  EXPECT_NEAR(result.value().clusters[0].n(), 100.0, 1e-9);
}

TEST(RefineTest, LabelPointsDoesNotMoveSeeds) {
  Dataset data = TwoBlobs(54, 50, 0.0, 10.0);
  auto seeds = SeedsAt({{0.0, 0.0}, {10.0, 0.0}});
  auto result = LabelPoints(data, seeds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().passes_run, 1);
  EXPECT_EQ(result.value().labels.size(), data.size());
}

TEST(RefineTest, WeightedPointsCountWithWeight) {
  Dataset data(1);
  std::vector<double> a = {0.0}, b = {10.0};
  data.AppendWeighted(a, 7.0);
  data.AppendWeighted(b, 3.0);
  auto seeds = SeedsAt({{0.0}, {10.0}});
  auto result = LabelPoints(data, seeds);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().clusters[0].n(), 7.0, 1e-9);
  EXPECT_NEAR(result.value().clusters[1].n(), 3.0, 1e-9);
}

TEST(RefineTest, InvalidInputsRejected) {
  Dataset data = TwoBlobs(55, 10, 0.0, 5.0);
  RefineOptions o;
  EXPECT_EQ(RefineClusters(data, {}, o).status().code(),
            StatusCode::kInvalidArgument);
  auto seeds = SeedsAt({{0.0, 0.0}});
  o.passes = 0;
  EXPECT_EQ(RefineClusters(data, seeds, o).status().code(),
            StatusCode::kInvalidArgument);
  // Dimension mismatch.
  std::vector<CfVector> bad = {CfVector::FromPoint(std::vector<double>{1.0})};
  RefineOptions o2;
  EXPECT_EQ(RefineClusters(data, bad, o2).status().code(),
            StatusCode::kInvalidArgument);
}

/// Every double of every CF, as raw bits.
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

// A pool only labels: every cluster CF still receives its rows in row
// order, so labels and CF bits equal the null-pool run at every pool
// size.
TEST(RefineTest, PooledPassesEqualTheSerialRunBitwise) {
  for (size_t dim : {2, 16}) {
    Dataset data(dim);
    Rng rng(56);
    std::vector<double> p(dim);
    for (int i = 0; i < 5000; ++i) {
      for (double& x : p) x = rng.Gaussian(10.0 * (i % 4), 2.0);
      data.AppendWeighted(p, i % 7 == 0 ? 2.5 : 1.0);
    }
    std::vector<std::vector<double>> centers;
    for (int c = 0; c < 4; ++c) centers.emplace_back(dim, 10.0 * c + 1.0);
    const std::vector<CfVector> seeds = SeedsAt(centers);
    for (int passes : {1, 2}) {
      RefineOptions o;
      o.passes = passes;
      o.stop_when_stable = false;
      o.outlier_distance = 3.0 * std::sqrt(static_cast<double>(dim));
      auto serial = RefineClusters(data, seeds, o);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      EXPECT_GT(serial.value().points_discarded, 0u);
      for (int workers = 1; workers <= 4; ++workers) {
        exec::ThreadPool pool(workers);
        o.pool = &pool;
        auto pooled = RefineClusters(data, seeds, o);
        o.pool = nullptr;
        ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
        SCOPED_TRACE(testing::Message() << "dim=" << dim << " passes="
                                        << passes << " workers=" << workers);
        EXPECT_EQ(pooled.value().labels, serial.value().labels);
        EXPECT_EQ(CfBits(pooled.value().clusters),
                  CfBits(serial.value().clusters));
        EXPECT_EQ(pooled.value().points_discarded,
                  serial.value().points_discarded);
      }
    }
  }
}

}  // namespace
}  // namespace birch
