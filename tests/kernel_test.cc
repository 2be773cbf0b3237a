// Golden-equivalence tests for the column distance kernels, the only
// distance implementation the pipeline runs: every scan must agree
// BITWISE with the per-CF oracle kept here as test code (Distance() in
// metrics.cc, the CfVector algebra, SquaredDistance loops) — same
// distances, same winners — across metrics D0-D4, the merged diameter
// and radius the absorb test reads, classic and BETULA CFs, a sweep of
// dimensionalities, and adversarial near-ties.
// golden_test pins the end-to-end bits.
#include "birch/kernel/kernel.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "birch/metrics.h"
#include "center_batch_cases.h"
#include "cf_batch_cases.h"
#include "util/math.h"
#include "util/random.h"

namespace birch {
namespace kernel {
namespace {

constexpr DistanceMetric kAllMetrics[] = {
    DistanceMetric::kD0, DistanceMetric::kD1, DistanceMetric::kD2,
    DistanceMetric::kD3, DistanceMetric::kD4};

constexpr size_t kDims[] = {1, 2, 16, 64};

/// A CF of `points` random points in [-spread, spread]^dim. One-point
/// CFs (n == 1) exercise the zero-diameter / zero-SSD special cases.
CfVector RandomCf(Rng* rng, size_t dim, int points, double spread,
                  CfRepresentation rep = CfRepresentation::kClassic) {
  CfVector cf(dim, rep);
  std::vector<double> x(dim);
  for (int p = 0; p < points; ++p) {
    for (auto& v : x) v = rng->Uniform(-spread, spread);
    cf.AddPoint(x, /*weight=*/1.0 + rng->NextDouble());
  }
  return cf;
}

std::vector<CfVector> RandomCfs(
    Rng* rng, size_t dim, size_t count,
    CfRepresentation rep = CfRepresentation::kClassic) {
  std::vector<CfVector> cfs;
  cfs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Mix of single-point and multi-point CFs at different scales.
    int points = (i % 3 == 0) ? 1 : static_cast<int>(1 + rng->UniformInt(20));
    cfs.push_back(RandomCf(rng, dim, points, i % 2 == 0 ? 1.0 : 50.0, rep));
  }
  return cfs;
}

TEST(CfBatchTest, FillDistancesBitwiseEqualsScalarOracle) {
  Rng rng(7);
  for (size_t dim : kDims) {
    auto cfs = RandomCfs(&rng, dim, 33);
    CfVector query = RandomCf(&rng, dim, 5, 10.0);
    for (DistanceMetric metric : kAllMetrics) {
      CfBatch batch;
      batch.Init(dim, cfs.size(), CfBatch::Needs::For(metric));
      batch.Assign(cfs);
      Workspace ws;
      CfQuery q;
      q.Prepare(query, metric, &ws.query_centroid);
      FillDistances(batch, q, metric, &ws);
      ASSERT_EQ(ws.dist.size(), cfs.size());
      for (size_t j = 0; j < cfs.size(); ++j) {
        double oracle = Distance(metric, query, cfs[j]);
        EXPECT_EQ(ws.dist[j], oracle)
            << MetricName(metric) << " dim=" << dim << " j=" << j;
      }
    }
  }
}

TEST(CfBatchTest, BetulaFillDistancesBitwiseEqualsScalarOracle) {
  // Same contract as the classic test, under the BETULA representation:
  // the batch kernel must agree BITWISE with the scalar oracle for
  // every metric.
  Rng rng(7);
  for (size_t dim : kDims) {
    auto cfs = RandomCfs(&rng, dim, 33, CfRepresentation::kBetula);
    CfVector query = RandomCf(&rng, dim, 5, 10.0, CfRepresentation::kBetula);
    for (DistanceMetric metric : kAllMetrics) {
      CfBatch batch;
      batch.Init(dim, cfs.size(),
                 CfBatch::Needs::For(metric, CfRepresentation::kBetula));
      batch.Assign(cfs);
      Workspace ws;
      CfQuery q;
      q.Prepare(query, metric, &ws.query_centroid);
      FillDistances(batch, q, metric, &ws);
      ASSERT_EQ(ws.dist.size(), cfs.size());
      for (size_t j = 0; j < cfs.size(); ++j) {
        double oracle = Distance(metric, query, cfs[j]);
        EXPECT_EQ(ws.dist[j], oracle)
            << MetricName(metric) << " dim=" << dim << " j=" << j;
      }
    }
  }
}

TEST(CfBatchTest, BetulaNearestEntryMatchesScalarArgmin) {
  Rng rng(11);
  for (size_t dim : {size_t{2}, size_t{16}}) {
    auto cfs = RandomCfs(&rng, dim, 40, CfRepresentation::kBetula);
    CfVector query = RandomCf(&rng, dim, 3, 10.0, CfRepresentation::kBetula);
    std::vector<uint8_t> active(cfs.size(), 1);
    active[3] = active[17] = 0;
    const size_t exclude = 8;
    for (DistanceMetric metric : kAllMetrics) {
      CfBatch batch;
      batch.Init(dim, cfs.size(),
                 CfBatch::Needs::For(metric, CfRepresentation::kBetula));
      batch.Assign(cfs);
      Workspace ws;
      CfQuery q;
      q.Prepare(query, metric, &ws.query_centroid);
      ScanResult r =
          NearestEntry(batch, q, metric, &ws, active.data(), exclude);

      size_t best = static_cast<size_t>(-1);
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < cfs.size(); ++j) {
        if (j == exclude || !active[j]) continue;
        double d = Distance(metric, query, cfs[j]);
        if (d < best_d) {
          best_d = d;
          best = j;
        }
      }
      EXPECT_EQ(r.index, best) << MetricName(metric) << " dim=" << dim;
      EXPECT_EQ(r.distance, best_d)
          << MetricName(metric) << " dim=" << dim;
    }
  }
}

TEST(CfBatchTest, NearestEntryMatchesScalarArgmin) {
  Rng rng(11);
  for (size_t dim : {size_t{2}, size_t{16}}) {
    auto cfs = RandomCfs(&rng, dim, 40);
    CfVector query = RandomCf(&rng, dim, 3, 10.0);
    std::vector<uint8_t> active(cfs.size(), 1);
    active[3] = active[17] = 0;
    const size_t exclude = 8;
    for (DistanceMetric metric : kAllMetrics) {
      CfBatch batch;
      batch.Init(dim, cfs.size(), CfBatch::Needs::For(metric));
      batch.Assign(cfs);
      Workspace ws;
      CfQuery q;
      q.Prepare(query, metric, &ws.query_centroid);
      ScanResult r =
          NearestEntry(batch, q, metric, &ws, active.data(), exclude);

      size_t best = static_cast<size_t>(-1);
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < cfs.size(); ++j) {
        if (j == exclude || !active[j]) continue;
        double d = Distance(metric, query, cfs[j]);
        if (d < best_d) {
          best_d = d;
          best = j;
        }
      }
      EXPECT_EQ(r.index, best) << MetricName(metric) << " dim=" << dim;
      EXPECT_EQ(r.distance, best_d) << MetricName(metric) << " dim=" << dim;
    }
  }
}

TEST(CfBatchTest, ExactTiesAreFirstWins) {
  // Several bitwise-identical candidates: the scalar loop's strict `<`
  // keeps the first, so the batch scan must return the lowest index.
  Rng rng(13);
  CfVector proto = RandomCf(&rng, 4, 6, 5.0);
  std::vector<CfVector> cfs = {proto, proto, proto, proto};
  CfVector query = RandomCf(&rng, 4, 2, 5.0);
  for (DistanceMetric metric : kAllMetrics) {
    CfBatch batch;
    batch.Init(4, cfs.size(), CfBatch::Needs::For(metric));
    batch.Assign(cfs);
    Workspace ws;
    CfQuery q;
    q.Prepare(query, metric, &ws.query_centroid);
    ScanResult r = NearestEntry(batch, q, metric, &ws);
    EXPECT_EQ(r.index, 0u) << MetricName(metric);

    // With index 0 masked out, the next identical candidate wins.
    std::vector<uint8_t> active(cfs.size(), 1);
    active[0] = 0;
    ScanResult r2 = NearestEntry(batch, q, metric, &ws, active.data());
    EXPECT_EQ(r2.index, 1u) << MetricName(metric);
    EXPECT_EQ(r2.distance, r.distance) << MetricName(metric);
  }
}

TEST(CfBatchTest, NearTiesResolveLikeScalar) {
  // Two candidates whose distances differ only in the last few ulps:
  // whatever the scalar oracle ranks, the batch scan must rank the
  // same way (this is where an FMA or a reordered sum would diverge).
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    CfVector a = RandomCf(&rng, 8, 7, 3.0);
    CfVector b = a;
    // Nudge one accumulated point by one representable step.
    std::vector<double> eps(8, 0.0);
    eps[trial % 8] = 1e-15;
    b.AddPoint(eps, 1e-12);
    std::vector<CfVector> cfs = {a, b};
    CfVector query = RandomCf(&rng, 8, 4, 3.0);
    for (DistanceMetric metric : kAllMetrics) {
      CfBatch batch;
      batch.Init(8, cfs.size(), CfBatch::Needs::For(metric));
      batch.Assign(cfs);
      Workspace ws;
      CfQuery q;
      q.Prepare(query, metric, &ws.query_centroid);
      ScanResult r = NearestEntry(batch, q, metric, &ws);
      double d0 = Distance(metric, query, a);
      double d1 = Distance(metric, query, b);
      size_t want = d1 < d0 ? 1u : 0u;  // strict <: ties keep index 0
      EXPECT_EQ(r.index, want) << MetricName(metric) << " trial=" << trial;
    }
  }
}

TEST(CfBatchTest, AppendAndUpdateMatchFreshAssign) {
  Rng rng(19);
  const size_t dim = 6;
  auto cfs = RandomCfs(&rng, dim, 10);
  CfVector query = RandomCf(&rng, dim, 3, 5.0);
  for (DistanceMetric metric : kAllMetrics) {
    CfBatch incremental;
    incremental.Init(dim, 16, CfBatch::Needs::For(metric));
    incremental.Assign(cfs);

    // Mutate a row in place (the absorb path) and append a new entry.
    cfs[4].Add(RandomCf(&rng, dim, 3, 5.0));
    incremental.Update(4, cfs[4]);
    cfs.push_back(RandomCf(&rng, dim, 2, 5.0));
    incremental.Append(cfs.back());
    ASSERT_EQ(incremental.size(), cfs.size());

    CfBatch fresh;
    fresh.Init(dim, 16, CfBatch::Needs::For(metric));
    fresh.Assign(cfs);

    Workspace wsi, wsf;
    CfQuery q;
    q.Prepare(query, metric, &wsi.query_centroid);
    CfQuery qf;
    qf.Prepare(query, metric, &wsf.query_centroid);
    FillDistances(incremental, q, metric, &wsi);
    FillDistances(fresh, qf, metric, &wsf);
    for (size_t j = 0; j < cfs.size(); ++j) {
      EXPECT_EQ(wsi.dist[j], wsf.dist[j])
          << MetricName(metric) << " j=" << j;
    }
  }
}

TEST(CfBatchTest, SqrtTiesKeepTheEarlierCandidate) {
  cf_batch_cases::RunSqrtTieCases();
}

TEST(CfBatchTest, ScansOfEverySizeMatchOracle) {
  cf_batch_cases::RunScanSizeCases();
}

TEST(CfBatchTest, InPlaceAddMatchesLoadAddUpdate) {
  cf_batch_cases::RunInPlaceAddCases();
}

TEST(MergedStatTest, MergedDiameterAndRadiusMatchMergedCf) {
  Rng rng(23);
  for (size_t dim : kDims) {
    for (int trial = 0; trial < 25; ++trial) {
      CfVector a = RandomCf(&rng, dim, 1 + static_cast<int>(trial % 4), 8.0);
      CfVector b = RandomCf(&rng, dim, 1 + static_cast<int>(trial % 7), 8.0);
      CfVector merged = CfVector::Merged(a, b);
      EXPECT_EQ(MergedDiameter(a, b), merged.Diameter())
          << "dim=" << dim << " trial=" << trial;
      EXPECT_EQ(MergedRadius(a, b), merged.Radius())
          << "dim=" << dim << " trial=" << trial;
    }
  }
}

TEST(MergedStatTest, BetulaMergedStatsMatchMergedCf) {
  Rng rng(23);
  for (size_t dim : kDims) {
    for (int trial = 0; trial < 25; ++trial) {
      CfVector a = RandomCf(&rng, dim, 1 + static_cast<int>(trial % 4),
                            8.0, CfRepresentation::kBetula);
      CfVector b = RandomCf(&rng, dim, 1 + static_cast<int>(trial % 7),
                            8.0, CfRepresentation::kBetula);
      CfVector merged = CfVector::Merged(a, b);
      EXPECT_EQ(MergedDiameter(a, b), merged.Diameter())
          << "dim=" << dim << " trial=" << trial;
      EXPECT_EQ(MergedRadius(a, b), merged.Radius())
          << "dim=" << dim << " trial=" << trial;
    }
  }
}

TEST(CenterBatchTest, NearestSqMatchesScalarLoop) {
  Rng rng(29);
  for (size_t dim : kDims) {
    std::vector<std::vector<double>> centers(9);
    for (auto& c : centers) {
      c.resize(dim);
      for (auto& v : c) v = rng.Uniform(-10.0, 10.0);
    }
    const CfBatch batch = center_batch_cases::CentroidBlock(
        center_batch_cases::PointCfs(centers, CfRepresentation::kClassic));
    std::vector<double> p(dim);
    for (int trial = 0; trial < 40; ++trial) {
      for (auto& v : p) v = rng.Uniform(-12.0, 12.0);
      ScanResult r = batch.NearestCentroidSq(p);

      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < centers.size(); ++c) {
        double d = SquaredDistance(p, centers[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      EXPECT_EQ(r.index, best) << "dim=" << dim << " trial=" << trial;
      EXPECT_EQ(r.distance, best_d) << "dim=" << dim << " trial=" << trial;
    }
  }
  center_batch_cases::RunNearestSqCases(31);
}

}  // namespace
}  // namespace kernel
}  // namespace birch
