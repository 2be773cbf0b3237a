// Portable-path golden tests: this binary recompiles the kernel
// WITHOUT BIRCH_KERNEL_AVX2, so on any machine — including one whose
// CPU has AVX2, where the regular binaries always dispatch to the SIMD
// lane — these assertions pin the portable column primitives to the
// scalar oracle. Kernel-level subset of kernel_test.cc (no tree /
// Phase-3 / Phase-4 here: only the kernel TU and the CF algebra are
// compiled in).
#include "birch/kernel/kernel.h"

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

TEST(PortableKernelTest, Avx2LaneIsCompiledOut) {
  EXPECT_FALSE(Avx2Active());
}

TEST(PortableKernelTest, FillDistancesBitwiseEqualsScalarOracle) {
  Rng rng(7);
  for (size_t dim : {size_t{1}, size_t{2}, size_t{16}, size_t{64}}) {
    std::vector<CfVector> cfs;
    for (size_t i = 0; i < 33; ++i) {
      int points =
          (i % 3 == 0) ? 1 : static_cast<int>(1 + rng.UniformInt(20));
      cfs.push_back(RandomCf(&rng, dim, points, i % 2 == 0 ? 1.0 : 50.0));
    }
    CfVector query = RandomCf(&rng, dim, 5, 10.0);
    for (DistanceMetric metric : kAllMetrics) {
      CfBatch batch;
      batch.Init(dim, cfs.size(), CfBatch::Needs::For(metric));
      batch.Assign(cfs);
      Workspace ws;
      CfQuery q;
      q.Prepare(query, metric, &ws.query_centroid);
      FillDistances(batch, q, metric, &ws);
      for (size_t j = 0; j < cfs.size(); ++j) {
        EXPECT_EQ(ws.dist[j], Distance(metric, query, cfs[j]))
            << MetricName(metric) << " dim=" << dim << " j=" << j;
      }
    }
  }
}

TEST(PortableKernelTest, NearestEntryAndMergedStatsMatchOracle) {
  Rng rng(11);
  const size_t dim = 8;
  std::vector<CfVector> cfs;
  for (size_t i = 0; i < 40; ++i) {
    cfs.push_back(RandomCf(&rng, dim, 1 + static_cast<int>(i % 6), 10.0));
  }
  CfVector query = RandomCf(&rng, dim, 3, 10.0);
  for (DistanceMetric metric : kAllMetrics) {
    CfBatch batch;
    batch.Init(dim, cfs.size(), CfBatch::Needs::For(metric));
    batch.Assign(cfs);
    Workspace ws;
    CfQuery q;
    q.Prepare(query, metric, &ws.query_centroid);
    ScanResult r = NearestEntry(batch, q, metric, &ws);

    size_t best = static_cast<size_t>(-1);
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < cfs.size(); ++j) {
      double d = Distance(metric, query, cfs[j]);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    EXPECT_EQ(r.index, best) << MetricName(metric);
    EXPECT_EQ(r.distance, best_d) << MetricName(metric);
  }

  for (size_t i = 1; i < cfs.size(); ++i) {
    CfVector merged = CfVector::Merged(cfs[i - 1], cfs[i]);
    EXPECT_EQ(MergedDiameter(cfs[i - 1], cfs[i]), merged.Diameter());
    EXPECT_EQ(MergedRadius(cfs[i - 1], cfs[i]), merged.Radius());
  }
}

TEST(PortableKernelTest, BetulaFillDistancesBitwiseEqualsScalarOracle) {
  // BETULA portable leg: the same bitwise contract for the
  // mean/deviation representation.
  Rng rng(7);
  for (size_t dim : {size_t{1}, size_t{2}, size_t{16}, size_t{64}}) {
    std::vector<CfVector> cfs;
    for (size_t i = 0; i < 33; ++i) {
      int points =
          (i % 3 == 0) ? 1 : static_cast<int>(1 + rng.UniformInt(20));
      cfs.push_back(RandomCf(&rng, dim, points, i % 2 == 0 ? 1.0 : 50.0,
                             CfRepresentation::kBetula));
    }
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
      for (size_t j = 0; j < cfs.size(); ++j) {
        EXPECT_EQ(ws.dist[j], Distance(metric, query, cfs[j]))
            << MetricName(metric) << " dim=" << dim << " j=" << j;
      }
    }
  }
}

TEST(PortableKernelTest, SqrtTiesKeepTheEarlierCandidate) {
  cf_batch_cases::RunSqrtTieCases();
}

TEST(PortableKernelTest, ScansOfEverySizeMatchOracle) {
  cf_batch_cases::RunScanSizeCases();
}

TEST(PortableKernelTest, InPlaceAddMatchesLoadAddUpdate) {
  cf_batch_cases::RunInPlaceAddCases();
}

TEST(PortableKernelTest, BetulaMergedStatsMatchOracle) {
  Rng rng(17);
  const size_t dim = 8;
  std::vector<CfVector> cfs;
  for (size_t i = 0; i < 20; ++i) {
    cfs.push_back(RandomCf(&rng, dim, 1 + static_cast<int>(i % 6), 10.0,
                           CfRepresentation::kBetula));
  }
  for (size_t i = 1; i < cfs.size(); ++i) {
    CfVector merged = CfVector::Merged(cfs[i - 1], cfs[i]);
    EXPECT_EQ(MergedDiameter(cfs[i - 1], cfs[i]), merged.Diameter());
    EXPECT_EQ(MergedRadius(cfs[i - 1], cfs[i]), merged.Radius());
  }
}

TEST(PortableKernelTest, CenterBatchMatchesScalarLoop) {
  Rng rng(29);
  const size_t dim = 5;
  std::vector<std::vector<double>> centers(7);
  for (auto& c : centers) {
    c.resize(dim);
    for (auto& v : c) v = rng.Uniform(-10.0, 10.0);
  }
  const CfBatch batch = center_batch_cases::CentroidBlock(
      center_batch_cases::PointCfs(centers, CfRepresentation::kClassic));
  std::vector<double> p(dim);
  for (int trial = 0; trial < 50; ++trial) {
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
    EXPECT_EQ(r.index, best) << "trial " << trial;
    EXPECT_EQ(r.distance, best_d) << "trial " << trial;
  }
  center_batch_cases::RunNearestSqCases(31);
}

}  // namespace
}  // namespace kernel
}  // namespace birch
