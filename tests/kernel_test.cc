// Golden-equivalence tests for the batched SoA distance kernels: the
// batch path must agree BITWISE with the scalar oracle (metrics.cc /
// cf_vector.cc) — same distances, same winners — across metrics D0-D4,
// both threshold kinds, a sweep of dimensionalities, and adversarial
// near-ties. End-to-end, a kBatch pipeline must reproduce a kScalar
// pipeline exactly (tree shape, stats, Phase-3/4 outputs).
#include "birch/kernel/kernel.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "birch/cf_tree.h"
#include "birch/global_cluster.h"
#include "birch/metrics.h"
#include "birch/refine.h"
#include "center_batch_cases.h"
#include "cf_batch_cases.h"
#include "pagestore/memory_tracker.h"
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
                  CfRepresentation rep = CfRepresentation::kClassic,
                  CfStorage storage = CfStorage::kF64) {
  CfVector cf(dim, rep, storage);
  std::vector<double> x(dim);
  for (int p = 0; p < points; ++p) {
    for (auto& v : x) v = rng->Uniform(-spread, spread);
    cf.AddPoint(x, /*weight=*/1.0 + rng->NextDouble());
  }
  return cf;
}

std::vector<CfVector> RandomCfs(Rng* rng, size_t dim, size_t count,
                                CfRepresentation rep = CfRepresentation::kClassic,
                                CfStorage storage = CfStorage::kF64) {
  std::vector<CfVector> cfs;
  cfs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Mix of single-point and multi-point CFs at different scales.
    int points = (i % 3 == 0) ? 1 : static_cast<int>(1 + rng->UniformInt(20));
    cfs.push_back(
        RandomCf(rng, dim, points, i % 2 == 0 ? 1.0 : 50.0, rep, storage));
  }
  return cfs;
}

constexpr CfStorage kBetulaStorages[] = {CfStorage::kF64, CfStorage::kF32};

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
  // Same contract as the classic test, under the BETULA representation
  // (f64 and f32 storage): the batch kernel must agree BITWISE with
  // the scalar oracle for every metric.
  Rng rng(7);
  for (CfStorage storage : kBetulaStorages) {
    for (size_t dim : kDims) {
      auto cfs =
          RandomCfs(&rng, dim, 33, CfRepresentation::kBetula, storage);
      CfVector query =
          RandomCf(&rng, dim, 5, 10.0, CfRepresentation::kBetula, storage);
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
              << MetricName(metric) << " dim=" << dim << " j=" << j
              << " storage=" << CfStorageName(storage);
        }
      }
    }
  }
}

TEST(CfBatchTest, BetulaNearestEntryMatchesScalarArgmin) {
  Rng rng(11);
  for (CfStorage storage : kBetulaStorages) {
    for (size_t dim : {size_t{2}, size_t{16}}) {
      auto cfs =
          RandomCfs(&rng, dim, 40, CfRepresentation::kBetula, storage);
      CfVector query =
          RandomCf(&rng, dim, 3, 10.0, CfRepresentation::kBetula, storage);
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
            << MetricName(metric) << " dim=" << dim
            << " storage=" << CfStorageName(storage);
      }
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
  for (CfStorage storage : kBetulaStorages) {
    for (size_t dim : kDims) {
      for (int trial = 0; trial < 25; ++trial) {
        CfVector a = RandomCf(&rng, dim, 1 + static_cast<int>(trial % 4),
                              8.0, CfRepresentation::kBetula, storage);
        CfVector b = RandomCf(&rng, dim, 1 + static_cast<int>(trial % 7),
                              8.0, CfRepresentation::kBetula, storage);
        CfVector merged = CfVector::Merged(a, b);
        EXPECT_EQ(MergedDiameter(a, b), merged.Diameter())
            << "dim=" << dim << " trial=" << trial
            << " storage=" << CfStorageName(storage);
        EXPECT_EQ(MergedRadius(a, b), merged.Radius())
            << "dim=" << dim << " trial=" << trial
            << " storage=" << CfStorageName(storage);
      }
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
    CenterBatch batch;
    batch.Assign(centers);
    std::vector<double> p(dim);
    for (int trial = 0; trial < 40; ++trial) {
      for (auto& v : p) v = rng.Uniform(-12.0, 12.0);
      ScanResult r = batch.NearestSq(p);

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

/// Inserts the same random stream into a kScalar tree and a kBatch
/// tree; every outcome, stat, and leaf CF must match exactly.
void TreeEquivalenceCase(DistanceMetric metric, ThresholdKind kind,
                         CfRepresentation rep = CfRepresentation::kClassic,
                         CfStorage storage = CfStorage::kF64) {
  CfTreeOptions base;
  base.dim = 2;
  base.page_size = 256;  // small fanout: plenty of splits + refinements
  base.threshold = 0.4;
  base.metric = metric;
  base.threshold_kind = kind;
  base.cf = rep;
  base.cf_storage = storage;

  CfTreeOptions scalar = base;
  scalar.kernel = KernelKind::kScalar;
  CfTreeOptions batch = base;
  batch.kernel = KernelKind::kBatch;

  MemoryTracker mem_s, mem_b;
  CfTree tree_s(scalar, &mem_s);
  CfTree tree_b(batch, &mem_b);

  Rng rng(31);
  std::vector<double> p(2);
  for (int i = 0; i < 600; ++i) {
    // Clustered with occasional far-flung singletons.
    double cx = static_cast<double>(rng.UniformInt(5)) * 4.0;
    p[0] = cx + rng.Uniform(-0.5, 0.5);
    p[1] = rng.Uniform(-0.5, 0.5);
    if (i % 97 == 0) p[0] += 100.0;
    InsertOutcome a = tree_s.InsertPoint(p);
    InsertOutcome b = tree_b.InsertPoint(p);
    ASSERT_EQ(a, b) << MetricName(metric) << " i=" << i;
  }

  EXPECT_EQ(tree_s.leaf_entry_count(), tree_b.leaf_entry_count());
  EXPECT_EQ(tree_s.node_count(), tree_b.node_count());
  EXPECT_EQ(tree_s.height(), tree_b.height());
  const CfTreeStats& ss = tree_s.stats();
  const CfTreeStats& sb = tree_b.stats();
  EXPECT_EQ(ss.absorbed, sb.absorbed);
  EXPECT_EQ(ss.new_entries, sb.new_entries);
  EXPECT_EQ(ss.leaf_splits, sb.leaf_splits);
  EXPECT_EQ(ss.nonleaf_splits, sb.nonleaf_splits);
  EXPECT_EQ(ss.merge_refinements, sb.merge_refinements);
  EXPECT_EQ(ss.distance_comparisons, sb.distance_comparisons);

  std::vector<CfVector> leaves_s, leaves_b;
  tree_s.CollectLeafEntries(&leaves_s);
  tree_b.CollectLeafEntries(&leaves_b);
  ASSERT_EQ(leaves_s.size(), leaves_b.size());
  for (size_t i = 0; i < leaves_s.size(); ++i) {
    EXPECT_EQ(leaves_s[i], leaves_b[i]) << "leaf " << i;
  }
}

TEST(TreeKernelEquivalenceTest, AllMetricsDiameterThreshold) {
  for (DistanceMetric metric : kAllMetrics) {
    TreeEquivalenceCase(metric, ThresholdKind::kDiameter);
  }
}

TEST(TreeKernelEquivalenceTest, AllMetricsRadiusThreshold) {
  for (DistanceMetric metric : kAllMetrics) {
    TreeEquivalenceCase(metric, ThresholdKind::kRadius);
  }
}

TEST(TreeKernelEquivalenceTest, BetulaAllMetricsDiameterThreshold) {
  for (DistanceMetric metric : kAllMetrics) {
    TreeEquivalenceCase(metric, ThresholdKind::kDiameter,
                        CfRepresentation::kBetula);
  }
}

TEST(TreeKernelEquivalenceTest, BetulaAllMetricsRadiusThreshold) {
  for (DistanceMetric metric : kAllMetrics) {
    TreeEquivalenceCase(metric, ThresholdKind::kRadius,
                        CfRepresentation::kBetula);
  }
}

TEST(TreeKernelEquivalenceTest, BetulaF32AllMetricsDiameterThreshold) {
  // The f32 storage mode quantizes after every CF mutation; scalar and
  // batch must still agree bitwise on the quantized values.
  for (DistanceMetric metric : kAllMetrics) {
    TreeEquivalenceCase(metric, ThresholdKind::kDiameter,
                        CfRepresentation::kBetula, CfStorage::kF32);
  }
}

GlobalClusterOptions GlobalOpts(GlobalAlgorithm algorithm,
                                KernelKind kernel) {
  GlobalClusterOptions g;
  g.k = 5;
  g.algorithm = algorithm;
  g.seed = 99;
  g.kernel = kernel;
  return g;
}

TEST(GlobalKernelEquivalenceTest, HierarchicalScalarVsBatch) {
  Rng rng(37);
  auto cfs = RandomCfs(&rng, 3, 80);
  for (DistanceMetric metric : kAllMetrics) {
    auto s = GlobalOpts(GlobalAlgorithm::kHierarchical, KernelKind::kScalar);
    auto b = GlobalOpts(GlobalAlgorithm::kHierarchical, KernelKind::kBatch);
    s.metric = b.metric = metric;
    auto rs = GlobalCluster(cfs, s);
    auto rb = GlobalCluster(cfs, b);
    ASSERT_TRUE(rs.ok() && rb.ok()) << MetricName(metric);
    EXPECT_EQ(rs.value().assignment, rb.value().assignment)
        << MetricName(metric);
    ASSERT_EQ(rs.value().clusters.size(), rb.value().clusters.size());
    for (size_t c = 0; c < rs.value().clusters.size(); ++c) {
      EXPECT_EQ(rs.value().clusters[c], rb.value().clusters[c])
          << MetricName(metric) << " cluster " << c;
    }
  }
}

TEST(GlobalKernelEquivalenceTest, KMeansScalarVsBatch) {
  Rng rng(41);
  auto cfs = RandomCfs(&rng, 3, 120);
  auto rs = GlobalCluster(
      cfs, GlobalOpts(GlobalAlgorithm::kKMeans, KernelKind::kScalar));
  auto rb = GlobalCluster(
      cfs, GlobalOpts(GlobalAlgorithm::kKMeans, KernelKind::kBatch));
  ASSERT_TRUE(rs.ok() && rb.ok());
  EXPECT_EQ(rs.value().assignment, rb.value().assignment);
  ASSERT_EQ(rs.value().clusters.size(), rb.value().clusters.size());
  for (size_t c = 0; c < rs.value().clusters.size(); ++c) {
    EXPECT_EQ(rs.value().clusters[c], rb.value().clusters[c]);
  }
}

TEST(GlobalKernelEquivalenceTest, BetulaHierarchicalScalarVsBatch) {
  Rng rng(37);
  auto cfs = RandomCfs(&rng, 3, 80, CfRepresentation::kBetula);
  for (DistanceMetric metric : kAllMetrics) {
    auto s = GlobalOpts(GlobalAlgorithm::kHierarchical, KernelKind::kScalar);
    auto b = GlobalOpts(GlobalAlgorithm::kHierarchical, KernelKind::kBatch);
    s.metric = b.metric = metric;
    auto rs = GlobalCluster(cfs, s);
    auto rb = GlobalCluster(cfs, b);
    ASSERT_TRUE(rs.ok() && rb.ok()) << MetricName(metric);
    EXPECT_EQ(rs.value().assignment, rb.value().assignment)
        << MetricName(metric);
    ASSERT_EQ(rs.value().clusters.size(), rb.value().clusters.size());
    for (size_t c = 0; c < rs.value().clusters.size(); ++c) {
      EXPECT_EQ(rs.value().clusters[c], rb.value().clusters[c])
          << MetricName(metric) << " cluster " << c;
    }
  }
}

TEST(GlobalKernelEquivalenceTest, BetulaKMeansScalarVsBatch) {
  Rng rng(41);
  auto cfs = RandomCfs(&rng, 3, 120, CfRepresentation::kBetula);
  auto rs = GlobalCluster(
      cfs, GlobalOpts(GlobalAlgorithm::kKMeans, KernelKind::kScalar));
  auto rb = GlobalCluster(
      cfs, GlobalOpts(GlobalAlgorithm::kKMeans, KernelKind::kBatch));
  ASSERT_TRUE(rs.ok() && rb.ok());
  EXPECT_EQ(rs.value().assignment, rb.value().assignment);
  ASSERT_EQ(rs.value().clusters.size(), rb.value().clusters.size());
  for (size_t c = 0; c < rs.value().clusters.size(); ++c) {
    EXPECT_EQ(rs.value().clusters[c], rb.value().clusters[c]);
  }
}

TEST(RefineKernelEquivalenceTest, BetulaScalarVsBatch) {
  Rng rng(43);
  Dataset data(2);
  std::vector<double> p(2);
  for (int i = 0; i < 400; ++i) {
    double cx = static_cast<double>(rng.UniformInt(3)) * 10.0;
    p[0] = cx + rng.Gaussian(0.0, 1.0);
    p[1] = rng.Gaussian(0.0, 1.0);
    data.Append(p);
  }
  std::vector<CfVector> seeds;
  for (double cx : {0.5, 9.0, 21.0}) {
    std::vector<double> s = {cx, 0.3};
    seeds.push_back(CfVector::FromPoint(s, 1.0, CfRepresentation::kBetula));
  }
  RefineOptions s;
  s.passes = 4;
  s.outlier_distance = 8.0;
  s.kernel = KernelKind::kScalar;
  RefineOptions b = s;
  b.kernel = KernelKind::kBatch;
  auto rs = RefineClusters(data, seeds, s);
  auto rb = RefineClusters(data, seeds, b);
  ASSERT_TRUE(rs.ok() && rb.ok());
  EXPECT_EQ(rs.value().labels, rb.value().labels);
  ASSERT_EQ(rs.value().clusters.size(), rb.value().clusters.size());
  for (size_t c = 0; c < rs.value().clusters.size(); ++c) {
    EXPECT_EQ(rs.value().clusters[c], rb.value().clusters[c]);
    EXPECT_EQ(rs.value().clusters[c].rep(), CfRepresentation::kBetula);
  }
}

TEST(RefineKernelEquivalenceTest, ScalarVsBatch) {
  Rng rng(43);
  Dataset data(2);
  std::vector<double> p(2);
  for (int i = 0; i < 400; ++i) {
    double cx = static_cast<double>(rng.UniformInt(3)) * 10.0;
    p[0] = cx + rng.Gaussian(0.0, 1.0);
    p[1] = rng.Gaussian(0.0, 1.0);
    data.Append(p);
  }
  std::vector<CfVector> seeds;
  for (double cx : {0.5, 9.0, 21.0}) {
    std::vector<double> s = {cx, 0.3};
    seeds.push_back(CfVector::FromPoint(s));
  }
  RefineOptions s;
  s.passes = 4;
  s.outlier_distance = 8.0;
  s.kernel = KernelKind::kScalar;
  RefineOptions b = s;
  b.kernel = KernelKind::kBatch;
  auto rs = RefineClusters(data, seeds, s);
  auto rb = RefineClusters(data, seeds, b);
  ASSERT_TRUE(rs.ok() && rb.ok());
  EXPECT_EQ(rs.value().labels, rb.value().labels);
  EXPECT_EQ(rs.value().passes_run, rb.value().passes_run);
  EXPECT_EQ(rs.value().points_discarded, rb.value().points_discarded);
  ASSERT_EQ(rs.value().clusters.size(), rb.value().clusters.size());
  for (size_t c = 0; c < rs.value().clusters.size(); ++c) {
    EXPECT_EQ(rs.value().clusters[c], rb.value().clusters[c]);
  }
}

TEST(KernelInfoTest, NamesAndDispatchAreSane) {
  EXPECT_STREQ(KernelName(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(KernelName(KernelKind::kBatch), "batch");
  EXPECT_FALSE(IsBatchKernel(KernelKind::kScalar));
  EXPECT_TRUE(IsBatchKernel(KernelKind::kBatch));
  // Whichever implementation the runtime dispatch picked, it must have
  // produced oracle-identical results above; just record the lane.
  (void)Avx2Active();
}

}  // namespace
}  // namespace kernel
}  // namespace birch
