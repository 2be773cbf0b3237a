// Adversarial input tests for the full pipeline: pathological input
// orders and degenerate geometries that historically break incremental
// clustering — sorted scans, all-duplicate streams, mixed scales,
// collinear data, and clusters arriving one at a time under a tiny
// memory budget. Each case must terminate, conserve points, and (where
// ground truth exists) still recover the clusters. Rows whose squared
// distances overflow must complete, and NaN or infinite coordinates
// and malformed CSV rows must be rejected with InvalidArgument, serially
// and sharded.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "birch/birch.h"
#include "birch/dataset_io.h"
#include "datagen/generator.h"
#include "eval/matching.h"
#include "eval/quality.h"
#include "util/random.h"

namespace birch {
namespace {

BirchOptions TinyOptions(int k, size_t dim = 2) {
  BirchOptions o;
  o.dim = dim;
  o.k = k;
  o.resources.memory_bytes = 16 * 1024;
  o.resources.disk_bytes = 4 * 1024;
  o.resources.page_size = 512;
  return o;
}

double TotalClusterPoints(const BirchResult& r) {
  double s = 0.0;
  for (const auto& c : r.clusters) s += c.n();
  return s;
}

TEST(AdversarialTest, SortedByXThenY) {
  // Lexicographically sorted input maximizes locality skew.
  GeneratorOptions g;
  g.k = 9;
  g.n_low = g.n_high = 400;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 10.0;
  g.seed = 301;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  Dataset& data = gen.value().data;
  // Sort rows by (x, y).
  std::vector<size_t> idx(data.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    auto ra = data.Row(a), rb = data.Row(b);
    return ra[0] != rb[0] ? ra[0] < rb[0] : ra[1] < rb[1];
  });
  Dataset sorted(2);
  for (size_t i : idx) sorted.Append(data.Row(i));

  auto result = ClusterDataset(sorted, TinyOptions(9));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  MatchReport match = MatchClusters(gen.value().actual,
                                    result.value().clusters);
  EXPECT_EQ(match.matched, 9);
  EXPECT_LT(match.mean_centroid_displacement, 1.5);
}

TEST(AdversarialTest, AllDuplicatePoints) {
  // 50k copies of one point: must collapse to one entry, never split.
  Dataset data(2);
  std::vector<double> p = {3.0, -7.0};
  for (int i = 0; i < 50000; ++i) data.Append(p);
  auto result = ClusterDataset(data, TinyOptions(1));
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_NEAR(r.clusters[0].n(), 50000.0, 1e-6);
  EXPECT_NEAR(r.clusters[0].Radius(), 0.0, 1e-9);
  EXPECT_EQ(r.phase1.rebuilds, 0u);  // one entry: never out of memory
}

TEST(AdversarialTest, FewDistinctValuesManyCopies) {
  Dataset data(2);
  Rng rng(302);
  // 20 distinct locations, 2000 copies each, shuffled.
  std::vector<std::vector<double>> locs;
  for (int i = 0; i < 20; ++i) {
    locs.push_back({static_cast<double>(i % 5) * 10.0,
                    static_cast<double>(i / 5) * 10.0});
  }
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 2000; ++j) order.push_back(i);
  }
  rng.Shuffle(&order);
  for (int i : order) data.Append(locs[static_cast<size_t>(i)]);

  auto result = ClusterDataset(data, TinyOptions(20));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().clusters.size(), 20u);
  for (const auto& c : result.value().clusters) {
    EXPECT_NEAR(c.n(), 2000.0, 1e-6);
    EXPECT_NEAR(c.Radius(), 0.0, 1e-9);
  }
}

TEST(AdversarialTest, MixedScales) {
  // Two tight clusters at origin-scale plus two at 1e6-scale: the
  // threshold heuristic must bridge six orders of magnitude.
  Dataset data(2);
  Rng rng(303);
  const double centers[4][2] = {
      {0, 0}, {5, 0}, {1e6, 1e6}, {1e6 + 5e4, 1e6}};
  const double sigma[4] = {0.5, 0.5, 5e3, 5e3};
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 3000; ++i) {
      std::vector<double> p = {rng.Gaussian(centers[c][0], sigma[c]),
                               rng.Gaussian(centers[c][1], sigma[c])};
      data.Append(p);
    }
  }
  auto result = ClusterDataset(data, TinyOptions(4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().clusters.size(), 4u);
  EXPECT_NEAR(TotalClusterPoints(result.value()), 12000.0, 1.0);
}

TEST(AdversarialTest, CollinearData) {
  // All points on a line (zero variance in y).
  Dataset data(2);
  Rng rng(304);
  for (int c = 0; c < 6; ++c) {
    for (int i = 0; i < 2000; ++i) {
      std::vector<double> p = {c * 20.0 + rng.Gaussian(0, 1.0), 0.0};
      data.Append(p);
    }
  }
  auto result = ClusterDataset(data, TinyOptions(6));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().clusters.size(), 6u);
  EXPECT_NEAR(TotalClusterPoints(result.value()), 12000.0, 1e-6);
}

TEST(AdversarialTest, OneClusterAtATimeTinyMemory) {
  // Fully ordered arrival under an 8 KB budget: the worst case for an
  // incremental summarizer.
  GeneratorOptions g;
  g.k = 16;
  g.n_low = g.n_high = 1500;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 12.0;
  g.order = InputOrder::kOrdered;
  g.seed = 305;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = TinyOptions(16);
  o.resources.memory_bytes = 8 * 1024;
  o.resources.disk_bytes = 2 * 1024;
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  MatchReport match = MatchClusters(gen.value().actual,
                                    result.value().clusters);
  EXPECT_EQ(match.matched, 16);
  EXPECT_LT(match.mean_centroid_displacement, 2.0);
}

TEST(AdversarialTest, AlternatingFarPairs) {
  // Points alternate between two distant regions every sample,
  // defeating any locality assumption in the insert path.
  Dataset data(2);
  Rng rng(306);
  for (int i = 0; i < 20000; ++i) {
    double cx = (i % 2 == 0) ? 0.0 : 1000.0;
    std::vector<double> p = {rng.Gaussian(cx, 2.0), rng.Gaussian(0, 2.0)};
    data.Append(p);
  }
  auto result = ClusterDataset(data, TinyOptions(2));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().clusters.size(), 2u);
  EXPECT_NEAR(result.value().clusters[0].n(), 10000.0, 100.0);
  EXPECT_NEAR(result.value().clusters[1].n(), 10000.0, 100.0);
}

TEST(AdversarialTest, HeavyTailedClusterSizes) {
  // One cluster holds 90% of the data; nine share the rest. The big
  // one must not swallow the small ones' identity.
  Dataset data(2);
  Rng rng(307);
  std::vector<int> sizes = {45000};
  for (int i = 0; i < 9; ++i) sizes.push_back(550);
  std::vector<ActualCluster> actual;
  for (size_t c = 0; c < sizes.size(); ++c) {
    ActualCluster a;
    a.center = {static_cast<double>(c % 4) * 15.0,
                static_cast<double>(c / 4) * 15.0};
    a.points = sizes[c];
    a.cf = CfVector(2);
    for (int i = 0; i < sizes[c]; ++i) {
      std::vector<double> p = {rng.Gaussian(a.center[0], 1.0),
                               rng.Gaussian(a.center[1], 1.0)};
      data.Append(p);
      a.cf.AddPoint(p);
    }
    actual.push_back(std::move(a));
  }
  auto result = ClusterDataset(data, TinyOptions(10));
  ASSERT_TRUE(result.ok());
  MatchReport match = MatchClusters(actual, result.value().clusters);
  EXPECT_GE(match.matched, 10);
  EXPECT_LT(match.mean_centroid_displacement, 2.0);
}

/// Writes 5 * `per_cluster` generated 2-D rows to a CSV, with `bad_row`
/// (a literal "x,y" line) before generated row i once per occurrence of
/// i in `at` (ascending), and clusters it through
/// ClusterSource(CsvPointSource) with `threads` shards (0 = serial).
StatusOr<BirchResult> ClusterCsvWithBadRows(const std::string& name,
                                            const std::string& bad_row,
                                            const std::vector<size_t>& at,
                                            int threads,
                                            int per_cluster = 1000) {
  GeneratorOptions g;
  g.k = 5;
  g.n_low = g.n_high = per_cluster;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 10.0;
  g.seed = 308;
  auto gen = Generate(g);
  if (!gen.ok()) return gen.status();
  const Dataset& data = gen.value().data;
  // Unique to this process: the plain and .san builds of this suite
  // run concurrently under ctest.
  const std::string path = ::testing::TempDir() + "/" + name + "_" +
                           std::to_string(::getpid()) + ".csv";
  {
    std::ofstream f(path);
    f.precision(17);
    for (size_t i = 0, bad = 0; i < data.size(); ++i) {
      while (bad < at.size() && at[bad] == i) {
        f << bad_row << "\n";
        ++bad;
      }
      f << data.Row(i)[0] << "," << data.Row(i)[1] << "\n";
    }
  }
  auto source_or = CsvPointSource::Open(path);
  if (!source_or.ok()) return source_or.status();
  BirchOptions o;
  o.dim = 2;
  o.k = 5;
  o.exec.num_threads = threads;
  auto result = ClusterSource(source_or.value().get(), o);
  std::remove(path.c_str());
  return result;
}

// A squared distance to a 1e200 point overflows to +inf against every
// candidate, so the tree descent (and, sharded, the splitter) finds no
// winner and must fall back to candidate 0 instead of indexing with
// SIZE_MAX.
TEST(AdversarialTest, HugeFiniteRowCompletesSerially) {
  auto result = ClusterCsvWithBadRows("huge_serial", "1e200,1e200", {2500},
                                      /*threads=*/0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().clusters.empty());
}

// Every coordinate and squared norm of a 1e153 point is finite, but a
// hundred of them in a row overflow the CF sums they are absorbed into.
TEST(AdversarialTest, OverflowingCfSumsCompleteSerially) {
  const std::vector<size_t> at(100, 2500);
  auto result = ClusterCsvWithBadRows("overflow_serial", "1e153,1e153", at,
                                      /*threads=*/0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().clusters.empty());
}

TEST(AdversarialTest, HugeFiniteRowCompletesSharded) {
  // Position 4,000 lies past the splitter's 1,024-point sample, so the
  // armed splitter routes the row.
  auto result = ClusterCsvWithBadRows("huge_sharded", "1e200,1e200", {4000},
                                      /*threads=*/3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().clusters.empty());
}

TEST(AdversarialTest, NonFiniteRowsAreRejectedNamingThePoint) {
  // Among the splitter's first 1,024 points: the dealer rejects the row
  // before the splitter's k-means sees it.
  auto sharded = ClusterCsvWithBadRows("nan_sharded", "nan,nan", {700},
                                       /*threads=*/3);
  ASSERT_EQ(sharded.status().code(), StatusCode::kInvalidArgument)
      << sharded.status().ToString();
  EXPECT_NE(sharded.status().message().find("point 700"), std::string::npos)
      << sharded.status().message();

  auto serial = ClusterCsvWithBadRows("nan_serial", "nan,nan", {700},
                                      /*threads=*/0);
  ASSERT_EQ(serial.status().code(), StatusCode::kInvalidArgument)
      << serial.status().ToString();
  EXPECT_NE(serial.status().message().find("point 700"), std::string::npos)
      << serial.status().message();

  auto inf = ClusterCsvWithBadRows("inf_serial", "1,inf", {10},
                                   /*threads=*/0);
  EXPECT_EQ(inf.status().code(), StatusCode::kInvalidArgument)
      << inf.status().ToString();
}

// A malformed row mid-file fails a streamed run, serial or sharded, with
// the in-memory reader's message. It must not end the stream early and
// let the run cluster the 3,000 rows before it.
TEST(AdversarialTest, MalformedStreamedRowFailsTheRunNamingItsLine) {
  struct Case {
    const char* row;
    const char* message;
  };
  const Case cases[] = {
      {"1.5,oops", "unparsable row at line 3001"},
      {"1,2,3", "row arity changed at line 3001 (3 vs 2)"},
  };
  for (const Case& c : cases) {
    for (int threads : {0, 3}) {
      auto result = ClusterCsvWithBadRows("malformed", c.row, {3000}, threads);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << c.row << " threads=" << threads << ": "
          << result.status().ToString();
      EXPECT_EQ(result.status().message(), c.message)
          << c.row << " threads=" << threads;
    }
  }
}

// Past the first block and the splitter's warmup, a sharded run's rows
// come from blocks the workers decoded; a bad one still fails the run
// naming its file line or its point, with one worker or three.
TEST(AdversarialTest, BadRowsPastTheFirstBlockFailShardedRuns) {
  for (int threads : {1, 3}) {
    auto malformed = ClusterCsvWithBadRows("late_malformed", "1.5,oops",
                                           {45000}, threads, 10000);
    EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument)
        << "threads=" << threads << ": " << malformed.status().ToString();
    EXPECT_EQ(malformed.status().message(), "unparsable row at line 45001")
        << "threads=" << threads;

    auto nonfinite = ClusterCsvWithBadRows("late_nan", "nan,nan", {45000},
                                           threads, 10000);
    ASSERT_EQ(nonfinite.status().code(), StatusCode::kInvalidArgument)
        << "threads=" << threads << ": " << nonfinite.status().ToString();
    EXPECT_NE(nonfinite.status().message().find("point 45000"),
              std::string::npos)
        << "threads=" << threads << ": " << nonfinite.status().message();
  }
}

}  // namespace
}  // namespace birch
