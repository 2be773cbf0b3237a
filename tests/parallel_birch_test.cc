// Parallel pipeline properties: the sharded Phase-1 build conserves CF
// mass exactly against the serial build for every shard count, the
// end-to-end parallel run matches the reproduction-test quality bars,
// results are deterministic for a fixed (seed, num_threads), and
// num_threads is validated. Runs under TSan as parallel_birch_test.tsan
// — the whole pipeline is the race-hunt surface.
#include <gtest/gtest.h>

#include <cmath>

#include "birch/birch.h"
#include "birch/phase1_parallel.h"
#include "datagen/generator.h"
#include "datagen/paper_datasets.h"
#include "eval/matching.h"
#include "eval/quality.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace birch {
namespace {

Phase1Options UnboundedPhase1(size_t dim, double threshold) {
  Phase1Options p;
  p.tree.dim = dim;
  p.tree.page_size = 512;
  p.tree.threshold = threshold;
  p.memory_budget_bytes = 0;  // unlimited: no rebuilds, exact totals
  p.disk_budget_bytes = 0;
  p.outlier_handling = false;
  p.delay_split = false;
  return p;
}

// CF additivity (paper Sec. 4.1): for any shard count, the merged tree
// plus its final outliers carries exactly the mass of the serial build.
TEST(ParallelBirchTest, ShardMergeConservesCfTotals) {
  GeneratorOptions g;
  g.k = 9;
  g.n_low = g.n_high = 400;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 8.0;
  g.seed = 601;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  const auto& data = gen.value().data;

  Phase1Builder serial(UnboundedPhase1(data.dim(), 0.7));
  ASSERT_TRUE(serial.AddDataset(data).ok());
  ASSERT_TRUE(serial.Finish().ok());
  CfVector want = serial.tree().TreeSummary();
  ASSERT_EQ(want.n(), static_cast<double>(data.size()));

  exec::ThreadPool pool(16);
  for (int shards : {1, 2, 4, 8, 16}) {
    ShardedPhase1Options opts;
    opts.phase1 = UnboundedPhase1(data.dim(), 0.7);
    opts.num_shards = shards;
    DatasetSource source(&data);
    auto result_or = RunShardedPhase1(&source, opts, &pool);
    ASSERT_TRUE(result_or.ok()) << result_or.status().message();
    const auto& r = result_or.value();

    CfVector got = r.tree->TreeSummary();
    for (const auto& e : r.final_outliers) got.Add(e);
    // N is a sum of unit weights: exact in either insertion order.
    EXPECT_EQ(got.n(), want.n()) << "shards=" << shards;
    // LS/SS differ only by float summation order across shards.
    for (size_t t = 0; t < data.dim(); ++t) {
      EXPECT_NEAR(got.ls()[t], want.ls()[t],
                  1e-9 * (1.0 + std::fabs(want.ls()[t])))
          << "shards=" << shards;
    }
    EXPECT_NEAR(got.ss(), want.ss(), 1e-9 * (1.0 + want.ss()))
        << "shards=" << shards;
    EXPECT_EQ(r.stats.points_added, data.size());
    std::string why;
    EXPECT_TRUE(r.tree->CheckInvariants(&why)) << why;
  }
}

BirchOptions PaperOpts(int k, int num_threads) {
  BirchOptions o;
  o.dim = 2;
  o.k = k;
  o.resources.memory_bytes = 24 * 1024;
  o.resources.disk_bytes = 5 * 1024;
  o.resources.page_size = 512;
  o.exec.num_threads = num_threads;
  return o;
}

// The parallel pipeline must clear the same quality bars the serial
// reproduction tests pin (matched clusters and weighted diameter).
TEST(ParallelBirchTest, ParallelRunMeetsReproductionQualityBars) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 25, 300);
  ASSERT_TRUE(gen.ok());
  const auto& g = gen.value();
  auto r = ClusterDataset(g.data, PaperOpts(25, 4));
  ASSERT_TRUE(r.ok()) << r.status().message();

  MatchReport m = MatchClusters(g.actual, r.value().clusters);
  EXPECT_EQ(m.matched, 25);
  std::vector<CfVector> actual_cfs;
  for (const auto& a : g.actual) actual_cfs.push_back(a.cf);
  double d_actual = WeightedAverageDiameter(actual_cfs);
  double d_birch = WeightedAverageDiameter(r.value().clusters);
  EXPECT_LT(d_birch, 1.30 * d_actual);
  EXPECT_GT(d_birch, 0.55 * d_actual);
  EXPECT_EQ(r.value().labels.size(), g.data.size());
}

// Affinity dealing must clear the reproduction quality bars at every
// shard count: space partitioning changes which shard ingests a point,
// never the mass that reaches the merged tree, and the final
// clustering quality must hold regardless of how Phase 1 was dealt.
TEST(ParallelBirchTest, QualityBarsHoldAcrossThreadCounts) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 25, 200);
  ASSERT_TRUE(gen.ok());
  const auto& g = gen.value();
  std::vector<CfVector> actual_cfs;
  for (const auto& a : g.actual) actual_cfs.push_back(a.cf);
  const double d_actual = WeightedAverageDiameter(actual_cfs);

  for (int threads : {1, 2, 4, 8, 16}) {
    auto r = ClusterDataset(g.data, PaperOpts(25, threads));
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                        << r.status().message();
    MatchReport m = MatchClusters(g.actual, r.value().clusters);
    EXPECT_EQ(m.matched, 25) << "threads=" << threads;
    double d_birch = WeightedAverageDiameter(r.value().clusters);
    EXPECT_LT(d_birch, 1.30 * d_actual) << "threads=" << threads;
    EXPECT_EQ(r.value().labels.size(), g.data.size());
  }
}

// Fixed (seed, num_threads) must reproduce bitwise: prefix-determined
// dealing, fixed fold pairing, and chunk-ordered reductions leave no
// timing dependence in the output.
TEST(ParallelBirchTest, DeterministicForFixedThreadCount) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS2, 25, 200);
  ASSERT_TRUE(gen.ok());
  const auto& data = gen.value().data;
  for (int threads : {0, 4}) {
    auto a = ClusterDataset(data, PaperOpts(25, threads));
    auto b = ClusterDataset(data, PaperOpts(25, threads));
    ASSERT_TRUE(a.ok() && b.ok()) << "threads=" << threads;
    EXPECT_EQ(a.value().labels, b.value().labels) << "threads=" << threads;
    ASSERT_EQ(a.value().centroids.size(), b.value().centroids.size());
    for (size_t c = 0; c < a.value().centroids.size(); ++c) {
      EXPECT_EQ(a.value().centroids[c], b.value().centroids[c])
          << "threads=" << threads << " cluster=" << c;
    }
    EXPECT_EQ(a.value().final_threshold, b.value().final_threshold);
  }
}

// The splitter seed is the third leg of the determinism contract: a
// fixed (seed, num_threads, splitter_seed) triple reproduces bitwise,
// and changing only the splitter seed re-deals the stream into a
// different (but still valid) shard partition.
TEST(ParallelBirchTest, SplitterSeedIsPartOfDeterminismContract) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS2, 25, 150);
  ASSERT_TRUE(gen.ok());
  const auto& data = gen.value().data;
  BirchOptions o = PaperOpts(25, 4);
  o.exec.splitter_seed = 7;
  auto a = ClusterDataset(data, o);
  auto b = ClusterDataset(data, o);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  ASSERT_EQ(a.value().centroids.size(), b.value().centroids.size());
  for (size_t c = 0; c < a.value().centroids.size(); ++c) {
    EXPECT_EQ(a.value().centroids[c], b.value().centroids[c]);
  }

  o.exec.splitter_seed = 8;
  auto c = ClusterDataset(data, o);
  ASSERT_TRUE(c.ok()) << c.status().message();
  EXPECT_EQ(c.value().labels.size(), data.size());
}

// The streaming one-call API takes the same parallel path.
TEST(ParallelBirchTest, ClusterSourceParallelMatchesItself) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS3, 25, 200);
  ASSERT_TRUE(gen.ok());
  const auto& data = gen.value().data;
  DatasetSource s1(&data), s2(&data);
  auto a = ClusterSource(&s1, PaperOpts(25, 2));
  auto b = ClusterSource(&s2, PaperOpts(25, 2));
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().centroids.size(), b.value().centroids.size());
  for (size_t c = 0; c < a.value().centroids.size(); ++c) {
    EXPECT_EQ(a.value().centroids[c], b.value().centroids[c]);
  }
  EXPECT_GT(a.value().centroids.size(), 0u);
}

TEST(ParallelBirchTest, NumThreadsValidated) {
  BirchOptions o = PaperOpts(5, -1);
  EXPECT_FALSE(o.Validate().ok());
  o.exec.num_threads = BirchOptions::kMaxThreads + 1;
  EXPECT_FALSE(o.Validate().ok());
  o.exec.num_threads = BirchOptions::kMaxThreads;
  EXPECT_TRUE(o.Validate().ok());

  Dataset tiny(2);
  std::vector<double> p0 = {0.0, 0.0}, p1 = {1.0, 1.0};
  tiny.Append(p0);
  tiny.Append(p1);
  auto r = ClusterDataset(tiny, PaperOpts(2, -3));
  EXPECT_FALSE(r.ok());
}

// Sharded runs surface the exec instrumentation in the result's
// metrics snapshot: task counts and the shard gauge.
TEST(ParallelBirchTest, ParallelRunExportsExecMetrics) {
  if (!obs::Enabled()) GTEST_SKIP() << "obs disabled";
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 25, 100);
  ASSERT_TRUE(gen.ok());
  auto r = ClusterDataset(gen.value().data, PaperOpts(25, 2));
  ASSERT_TRUE(r.ok());
  const auto& m = r.value().metrics;
  auto tasks = m.counters.find("exec/tasks");
  ASSERT_NE(tasks, m.counters.end());
  EXPECT_GT(tasks->second, 0u);
  auto shards = m.gauges.find("exec/shards");
  ASSERT_NE(shards, m.gauges.end());
  EXPECT_EQ(shards->second, 2.0);
  EXPECT_NE(m.gauges.find("exec/shard0/points"), m.gauges.end());
  EXPECT_NE(m.gauges.find("exec/shard1/points"), m.gauges.end());
}

}  // namespace
}  // namespace birch
