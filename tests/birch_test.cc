// End-to-end BIRCH tests: the full pipeline must recover the generated
// clusters on the paper's workloads (scaled down for test speed), be
// robust to input order, produce labels consistent with clusters,
// support the streaming Snapshot API, and validate options.
#include "birch/birch.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/paper_datasets.h"
#include "eval/matching.h"
#include "eval/quality.h"
#include "obs/metrics.h"

namespace birch {
namespace {

BirchOptions SmallOptions(int k) {
  BirchOptions o;
  o.dim = 2;
  o.k = k;
  o.resources.memory_bytes = 24 * 1024;
  o.resources.disk_bytes = 5 * 1024;
  o.resources.page_size = 512;
  return o;
}

TEST(BirchTest, RecoversGridClusters) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, /*k=*/25, /*n=*/200);
  ASSERT_TRUE(gen.ok());
  const auto& g = gen.value();
  auto result = ClusterDataset(g.data, SmallOptions(25));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& r = result.value();
  ASSERT_EQ(r.clusters.size(), 25u);
  ASSERT_EQ(r.labels.size(), g.data.size());

  MatchReport match = MatchClusters(g.actual, r.clusters);
  EXPECT_EQ(match.matched, 25);
  // Grid spacing 4, radius sqrt(2): found centroids within a radius.
  EXPECT_LT(match.mean_centroid_displacement, 1.0);
  // Grid spacing 4 with radius sqrt(2) means adjacent clusters overlap
  // in their Gaussian tails, so even the Bayes-optimal assignment
  // mislabels a few percent.
  double acc = LabelAccuracy(g.truth, r.labels, match);
  EXPECT_GT(acc, 0.88);
}

TEST(BirchTest, QualityCloseToActualClusters) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 25, 200);
  ASSERT_TRUE(gen.ok());
  const auto& g = gen.value();
  auto result = ClusterDataset(g.data, SmallOptions(25));
  ASSERT_TRUE(result.ok());

  std::vector<CfVector> actual_cfs;
  for (const auto& a : g.actual) actual_cfs.push_back(a.cf);
  double d_actual = WeightedAverageDiameter(actual_cfs);
  double d_birch = WeightedAverageDiameter(result.value().clusters);
  // Paper: BIRCH quality within a few percent of the actual clusters.
  EXPECT_LT(d_birch, 1.25 * d_actual);
  EXPECT_GT(d_birch, 0.60 * d_actual);
}

TEST(BirchTest, OrderInsensitivity) {
  // Randomized vs ordered input must land on near-identical quality.
  auto rnd = GeneratePaperDataset(PaperDataset::kDS1, 16, 250);
  auto ord = GeneratePaperDataset(PaperDataset::kDS1o, 16, 250);
  ASSERT_TRUE(rnd.ok() && ord.ok());
  auto r1 = ClusterDataset(rnd.value().data, SmallOptions(16));
  auto r2 = ClusterDataset(ord.value().data, SmallOptions(16));
  ASSERT_TRUE(r1.ok() && r2.ok());
  double d1 = WeightedAverageDiameter(r1.value().clusters);
  double d2 = WeightedAverageDiameter(r2.value().clusters);
  EXPECT_NEAR(d1, d2, 0.35 * std::max(d1, d2));
}

TEST(BirchTest, LabelsConsistentWithClusters) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS2, 9, 150);
  ASSERT_TRUE(gen.ok());
  const auto& g = gen.value();
  auto result = ClusterDataset(g.data, SmallOptions(9));
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  // Rebuilding cluster CFs from labels reproduces result.clusters.
  auto rebuilt = ClustersFromLabels(g.data, r.labels,
                                    static_cast<int>(r.clusters.size()));
  ASSERT_EQ(rebuilt.size(), r.clusters.size());
  for (size_t c = 0; c < rebuilt.size(); ++c) {
    EXPECT_NEAR(rebuilt[c].n(), r.clusters[c].n(), 1e-6);
  }
}

TEST(BirchTest, KMeansGlobalAlgorithm) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 16, 150);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = SmallOptions(16);
  o.global_phase.algorithm = GlobalAlgorithm::kKMeans;
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok());
  MatchReport match = MatchClusters(gen.value().actual,
                                    result.value().clusters);
  EXPECT_GE(match.matched, 14);  // k-means may merge a pair occasionally
}

TEST(BirchTest, NoisyDataStillRecoversClusters) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 16, 200,
                                  /*noise=*/0.10);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = SmallOptions(16);
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok());
  MatchReport match = MatchClusters(gen.value().actual,
                                    result.value().clusters);
  EXPECT_EQ(match.matched, 16);
  EXPECT_LT(match.mean_centroid_displacement, 1.5);
}

TEST(BirchTest, StreamingSnapshot) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 9, 150);
  ASSERT_TRUE(gen.ok());
  const auto& g = gen.value();
  auto clusterer_or = BirchClusterer::Create(SmallOptions(9));
  ASSERT_TRUE(clusterer_or.ok());
  auto& clusterer = clusterer_or.value();

  // Feed half, snapshot, feed the rest, finish.
  size_t half = g.data.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(clusterer->Add(g.data.Row(i)).ok());
  }
  auto snap = clusterer->Snapshot(9);
  ASSERT_TRUE(snap.ok());
  double snap_points = 0.0;
  for (const auto& c : snap.value().clusters) snap_points += c.n();
  // The snapshot sees the tree contents only: points parked on the
  // outlier/delay-split disk are excluded until Finish(), so allow a
  // sizable shortfall but no excess.
  EXPECT_LE(snap_points, static_cast<double>(half) + 1e-9);
  EXPECT_GT(snap_points, 0.70 * static_cast<double>(half));

  for (size_t i = half; i < g.data.size(); ++i) {
    ASSERT_TRUE(clusterer->Add(g.data.Row(i)).ok());
  }
  auto result = clusterer->Finish(&g.data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().clusters.size(), 9u);
  // Finished twice is an error.
  EXPECT_EQ(clusterer->Finish(&g.data).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BirchTest, ResultBookkeepingPopulated) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 16, 200);
  ASSERT_TRUE(gen.ok());
  auto result = ClusterDataset(gen.value().data, SmallOptions(16));
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  EXPECT_GT(r.phase1.points_added, 0u);
  EXPECT_GT(r.leaf_entries_after_phase1, 0u);
  EXPECT_GT(r.peak_memory_bytes, 0u);
  EXPECT_GT(r.tree_stats.inserts, 0u);
  EXPECT_EQ(r.centroids.size(), r.clusters.size());
  EXPECT_GE(r.timings.Total(), 0.0);
}

TEST(BirchTest, Phase2CondensesForPhase3) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS3, 25, 300);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = SmallOptions(25);
  o.resources.memory_bytes = 64 * 1024;  // roomy: many leaf entries survive
  o.global_phase.phase2_target_entries = 120;
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().leaf_entries_after_phase2, 120u);
}

TEST(BirchTest, RefinementImprovesOrMatchesQuality) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS2, 16, 200);
  ASSERT_TRUE(gen.ok());
  BirchOptions no_refine = SmallOptions(16);
  no_refine.refine.passes = 0;
  BirchOptions with_refine = SmallOptions(16);
  with_refine.refine.passes = 3;
  auto r0 = ClusterDataset(gen.value().data, no_refine);
  auto r1 = ClusterDataset(gen.value().data, with_refine);
  ASSERT_TRUE(r0.ok() && r1.ok());
  // Labels exist either way.
  EXPECT_EQ(r0.value().labels.size(), gen.value().data.size());
  double d0 = WeightedAverageDiameter(r0.value().clusters);
  double d1 = WeightedAverageDiameter(r1.value().clusters);
  EXPECT_LE(d1, d0 * 1.05);
}

TEST(BirchTest, OptionValidation) {
  BirchOptions o;  // k unset
  o.dim = 2;
  EXPECT_EQ(BirchClusterer::Create(o).status().code(),
            StatusCode::kInvalidArgument);
  o.k = -1;
  EXPECT_EQ(BirchClusterer::Create(o).status().code(),
            StatusCode::kInvalidArgument);
  o.k = 5;
  o.dim = 0;
  EXPECT_EQ(BirchClusterer::Create(o).status().code(),
            StatusCode::kInvalidArgument);
  o.dim = 2;
  o.resources.memory_bytes = 100;  // < 4 pages
  EXPECT_EQ(BirchClusterer::Create(o).status().code(),
            StatusCode::kInvalidArgument);
  o.resources.memory_bytes = 80 * 1024;
  o.resources.page_size = 16;  // too small for dim
  EXPECT_EQ(BirchClusterer::Create(o).status().code(),
            StatusCode::kInvalidArgument);
  // A page must hold the node header and two nonleaf entries (CF plus
  // child pointer): 32 + 2 * (8 * (64 + 2) + 8) = 1104 bytes at d = 64.
  o.dim = 64;
  o.resources.page_size = 1024;
  const Status refused = BirchClusterer::Create(o).status();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("page_size 1024 cannot hold two nonleaf "
                                   "entries at dim 64; use page_size >= "
                                   "1104"),
            std::string::npos)
      << refused.message();
  o.resources.page_size = 1104;
  EXPECT_TRUE(BirchClusterer::Create(o).ok());
  o.dim = 2;
  o.resources.page_size = 1024;
  EXPECT_TRUE(BirchClusterer::Create(o).ok());
}

// The result carries the final tree's heap with obs off: the sum over
// the tree's nodes of what each one holds.
size_t SubtreeHeapBytes(const CfNode* node) {
  size_t bytes = sizeof(CfNode) +
                 node->rows.block_doubles() * sizeof(double) +
                 node->children.capacity() * sizeof(CfNode*);
  for (const CfNode* child : node->children) {
    bytes += SubtreeHeapBytes(child);
  }
  return bytes;
}

TEST(BirchTest, ResultCarriesTheTreeHeapWithObsOff) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 9, 80);
  ASSERT_TRUE(gen.ok());
  auto clusterer_or = BirchClusterer::Create(SmallOptions(9));
  ASSERT_TRUE(clusterer_or.ok());
  auto& clusterer = clusterer_or.value();
  ASSERT_TRUE(clusterer->AddDataset(gen.value().data).ok());
  auto result = clusterer->Finish(nullptr);
  obs::SetEnabled(was_enabled);
  ASSERT_TRUE(result.ok());
  const CfTree& tree = clusterer->tree();
  ASSERT_GT(tree.node_count(), 1u);
  EXPECT_EQ(result.value().tree_nodes, tree.node_count());
  EXPECT_EQ(result.value().tree_heap_bytes, SubtreeHeapBytes(tree.root()));
  EXPECT_EQ(tree.heap_bytes(), SubtreeHeapBytes(tree.root()));
}

TEST(BirchTest, AccessorsStayValidAfterFinish) {
  // Regression: Finish() used to half-consume the clusterer. The
  // stream accessors must keep answering afterwards, and ingest must
  // fail cleanly instead of corrupting the finished tree.
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 9, 80);
  ASSERT_TRUE(gen.ok());
  auto clusterer_or = BirchClusterer::Create(SmallOptions(9));
  ASSERT_TRUE(clusterer_or.ok());
  auto& clusterer = clusterer_or.value();
  ASSERT_TRUE(clusterer->AddDataset(gen.value().data).ok());
  size_t leaves_before = clusterer->tree().leaf_entry_count();
  ASSERT_TRUE(clusterer->Finish(nullptr).ok());

  EXPECT_GE(clusterer->tree().leaf_entry_count(), 1u);
  EXPECT_GT(clusterer->phase1_stats().points_added, 0u);
  (void)leaves_before;

  std::vector<double> p = {0.0, 0.0};
  EXPECT_EQ(clusterer->Add(p).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(clusterer->AddDataset(gen.value().data).code(),
            StatusCode::kFailedPrecondition);
  DatasetSource src(&gen.value().data);
  EXPECT_EQ(clusterer->AddSource(&src).code(),
            StatusCode::kFailedPrecondition);
}

// Snapshot(k) on an empty clusterer refuses with the remedy named.
TEST(BirchTest, SnapshotBeforeIngestNamesTheRemedy) {
  auto c = BirchClusterer::Create(SmallOptions(3));
  ASSERT_TRUE(c.ok());
  auto snap = c.value()->Snapshot(3);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(snap.status().message().find("ingest at least one point"),
            std::string::npos)
      << snap.status().message();
}

// Snapshot(k), Finish() and publishes share one Phase-3 setup. With no
// Phase 2 (fewer leaf entries than phase2_target_entries) and no Phase
// 4, Finish() returns Phase 3's clusters, and Snapshot(k) of the tree
// Finish() left, at the run's k, returns the same clusters bit for bit:
// under each algorithm, and for k == 0 merging up to a distance limit.
TEST(BirchTest, SnapshotMatchesFinishPhase3) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 9, 100);
  ASSERT_TRUE(gen.ok());
  struct Case {
    GlobalAlgorithm algorithm;
    int k;
    double distance_limit;
  };
  const Case cases[] = {{GlobalAlgorithm::kHierarchical, 9, 0.0},
                        {GlobalAlgorithm::kKMeans, 9, 0.0},
                        {GlobalAlgorithm::kMedoids, 9, 0.0},
                        {GlobalAlgorithm::kHierarchical, 0, 3.0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "algorithm "
                                    << static_cast<int>(c.algorithm)
                                    << ", k " << c.k);
    BirchOptions o = SmallOptions(c.k);
    o.global_phase.algorithm = c.algorithm;
    o.global_phase.distance_limit = c.distance_limit;
    o.refine.passes = 0;
    auto clusterer_or = BirchClusterer::Create(o);
    ASSERT_TRUE(clusterer_or.ok()) << clusterer_or.status().ToString();
    auto& clusterer = clusterer_or.value();
    ASSERT_TRUE(clusterer->AddDataset(gen.value().data).ok());
    auto finished = clusterer->Finish();
    ASSERT_TRUE(finished.ok()) << finished.status().ToString();
    ASSERT_LT(finished.value().leaf_entries_after_phase1,
              o.global_phase.phase2_target_entries);
    auto snap = clusterer->Snapshot(c.k);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_GT(snap.value().clusters.size(), 1u);
    EXPECT_EQ(snap.value().clusters, finished.value().clusters);
  }
}

// A Phase 3 over more than max_hierarchical_inputs entries with k > 0
// runs k-means, in Finish() as in Snapshot(k) and publishes: here
// 20,500 distinct grid points at T = 0 with no Phase 2 and no memory
// limit reach Phase 3 as 20,500 entries.
TEST(BirchTest, FinishAboveHierarchicalCapUsesKMeans) {
  BirchOptions o;
  o.dim = 2;
  o.k = 5;
  o.resources.memory_bytes = 0;
  o.global_phase.use_phase2 = false;
  std::vector<double> xs;
  for (int i = 0; i < 205; ++i) {
    for (int j = 0; j < 100; ++j) {
      xs.push_back(i);
      xs.push_back(j);
    }
  }
  auto clusterer_or = BirchClusterer::Create(o);
  ASSERT_TRUE(clusterer_or.ok()) << clusterer_or.status().ToString();
  auto& clusterer = clusterer_or.value();
  ASSERT_TRUE(clusterer->AddBatch(xs, xs.size() / 2).ok());
  auto result = clusterer->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().leaf_entries_after_phase2, 20500u);
  EXPECT_EQ(result.value().clusters.size(), 5u);
}

// AddBatch is the primary ingest surface and Add/AddDataset are sugar
// over it, so the serial path must be bitwise-identical however the
// same stream is sliced into batches: per-point Add, one whole-dataset
// AddBatch, and ragged batch sizes that straddle any internal chunking
// all land the identical tree and clustering.
TEST(BirchTest, AddBatchMatchesPointLoopBitwise) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS2, 9, 150);
  ASSERT_TRUE(gen.ok());
  const auto& data = gen.value().data;
  const size_t dim = data.dim();

  auto run = [&](auto&& feed) {
    auto c_or = BirchClusterer::Create(SmallOptions(9));
    EXPECT_TRUE(c_or.ok());
    feed(*c_or.value());
    auto r = c_or.value()->Finish(&data);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };

  BirchResult by_point = run([&](BirchClusterer& c) {
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(c.Add(data.Row(i)).ok());
    }
  });
  BirchResult whole = run([&](BirchClusterer& c) {
    ASSERT_TRUE(c.AddBatch(data.Values(), data.size()).ok());
  });
  // Ragged slicing: prime-sized batches never align with anything.
  BirchResult ragged = run([&](BirchClusterer& c) {
    const size_t steps[] = {7, 13, 1, 31};
    size_t off = 0, si = 0;
    while (off < data.size()) {
      size_t take = std::min(steps[si++ % 4], data.size() - off);
      ASSERT_TRUE(
          c.AddBatch(data.Values().subspan(off * dim, take * dim), take)
              .ok());
      off += take;
    }
  });

  for (const BirchResult* other : {&whole, &ragged}) {
    EXPECT_EQ(by_point.labels, other->labels);
    ASSERT_EQ(by_point.clusters.size(), other->clusters.size());
    for (size_t c = 0; c < by_point.clusters.size(); ++c) {
      EXPECT_EQ(by_point.clusters[c], other->clusters[c]);
    }
    EXPECT_EQ(by_point.final_threshold, other->final_threshold);
    EXPECT_EQ(by_point.phase1.points_added, other->phase1.points_added);
  }
}

// Weighted AddBatch must match the per-point weighted Add loop too.
TEST(BirchTest, WeightedAddBatchMatchesWeightedAddLoop) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 9, 100);
  ASSERT_TRUE(gen.ok());
  const auto& data = gen.value().data;
  std::vector<double> w(data.size());
  for (size_t i = 0; i < w.size(); ++i) w[i] = 1.0 + 0.5 * (i % 4);

  auto a_or = BirchClusterer::Create(SmallOptions(9));
  auto b_or = BirchClusterer::Create(SmallOptions(9));
  ASSERT_TRUE(a_or.ok() && b_or.ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(a_or.value()->Add(data.Row(i), w[i]).ok());
  }
  ASSERT_TRUE(b_or.value()->AddBatch(data.Values(), data.size(), w).ok());
  auto ra = a_or.value()->Finish();
  auto rb = b_or.value()->Finish();
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra.value().clusters.size(), rb.value().clusters.size());
  for (size_t c = 0; c < ra.value().clusters.size(); ++c) {
    EXPECT_EQ(ra.value().clusters[c], rb.value().clusters[c]);
  }
}

// AddBatch preconditions name the remedy, not just the failure.
TEST(BirchTest, AddBatchValidationMessagesNameTheRemedy) {
  auto c_or = BirchClusterer::Create(SmallOptions(3));
  ASSERT_TRUE(c_or.ok());
  auto& c = c_or.value();

  std::vector<double> three = {1.0, 2.0, 3.0};
  Status wrong_len = c->AddBatch(three, 2);
  EXPECT_EQ(wrong_len.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_len.message().find("n * dim"), std::string::npos)
      << wrong_len.message();

  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> one_weight = {1.0};
  Status wrong_w = c->AddBatch(xs, 2, one_weight);
  EXPECT_EQ(wrong_w.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_w.message().find("one weight per point"),
            std::string::npos)
      << wrong_w.message();

  ASSERT_TRUE(c->AddBatch(xs, 2).ok());
  ASSERT_TRUE(c->Finish().ok());
  Status after = c->AddBatch(xs, 2);
  EXPECT_EQ(after.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(after.message().find("new"), std::string::npos)
      << after.message();
}

TEST(BirchTest, EmptyInputFails) {
  Dataset empty(2);
  auto result = ClusterDataset(empty, SmallOptions(3));
  EXPECT_FALSE(result.ok());
}

TEST(BirchTest, HigherDimensionalData) {
  GeneratorOptions g;
  g.dim = 8;
  g.k = 8;
  g.n_low = g.n_high = 150;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 12.0;
  g.seed = 61;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = SmallOptions(8);
  o.dim = 8;
  o.resources.memory_bytes = 48 * 1024;
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  MatchReport match = MatchClusters(gen.value().actual,
                                    result.value().clusters);
  EXPECT_EQ(match.matched, 8);
  EXPECT_LT(match.mean_centroid_displacement, 2.0);
}

}  // namespace
}  // namespace birch
