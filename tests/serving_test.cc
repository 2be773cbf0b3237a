// Serving-tier properties (DESIGN.md §13): a pinned epoch is immutable
// and bitwise-repeatable while ingest keeps publishing newer epochs
// underneath; an epoch's cluster table is Phase 3 over its leaf
// entries under the run's options; KNearestCentroids matches a
// brute-force oracle over the publish-time centroid table; and retired
// epochs actually free — the "serving/snapshots_live" gauge returns to
// its baseline when the last reference drains.
#include "serving/server.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "birch/birch.h"
#include "datagen/generator.h"
#include "obs/export.h"
#include "serving/snapshot.h"

namespace birch {
namespace {

Dataset MakeData(int k, int per_cluster, uint64_t seed) {
  GeneratorOptions g;
  g.k = k;
  g.n_low = g.n_high = per_cluster;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 8.0;
  g.seed = seed;
  auto gen = Generate(g);
  EXPECT_TRUE(gen.ok());
  return std::move(gen.value().data);
}

BirchOptions ServingOpts(size_t dim, int k, uint64_t publish_every) {
  BirchOptions o;
  o.dim = dim;
  o.k = k;
  o.resources.memory_bytes = 48 * 1024;
  o.serving.publish_every_n = publish_every;
  return o;
}

double LiveGauge() {
  auto snap = obs::CaptureSnapshot();
  auto it = snap.gauges.find("serving/snapshots_live");
  return it == snap.gauges.end() ? 0.0 : it->second;
}

TEST(ServingTest, QueriesBeforeFirstEpochFail) {
  BirchOptions o = ServingOpts(3, 4, 1000);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  ASSERT_NE(c.value()->server(), nullptr);
  std::vector<double> p(3, 0.0);
  Status assign = c.value()->server()->Assign(p).status();
  EXPECT_EQ(assign.code(), StatusCode::kFailedPrecondition);
  // The refusal names the remedy, not just the failure.
  EXPECT_NE(assign.message().find("publish_every_n"), std::string::npos)
      << assign.message();
  Status knn = c.value()->server()->KNearestCentroids(p, 3).status();
  EXPECT_EQ(knn.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(knn.message().find("publish_every_n"), std::string::npos)
      << knn.message();
  EXPECT_EQ(c.value()->server()->epoch(), 0u);
}

TEST(ServingTest, ServingDisabledMeansNoServer) {
  BirchOptions o = ServingOpts(3, 4, 0);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value()->server(), nullptr);
  EXPECT_EQ(c.value()->PublishSnapshot().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServingTest, DimensionMismatchIsInvalidArgument) {
  Dataset data = MakeData(4, 40, 31);
  BirchOptions o = ServingOpts(data.dim(), 4, 50);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->AddDataset(data).ok());
  std::vector<double> wrong(data.dim() + 1, 0.0);
  Status st = c.value()->server()->Assign(wrong).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The message names both dimensions and the remedy.
  EXPECT_NE(st.message().find(std::to_string(data.dim() + 1)),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("pass exactly dim coordinates"),
            std::string::npos)
      << st.message();
  Status knn =
      c.value()->server()->KNearestCentroids(wrong, 2).status();
  EXPECT_EQ(knn.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(knn.message().find("pass exactly dim coordinates"),
            std::string::npos)
      << knn.message();
}

// The publish cadence stamps monotonically increasing epochs, and a
// query result carries the epoch it was answered from.
TEST(ServingTest, PublishCadenceAdvancesEpochs) {
  Dataset data = MakeData(4, 50, 32);  // 200 points
  BirchOptions o = ServingOpts(data.dim(), 4, 50);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->AddDataset(data).ok());
  const serving::BirchServer* server = c.value()->server();
  EXPECT_EQ(server->epoch(), 4u);  // 200 points / publish_every_n 50
  EXPECT_EQ(server->publishes(), 4u);
  auto got = server->Assign(data.Row(0));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().epoch, 4u);
  EXPECT_GE(got.value().cluster_id, 0);
  EXPECT_GE(server->SnapshotAgeMs(), 0.0);
}

// Acceptance criterion: a reader holding a fixed epoch gets
// bitwise-identical answers no matter how much ingest happens
// underneath — snapshots are immutable, not merely "usually stable".
TEST(ServingTest, PinnedEpochIsImmutableUnderConcurrentIngest) {
  Dataset data = MakeData(6, 60, 33);  // 360 points
  BirchOptions o = ServingOpts(data.dim(), 6, 40);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  // Prime far enough for a first epoch, then pin it.
  for (size_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(c.value()->Add(data.Row(i)).ok());
  }
  auto pinned = c.value()->server()->Acquire();
  ASSERT_NE(pinned, nullptr);
  const uint64_t pinned_epoch = pinned->epoch();

  // Reference answers on the pinned epoch before ingest resumes.
  kernel::Workspace ws;
  std::vector<serving::AssignResult> want;
  for (size_t i = 0; i < data.size(); i += 11) {
    want.push_back(pinned->Assign(data.Row(i), &ws));
  }

  // Ingest the rest on another thread while this thread re-queries the
  // pinned epoch; every answer must match the reference bitwise.
  std::atomic<bool> done{false};
  Status ingest_status;
  std::thread ingest([&] {
    for (size_t i = 80; i < data.size(); ++i) {
      ingest_status = c.value()->Add(data.Row(i));
      if (!ingest_status.ok()) break;
    }
    done.store(true, std::memory_order_release);
  });
  size_t rounds = 0;
  do {
    size_t w = 0;
    for (size_t i = 0; i < data.size(); i += 11, ++w) {
      serving::AssignResult got = pinned->Assign(data.Row(i), &ws);
      ASSERT_EQ(got.leaf_entry, want[w].leaf_entry);
      ASSERT_EQ(got.cluster_id, want[w].cluster_id);
      ASSERT_EQ(std::memcmp(&got.distance, &want[w].distance,
                            sizeof(double)),
                0);
      ASSERT_EQ(std::memcmp(&got.radius, &want[w].radius, sizeof(double)),
                0);
    }
    ++rounds;
  } while (!done.load(std::memory_order_acquire));
  ingest.join();
  ASSERT_TRUE(ingest_status.ok()) << ingest_status.ToString();
  EXPECT_GE(rounds, 1u);
  // Ingest moved the server past the pinned epoch.
  EXPECT_GT(c.value()->server()->epoch(), pinned_epoch);
  // The pinned epoch still answers with its own stamp.
  EXPECT_EQ(pinned->Assign(data.Row(0), &ws).epoch, pinned_epoch);
}

// KNearestCentroids against a brute-force oracle over the publish-time
// centroid table: same ids, ascending distances, ties by cluster id.
TEST(ServingTest, KNearestCentroidsMatchesBruteForce) {
  Dataset data = MakeData(6, 40, 35);
  BirchOptions o = ServingOpts(data.dim(), 6, 60);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->AddDataset(data).ok());
  auto epoch = c.value()->server()->Acquire();
  ASSERT_NE(epoch, nullptr);
  const auto& centroids = epoch->cluster_centroids();
  ASSERT_FALSE(centroids.empty());
  for (size_t i = 0; i < data.size(); i += 5) {
    auto row = data.Row(i);
    auto got = epoch->KNearestCentroids(row, 3);
    ASSERT_EQ(got.size(), std::min<size_t>(3, centroids.size()));
    // Brute-force best: smallest squared distance, ties by index.
    int best = -1;
    double best_sq = 0.0;
    for (size_t cid = 0; cid < centroids.size(); ++cid) {
      double sq = 0.0;
      for (size_t d = 0; d < row.size(); ++d) {
        double diff = row[d] - centroids[cid][d];
        sq += diff * diff;
      }
      if (best < 0 || sq < best_sq) {
        best = static_cast<int>(cid);
        best_sq = sq;
      }
    }
    EXPECT_EQ(got[0].cluster_id, best) << "row " << i;
    for (size_t j = 1; j < got.size(); ++j) {
      EXPECT_LE(got[j - 1].distance, got[j].distance);
    }
  }
}

// A mid-stream epoch carries the exact leaf CFs: re-clustering them at
// any k through Snapshot() works and reports the epoch's stream
// position, not the live tree's.
TEST(ServingTest, EpochLeafEntriesRecluster) {
  Dataset data = MakeData(5, 40, 36);  // 200 points
  BirchOptions o = ServingOpts(data.dim(), 5, 50);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->AddDataset(data).ok());
  auto epoch = c.value()->server()->Acquire();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->points_ingested(), 200u);
  std::vector<CfVector> entries = epoch->LeafEntries();
  EXPECT_EQ(entries.size(), epoch->leaf_entry_count());
  double total = 0.0;
  for (const auto& e : entries) total += e.n();
  EXPECT_DOUBLE_EQ(total, 200.0);
}

// A publish clusters the epoch's leaf entries with Phase 3 under the
// run's k, algorithm, metric and seed: the last epoch's cluster table
// equals GlobalCluster over its LeafEntries() with those options.
TEST(ServingTest, EpochClusterTableIsPhase3UnderTheRunsOptions) {
  Dataset data = MakeData(5, 40, 39);  // 200 points
  const std::pair<GlobalAlgorithm, DistanceMetric> configs[] = {
      {GlobalAlgorithm::kHierarchical, DistanceMetric::kD4},
      {GlobalAlgorithm::kKMeans, DistanceMetric::kD3},
      {GlobalAlgorithm::kMedoids, DistanceMetric::kD0}};
  for (const auto& [algorithm, metric] : configs) {
    SCOPED_TRACE(testing::Message() << "algorithm "
                                    << static_cast<int>(algorithm));
    BirchOptions o = ServingOpts(data.dim(), 5, 70);
    o.global_phase.algorithm = algorithm;
    o.global_phase.metric = metric;
    o.seed = 7;
    auto c = BirchClusterer::Create(o);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    auto epoch = c.value()->server()->Acquire();
    ASSERT_NE(epoch, nullptr);
    EXPECT_EQ(epoch->points_ingested(), 140u);
    GlobalClusterOptions g;
    g.k = o.k;
    g.algorithm = algorithm;
    g.metric = metric;
    g.seed = o.seed;
    auto want = GlobalCluster(epoch->LeafEntries(), g);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(epoch->clusters(), want.value().clusters);
    for (size_t i = 0; i < epoch->leaf_entry_count(); ++i) {
      ASSERT_EQ(epoch->cluster_of(i), want.value().assignment[i]) << i;
    }
  }
}

// Gauge-balance acceptance criterion: every published epoch retires
// once its last reference drains — "serving/snapshots_live" returns to
// the pre-run baseline after the clusterer and all pinned epochs die.
TEST(ServingTest, EpochRetirementBalancesLiveGauge) {
  const double baseline = LiveGauge();
  Dataset data = MakeData(4, 50, 37);
  std::shared_ptr<const serving::ServingSnapshot> pinned;
  {
    BirchOptions o = ServingOpts(data.dim(), 4, 40);
    auto c = BirchClusterer::Create(o);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    EXPECT_GT(c.value()->server()->publishes(), 1u);
    // Retired epochs have already freed: only the current one is live.
    EXPECT_DOUBLE_EQ(LiveGauge(), baseline + 1.0);
    pinned = c.value()->server()->Acquire();
  }
  // Clusterer gone; the pinned epoch alone keeps one snapshot alive.
  EXPECT_DOUBLE_EQ(LiveGauge(), baseline + 1.0);
  pinned.reset();
  EXPECT_DOUBLE_EQ(LiveGauge(), baseline);
}

// The serving epoch also backs Snapshot(k) on the sharded path
// mid-run; after Cluster() completes the merged tree takes over. Both
// views must cluster successfully at an arbitrary k.
TEST(ServingTest, ShardedFinalEpochServesAfterCluster) {
  Dataset data = MakeData(4, 60, 38);
  BirchOptions o = ServingOpts(data.dim(), 4, 100);
  o.exec.num_threads = 2;
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  DatasetSource src(&data);
  auto result = c.value()->Cluster(&src, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The final pre-phase-2 epoch covers the whole stream.
  auto epoch = c.value()->server()->Acquire();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->points_ingested(), data.size());
  auto got = c.value()->server()->Assign(data.Row(0));
  ASSERT_TRUE(got.ok());
  EXPECT_GE(got.value().cluster_id, 0);
  auto snap = c.value()->Snapshot(7);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_FALSE(snap.value().clusters.empty());
}

}  // namespace
}  // namespace birch
