// Checkpoint/restore properties: a serial kill-and-resume run is
// bitwise identical to the uninterrupted one (labels, centroids,
// threshold), resume works both by re-feeding the tail and by handing
// Cluster() the full stream, the options fingerprint is enforced, the
// sharded auto-checkpoint round-trips, the checkpoint / publish
// cadence keeps absolute stream positions (resume included), and every
// injected file corruption (torn header, truncation, bit flip) is
// detected as kCorruption — never silently decoded into a different
// clustering.
#include "birch/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "birch/birch.h"
#include "birch/dataset_io.h"
#include "birch/ingest_cadence.h"
#include "datagen/generator.h"
#include "pagestore/crc32c.h"
#include "serving/server.h"

namespace birch {
namespace {

/// A temp path unique to this process: the plain, .san and .tsan builds
/// of this suite run concurrently under ctest.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

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

// Tight budgets so the stream actually exercises rebuilds, the outlier
// disk, and delay-split spills — the state a checkpoint must capture.
BirchOptions SmallOpts(size_t dim, int k) {
  BirchOptions o;
  o.dim = dim;
  o.k = k;
  o.resources.memory_bytes = 24 * 1024;
  o.resources.disk_bytes = 5 * 1024;
  o.resources.page_size = 512;
  return o;
}

StatusOr<BirchResult> RunUninterrupted(const Dataset& data,
                                       const BirchOptions& o) {
  auto c_or = BirchClusterer::Create(o);
  if (!c_or.ok()) return c_or.status();
  BIRCH_RETURN_IF_ERROR(c_or.value()->AddDataset(data));
  return c_or.value()->Finish(&data);
}

StatusOr<BirchResult> RunInterrupted(const Dataset& data,
                                     const BirchOptions& o, size_t cut,
                                     const std::string& path) {
  {
    auto c_or = BirchClusterer::Create(o);
    if (!c_or.ok()) return c_or.status();
    for (size_t i = 0; i < cut; ++i) {
      BIRCH_RETURN_IF_ERROR(c_or.value()->Add(data.Row(i), data.Weight(i)));
    }
    BIRCH_RETURN_IF_ERROR(c_or.value()->SaveCheckpoint(path));
    // The clusterer dies here: everything past this line sees only the
    // file.
  }
  auto c_or = BirchClusterer::Restore(path, o);
  if (!c_or.ok()) return c_or.status();
  for (size_t i = cut; i < data.size(); ++i) {
    BIRCH_RETURN_IF_ERROR(c_or.value()->Add(data.Row(i), data.Weight(i)));
  }
  return c_or.value()->Finish(&data);
}

void ExpectBitwiseEqual(const BirchResult& a, const BirchResult& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.final_threshold, b.final_threshold);
  EXPECT_EQ(a.outlier_points, b.outlier_points);
  EXPECT_EQ(a.phase1.points_added, b.phase1.points_added);
  EXPECT_EQ(a.phase1.rebuilds, b.phase1.rebuilds);
}

TEST(CheckpointTest, SerialKillAndResumeIsBitwiseIdentical) {
  Dataset data = MakeData(9, 300, 701);
  BirchOptions o = SmallOpts(data.dim(), 9);
  auto want = RunUninterrupted(data, o);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  std::string path = TempPath("ckpt_serial.birch");
  auto got = RunInterrupted(data, o, data.size() / 2, path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitwiseEqual(want.value(), got.value());
  std::remove(path.c_str());
}

// Property test: the bitwise-resume guarantee holds across seeds,
// dimensionalities, and cut positions (including a cut before any
// rebuild and one deep into the stream).
TEST(CheckpointTest, ResumeIsBitwiseIdenticalAcrossSeedsAndCuts) {
  struct Case {
    uint64_t seed;
    int k;
    int per_cluster;
    double cut_fraction;
  };
  const Case cases[] = {
      {702, 4, 150, 0.1}, {703, 6, 200, 0.5}, {704, 9, 120, 0.9},
  };
  for (const Case& c : cases) {
    Dataset data = MakeData(c.k, c.per_cluster, c.seed);
    BirchOptions o = SmallOpts(data.dim(), c.k);
    auto want = RunUninterrupted(data, o);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    std::string path = TempPath("ckpt_prop.birch");
    size_t cut = static_cast<size_t>(data.size() * c.cut_fraction);
    auto got = RunInterrupted(data, o, cut, path);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitwiseEqual(want.value(), got.value());
    std::remove(path.c_str());
  }
}

// Resume by handing Cluster() the SAME full stream: the restored
// clusterer skips the already-ingested prefix automatically.
TEST(CheckpointTest, ClusterAfterRestoreSkipsIngestedPrefix) {
  Dataset data = MakeData(6, 250, 705);
  BirchOptions o = SmallOpts(data.dim(), 6);

  auto want_c = BirchClusterer::Create(o);
  ASSERT_TRUE(want_c.ok());
  DatasetSource want_src(&data);
  auto want = want_c.value()->Cluster(&want_src, &data);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  std::string path = TempPath("ckpt_cluster_resume.birch");
  {
    auto c_or = BirchClusterer::Create(o);
    ASSERT_TRUE(c_or.ok());
    for (size_t i = 0; i < data.size() / 3; ++i) {
      ASSERT_TRUE(c_or.value()->Add(data.Row(i)).ok());
    }
    ASSERT_TRUE(c_or.value()->SaveCheckpoint(path).ok());
  }
  auto c_or = BirchClusterer::Restore(path, o);
  ASSERT_TRUE(c_or.ok()) << c_or.status().ToString();
  DatasetSource src(&data);
  auto got = c_or.value()->Cluster(&src, &data);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitwiseEqual(want.value(), got.value());

  // A stream shorter than the checkpoint's ingest count cannot be the
  // original stream.
  auto c2 = BirchClusterer::Restore(path, o);
  ASSERT_TRUE(c2.ok());
  Dataset tiny(data.dim());
  std::vector<double> row(data.dim(), 0.0);
  tiny.Append(row);
  DatasetSource tiny_src(&tiny);
  auto bad = c2.value()->Cluster(&tiny_src, nullptr);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, AutoCheckpointWritesAtConfiguredCadence) {
  Dataset data = MakeData(4, 100, 706);
  ASSERT_GE(data.size(), 120u);
  std::string path = TempPath("ckpt_auto.birch");
  BirchOptions o = SmallOpts(data.dim(), 4);
  o.resources.checkpoint_every_n = 50;
  o.resources.checkpoint_path = path;

  auto c_or = BirchClusterer::Create(o);
  ASSERT_TRUE(c_or.ok());
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(c_or.value()->Add(data.Row(i)).ok());
  }
  // Saves fired at points 50 and 100; the file on disk is the latest.
  auto img = ReadCheckpointFile(path);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_EQ(img.value().points_ingested, 100u);
  EXPECT_EQ(img.value().shard_count, 0u);
  EXPECT_EQ(img.value().freezes.size(), 1u);
  std::remove(path.c_str());
}

// Cadences count points, not batches: however the stream is sliced
// into AddBatch calls, auto-checkpoint and auto-publish fire at the
// same absolute point counts a per-point Add loop produces — and the
// checkpoint on disk is byte-identical to the point-loop one.
TEST(CheckpointTest, AddBatchKeepsAbsolutePointCadences) {
  Dataset data = MakeData(4, 100, 708);
  ASSERT_GE(data.size(), 130u);
  const size_t dim = data.dim();
  std::string path = TempPath("ckpt_batch_cadence.birch");
  BirchOptions o = SmallOpts(dim, 4);
  o.resources.checkpoint_every_n = 50;
  o.resources.checkpoint_path = path;
  o.serving.publish_every_n = 60;

  auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  auto bc = BirchClusterer::Create(o);
  ASSERT_TRUE(bc.ok());
  const size_t batches[] = {37, 9, 54, 30};  // 130 points, none at 50/60
  size_t off = 0;
  for (size_t b : batches) {
    ASSERT_TRUE(
        bc.value()->AddBatch(data.Values().subspan(off * dim, b * dim), b)
            .ok());
    off += b;
  }
  // 130 points: checkpoints fired at 50 and 100 (file holds the
  // latest), publishes at 60 and 120.
  auto img = ReadCheckpointFile(path);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_EQ(img.value().points_ingested, 100u);
  EXPECT_EQ(bc.value()->server()->epoch(), 2u);
  std::string batch_bytes = read_file(path);

  auto pc = BirchClusterer::Create(o);
  ASSERT_TRUE(pc.ok());
  for (size_t i = 0; i < 130; ++i) {
    ASSERT_TRUE(pc.value()->Add(data.Row(i)).ok());
  }
  auto pimg = ReadCheckpointFile(path);
  ASSERT_TRUE(pimg.ok());
  EXPECT_EQ(pimg.value().points_ingested, 100u);
  EXPECT_EQ(pc.value()->server()->epoch(), 2u);
  EXPECT_EQ(read_file(path), batch_bytes);
  std::remove(path.c_str());
}

// A rejected batch leaves no trace: AddBatch validates all of it
// before the cadences cut it into pieces, so a NaN at row 150 of a
// 200-row batch, with both cadences due at 100, ingests no point,
// publishes no epoch and writes no checkpoint.
TEST(CheckpointTest, RejectedBatchIngestsNothingAtEitherCadence) {
  Dataset data = MakeData(4, 100, 710);
  ASSERT_GE(data.size(), 200u);
  const size_t dim = data.dim();
  const std::string path = TempPath("ckpt_rejected_batch_" +
                                    std::to_string(::getpid()) + ".birch");
  std::remove(path.c_str());
  BirchOptions o = SmallOpts(dim, 4);
  o.resources.checkpoint_every_n = 100;
  o.resources.checkpoint_path = path;
  o.serving.publish_every_n = 100;
  std::vector<double> xs(data.Values().begin(),
                         data.Values().begin() + 200 * dim);
  xs[150 * dim] = std::nan("");

  auto c_or = BirchClusterer::Create(o);
  ASSERT_TRUE(c_or.ok());
  BirchClusterer& c = *c_or.value();
  const Status st = c.AddBatch(xs, 200);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("point 150"), std::string::npos)
      << st.message();
  EXPECT_EQ(c.phase1_stats().points_added, 0u);
  EXPECT_EQ(c.server()->epoch(), 0u);
  EXPECT_FALSE(std::ifstream(path).good()) << "checkpoint written";
  std::remove(path.c_str());
}

TEST(IngestCadenceTest, ZeroCadencesLeaveUnlimitedRoom) {
  IngestCadence none;
  EXPECT_EQ(none.Room(), IngestCadence::kUnlimited);
  EXPECT_FALSE(none.Advance(1'000'000).any());
  EXPECT_EQ(none.Room(), IngestCadence::kUnlimited);
  EXPECT_EQ(none.position(), 1'000'000u);

  IngestCadence zeros(0, 0, 77);
  EXPECT_EQ(zeros.Room(), IngestCadence::kUnlimited);
  EXPECT_FALSE(zeros.Advance(500).any());
  EXPECT_EQ(zeros.position(), 577u);
}

// The ragged slicing of AddBatchKeepsAbsolutePointCadences: each batch
// is cut at the next boundary, and the cuts land exactly on the
// checkpoint (50, 100) and publish (60, 120) positions.
TEST(IngestCadenceTest, RaggedBatchesStopExactlyAtBoundaries) {
  IngestCadence cadence(50, 60);
  struct Stop {
    uint64_t position;
    bool checkpoint;
    bool publish;
  };
  std::vector<Stop> stops;
  for (uint64_t batch : {37u, 9u, 54u, 30u}) {
    while (batch > 0) {
      const uint64_t take = std::min(batch, cadence.Room());
      const CadenceDue due = cadence.Advance(take);
      batch -= take;
      if (due.any()) {
        stops.push_back({cadence.position(), due.checkpoint, due.publish});
      }
    }
  }
  ASSERT_EQ(stops.size(), 4u);
  const Stop want[] = {
      {50, true, false}, {60, false, true}, {100, true, false},
      {120, false, true}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stops[i].position, want[i].position) << i;
    EXPECT_EQ(stops[i].checkpoint, want[i].checkpoint) << i;
    EXPECT_EQ(stops[i].publish, want[i].publish) << i;
  }
  EXPECT_EQ(cadence.position(), 130u);
  EXPECT_EQ(cadence.Room(), 20u);  // next checkpoint at 150
}

TEST(IngestCadenceTest, SharedPositionReportsBothBoundaries) {
  // 150 is the third checkpoint (every 50) and the second publish
  // (every 75): that one stop reports both.
  IngestCadence cadence(50, 75);
  std::vector<uint64_t> stops;
  CadenceDue due;
  while (cadence.position() < 150) {
    due = cadence.Advance(cadence.Room());
    stops.push_back(cadence.position());
  }
  EXPECT_EQ(stops, (std::vector<uint64_t>{50, 75, 100, 150}));
  EXPECT_TRUE(due.checkpoint);
  EXPECT_TRUE(due.publish);
  EXPECT_EQ(cadence.Room(), 50u);  // checkpoint at 200, publish at 225
}

TEST(IngestCadenceTest, SeededCadenceKeepsAbsolutePositions) {
  IngestCadence cadence(50, 60, /*position=*/100);
  EXPECT_EQ(cadence.position(), 100u);
  EXPECT_EQ(cadence.Room(), 20u);
  const CadenceDue publish = cadence.Advance(20);
  EXPECT_TRUE(publish.publish);
  EXPECT_FALSE(publish.checkpoint);
  EXPECT_EQ(cadence.Room(), 30u);
  const CadenceDue checkpoint = cadence.Advance(30);
  EXPECT_TRUE(checkpoint.checkpoint);
  EXPECT_FALSE(checkpoint.publish);
  EXPECT_EQ(cadence.position(), 150u);
}

// A restored serial run publishes on the absolute cadence: restored
// from the point-100 checkpoint, the next epoch lands at point 120,
// exactly where the uninterrupted run published its second one.
TEST(CheckpointTest, RestoredRunPublishesOnAbsoluteCadence) {
  Dataset data = MakeData(4, 100, 706);
  ASSERT_GE(data.size(), 120u);
  std::string path = TempPath("ckpt_restore_publish.birch");
  BirchOptions o = SmallOpts(data.dim(), 4);
  o.resources.checkpoint_every_n = 50;
  o.resources.checkpoint_path = path;
  o.serving.publish_every_n = 60;
  {
    auto c_or = BirchClusterer::Create(o);
    ASSERT_TRUE(c_or.ok());
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(c_or.value()->Add(data.Row(i)).ok());
    }
    EXPECT_EQ(c_or.value()->server()->epoch(), 1u);  // at point 60
  }
  auto c_or = BirchClusterer::Restore(path, o);
  ASSERT_TRUE(c_or.ok()) << c_or.status().ToString();
  for (size_t i = 100; i < 120; ++i) {
    ASSERT_TRUE(c_or.value()->Add(data.Row(i)).ok());
  }
  EXPECT_EQ(c_or.value()->phase1_stats().points_added, 120u);
  EXPECT_EQ(c_or.value()->server()->epoch(), 1u);
  std::remove(path.c_str());
}

// A resumed stream refines like the uninterrupted one: Restore() +
// Cluster(source) runs the same Phase-4 re-scan of the rewindable
// source as ClusterSource(), serially and sharded, so the cluster CFs
// match bit for bit.
TEST(CheckpointTest, RestoredStreamRunRefinesLikeClusterSource) {
  Dataset data = MakeData(6, 250, 709);
  for (int threads : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const std::string path =
        TempPath("ckpt_stream_refine_" + std::to_string(threads) + "_" +
                 std::to_string(::getpid()) + ".birch");
    BirchOptions o = SmallOpts(data.dim(), 6);
    o.exec.num_threads = threads;
    o.expected_points = data.size();
    o.resources.checkpoint_every_n = 400;
    o.resources.checkpoint_path = path;

    // The uninterrupted run leaves its last mid-stream image at `path`.
    DatasetSource want_src(&data);
    auto want = ClusterSource(&want_src, o);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto img = ReadCheckpointFile(path);
    ASSERT_TRUE(img.ok()) << img.status().ToString();
    ASSERT_GT(img.value().points_ingested, 0u);
    ASSERT_LT(img.value().points_ingested, data.size());

    auto c_or = BirchClusterer::Restore(path, o);
    ASSERT_TRUE(c_or.ok()) << c_or.status().ToString();
    DatasetSource src(&data);
    auto got = c_or.value()->Cluster(&src);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().clusters, want.value().clusters);
    EXPECT_EQ(got.value().centroids, want.value().centroids);
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, ShardedAutoCheckpointRoundTrips) {
  Dataset data = MakeData(6, 200, 707);
  std::string path = TempPath("ckpt_sharded.birch");
  BirchOptions o = SmallOpts(data.dim(), 6);
  o.exec.num_threads = 2;
  o.resources.checkpoint_every_n = 400;
  o.resources.checkpoint_path = path;

  // Uninterrupted sharded run (writing checkpoints along the way).
  auto want_c = BirchClusterer::Create(o);
  ASSERT_TRUE(want_c.ok());
  DatasetSource want_src(&data);
  auto want = want_c.value()->Cluster(&want_src, &data);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  auto img = ReadCheckpointFile(path);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_EQ(img.value().shard_count, 2u);
  EXPECT_EQ(img.value().freezes.size(), 2u);
  EXPECT_EQ(img.value().points_ingested % 400, 0u);

  // Resume from the mid-stream image with the SAME full stream: the
  // dealer skips the ingested prefix, re-fits its splitter from it and
  // continues at the same index, so the result matches the
  // uninterrupted run.
  auto c_or = BirchClusterer::Restore(path, o);
  ASSERT_TRUE(c_or.ok()) << c_or.status().ToString();
  DatasetSource src(&data);
  auto got = c_or.value()->Cluster(&src, &data);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitwiseEqual(want.value(), got.value());
  std::remove(path.c_str());
}

// The same round trip over a CSV of many blocks: its rows reach the
// dealer in blocks the workers decoded, and a cadence that does not
// divide a block's row count cuts the stream inside a block. The
// resumed run skips into that block and ends where the uninterrupted
// run does, bit for bit.
TEST(CheckpointTest, ShardedCsvAutoCheckpointResumesBitwise) {
  Dataset data = MakeData(8, 5000, 711);
  const std::string stem = TempPath("ckpt_sharded_csv");
  const std::string csv = stem + ".csv";
  const std::string path = stem + ".birch";
  {
    std::ofstream f(csv);
    char field[32];
    for (size_t i = 0; i < data.size(); ++i) {
      for (size_t j = 0; j < data.dim(); ++j) {
        std::snprintf(field, sizeof(field), "%.17g", data.Row(i)[j]);
        f << (j == 0 ? "" : ",") << field;
      }
      f << "\n";
    }
  }
  BirchOptions o = SmallOpts(data.dim(), 8);
  o.exec.num_threads = 3;
  o.expected_points = data.size();
  o.resources.checkpoint_every_n = 10007;  // a prime: never a block's rows
  o.resources.checkpoint_path = path;

  auto want_c = BirchClusterer::Create(o);
  ASSERT_TRUE(want_c.ok());
  auto want_src = CsvPointSource::Open(csv);
  ASSERT_TRUE(want_src.ok()) << want_src.status().ToString();
  auto want = want_c.value()->Cluster(want_src.value().get());
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  auto img = ReadCheckpointFile(path);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_EQ(img.value().shard_count, 3u);
  EXPECT_EQ(img.value().points_ingested, 30021u);

  auto c_or = BirchClusterer::Restore(path, o);
  ASSERT_TRUE(c_or.ok()) << c_or.status().ToString();
  auto src = CsvPointSource::Open(csv);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  auto got = c_or.value()->Cluster(src.value().get());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitwiseEqual(want.value(), got.value());
  EXPECT_EQ(got.value().phase1.points_added, data.size());
  std::remove(csv.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoredShardedClusererPinsStreamingApis) {
  Dataset data = MakeData(6, 200, 708);
  std::string path = TempPath("ckpt_sharded_pin.birch");
  BirchOptions o = SmallOpts(data.dim(), 6);
  o.exec.num_threads = 2;
  o.resources.checkpoint_every_n = 400;
  o.resources.checkpoint_path = path;
  {
    auto c = BirchClusterer::Create(o);
    ASSERT_TRUE(c.ok());
    DatasetSource src(&data);
    ASSERT_TRUE(c.value()->Cluster(&src, nullptr).ok());
  }
  auto c_or = BirchClusterer::Restore(path, o);
  ASSERT_TRUE(c_or.ok()) << c_or.status().ToString();
  // Per-shard freezes only materialize inside Cluster(): the streaming
  // entry points cannot feed them and must say so.
  std::vector<double> row(data.dim(), 0.0);
  EXPECT_EQ(c_or.value()->Add(row).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(c_or.value()->AddDataset(data).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(c_or.value()->SaveCheckpoint(path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, SnapshotBehaviorSerialVsShardedMidStream) {
  Dataset data = MakeData(4, 150, 709);
  // Serial: mid-stream snapshots are the incremental API and must work.
  BirchOptions serial = SmallOpts(data.dim(), 4);
  auto sc = BirchClusterer::Create(serial);
  ASSERT_TRUE(sc.ok());
  ASSERT_TRUE(sc.value()->AddDataset(data).ok());
  auto snap = sc.value()->Snapshot(4);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();

  // Sharded without serving: the per-shard trees merge only at
  // Cluster()'s end and there is no published epoch to answer from, so
  // a mid-stream snapshot must refuse instead of reading a stale view.
  BirchOptions sharded = SmallOpts(data.dim(), 4);
  sharded.exec.num_threads = 2;
  auto pc = BirchClusterer::Create(sharded);
  ASSERT_TRUE(pc.ok());
  auto refused = pc.value()->Snapshot(4);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // After Cluster() the merged tree exists and Snapshot works again.
  DatasetSource src(&data);
  ASSERT_TRUE(pc.value()->Cluster(&src, nullptr).ok());
  auto after = pc.value()->Snapshot(4);
  EXPECT_TRUE(after.ok()) << after.status().ToString();

  // Sharded WITH serving: mid-stream snapshots answer from the last
  // published epoch, so serial and sharded behave identically once an
  // epoch exists. Cluster() runs on a second thread; this thread waits
  // for the first publish, then snapshots concurrently with ingest.
  BirchOptions served = SmallOpts(data.dim(), 4);
  served.exec.num_threads = 2;
  served.serving.publish_every_n = 50;
  auto qc = BirchClusterer::Create(served);
  ASSERT_TRUE(qc.ok());
  // Before any epoch the refusal stands (same code, new remedy).
  auto early = qc.value()->Snapshot(4);
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);
  DatasetSource served_src(&data);
  Status cluster_status;
  std::thread runner([&] {
    cluster_status = qc.value()->Cluster(&served_src, nullptr).status();
  });
  while (qc.value()->server()->epoch() == 0) {
    std::this_thread::yield();
  }
  // How far ingest has got is the runner's business; what the API
  // promises is that the snapshot reads an epoch no older than one
  // acquired before it and no newer than one acquired after it, and
  // that epochs land on the publish cadence or at the stream's end.
  auto first = qc.value()->server()->Acquire();
  auto mid = qc.value()->Snapshot(4);
  auto last = qc.value()->server()->Acquire();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(mid.ok()) << mid.status().ToString();
  if (mid.ok()) {
    const uint64_t seen = mid.value().phase1.points_added;
    EXPECT_GT(seen, 0u);
    EXPECT_GE(seen, first->points_ingested());
    EXPECT_LE(seen, last->points_ingested());
    EXPECT_TRUE(seen % 50 == 0 || seen == data.size()) << seen;
    EXPECT_FALSE(mid.value().clusters.empty());
  }
  runner.join();
  ASSERT_TRUE(cluster_status.ok()) << cluster_status.ToString();
}

TEST(CheckpointTest, FingerprintMismatchIsInvalidArgument) {
  Dataset data = MakeData(4, 150, 710);
  BirchOptions o = SmallOpts(data.dim(), 4);
  std::string path = TempPath("ckpt_fingerprint.birch");
  {
    auto c = BirchClusterer::Create(o);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    ASSERT_TRUE(c.value()->SaveCheckpoint(path).ok());
  }
  auto expect_invalid = [&](const BirchOptions& bad) {
    auto c = BirchClusterer::Restore(path, bad);
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  };
  BirchOptions wrong_dim = o;
  wrong_dim.dim = o.dim + 1;
  expect_invalid(wrong_dim);
  BirchOptions wrong_page = o;
  wrong_page.resources.page_size = 1024;
  expect_invalid(wrong_page);
  BirchOptions wrong_metric = o;
  wrong_metric.tree.metric = DistanceMetric::kD0;
  expect_invalid(wrong_metric);
  BirchOptions wrong_kind = o;
  wrong_kind.tree.threshold_kind = ThresholdKind::kRadius;
  expect_invalid(wrong_kind);
  BirchOptions wrong_threads = o;
  wrong_threads.exec.num_threads = 2;  // serial image needs num_threads == 0
  expect_invalid(wrong_threads);
  std::remove(path.c_str());
}

TEST(CheckpointTest, BetulaKillAndResumeIsBitwiseIdentical) {
  // The CF-representation policy must survive the checkpoint boundary:
  // kill/resume under BETULA reproduces the uninterrupted run exactly.
  Dataset data = MakeData(9, 300, 701);
  BirchOptions o = SmallOpts(data.dim(), 9);
  o.tree.cf = CfRepresentation::kBetula;
  auto want = RunUninterrupted(data, o);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  std::string path = TempPath("ckpt_betula.birch");
  auto got = RunInterrupted(data, o, data.size() / 2, path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitwiseEqual(want.value(), got.value());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoreUnderOtherCfRepresentationIsInvalidArgument) {
  // A checkpoint written under one CF representation must refuse to
  // restore under the other — the pages would be silently misread as
  // the wrong statistics otherwise.
  Dataset data = MakeData(4, 150, 713);
  BirchOptions betula = SmallOpts(data.dim(), 4);
  betula.tree.cf = CfRepresentation::kBetula;
  std::string path = TempPath("ckpt_cf_rep.birch");
  {
    auto c = BirchClusterer::Create(betula);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    ASSERT_TRUE(c.value()->SaveCheckpoint(path).ok());
  }
  BirchOptions classic = SmallOpts(data.dim(), 4);
  auto c = BirchClusterer::Restore(path, classic);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);

  // The matching options still restore.
  EXPECT_TRUE(BirchClusterer::Restore(path, betula).ok());
  std::remove(path.c_str());
}

// --- Fault injection on the checkpoint FILE: torn header, truncation,
// and bit rot must all surface as kCorruption. Runs in `ctest -L
// smoke` as the checkpoint leg of the fault-injection story. ---

std::string WriteSampleCheckpoint(const std::string& name) {
  Dataset data = MakeData(6, 200, 711);
  BirchOptions o = SmallOpts(data.dim(), 6);
  std::string path = TempPath(name);
  auto c = BirchClusterer::Create(o);
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.value()->AddDataset(data).ok());
  EXPECT_TRUE(c.value()->SaveCheckpoint(path).ok());
  return path;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, ImpossibleCfFingerprintIsCorruption) {
  // A header whose CF fingerprint encodes values no writer produces
  // (representation > 1, width neither 64 nor the retired 32) is
  // Corruption, not a decode.
  std::string base = WriteSampleCheckpoint("ckpt_cf_fp.birch");
  auto img_or = ReadCheckpointFile(base);
  ASSERT_TRUE(img_or.ok());
  std::string path = TempPath("ckpt_cf_fp_bad.birch");

  CheckpointImage bad_rep = img_or.value();
  bad_rep.cf_representation = 7;
  ASSERT_TRUE(WriteCheckpointFile(path, bad_rep).ok());
  EXPECT_EQ(ReadCheckpointFile(path).status().code(),
            StatusCode::kCorruption);

  CheckpointImage bad_width = img_or.value();
  bad_width.scalar_width = 16;
  ASSERT_TRUE(WriteCheckpointFile(path, bad_width).ok());
  EXPECT_EQ(ReadCheckpointFile(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
  std::remove(base.c_str());
}

TEST(CheckpointTest, OldVersionIsInvalidArgumentNotCorruption) {
  // A well-formed v1 file (pre-CF-fingerprint layout) must be refused
  // as InvalidArgument BEFORE the rest of the header is decoded — the
  // v1 header simply has fewer fields, so decoding it as v2 would
  // misinterpret the stream.
  std::string base = WriteSampleCheckpoint("ckpt_v1.birch");
  auto img_or = ReadCheckpointFile(base);
  ASSERT_TRUE(img_or.ok());
  std::string path = TempPath("ckpt_v1_bad.birch");
  CheckpointImage old = img_or.value();
  old.version = 1;
  ASSERT_TRUE(WriteCheckpointFile(path, old).ok());
  EXPECT_EQ(ReadCheckpointFile(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  std::remove(base.c_str());
}

TEST(CheckpointTest, TornHeaderIsCorruption) {
  std::string path = WriteSampleCheckpoint("ckpt_torn.birch");
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 4u);
  WriteAll(path, std::vector<char>(bytes.begin(), bytes.begin() + 4));
  auto img = ReadCheckpointFile(path);
  EXPECT_EQ(img.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedTailIsCorruption) {
  std::string path = WriteSampleCheckpoint("ckpt_trunc.birch");
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);
  // Chop at several depths: inside the footer, inside a freeze
  // section, and right after the header.
  for (size_t keep : {bytes.size() - 3, bytes.size() / 2, size_t{32}}) {
    WriteAll(path, std::vector<char>(bytes.begin(),
                                     bytes.begin() + static_cast<long>(keep)));
    auto img = ReadCheckpointFile(path);
    EXPECT_EQ(img.status().code(), StatusCode::kCorruption)
        << "keep=" << keep;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, BitFlipAnywhereIsDetected) {
  std::string path = WriteSampleCheckpoint("ckpt_flip.birch");
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 256u);
  // Flip one bit at several offsets spanning magic, header, freeze
  // payload, and footer. Every flip must be detected (Corruption), or
  // at minimum never produce a successfully-decoded different image.
  for (size_t off : {size_t{2}, size_t{14}, bytes.size() / 2,
                     bytes.size() - 6}) {
    std::vector<char> mutated = bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x10);
    WriteAll(path, mutated);
    auto img = ReadCheckpointFile(path);
    ASSERT_FALSE(img.ok()) << "bit flip at byte " << off << " undetected";
    EXPECT_EQ(img.status().code(), StatusCode::kCorruption)
        << "offset=" << off;
  }
  // The pristine bytes still parse: the detector rejects the flips, not
  // the file.
  WriteAll(path, bytes);
  EXPECT_TRUE(ReadCheckpointFile(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotCorruption) {
  auto img = ReadCheckpointFile(TempPath("ckpt_does_not_exist.birch"));
  EXPECT_FALSE(img.ok());
  EXPECT_EQ(img.status().code(), StatusCode::kIOError);
}

// --- Compressed checkpoints (resources.page_codec != none) ---

TEST(CheckpointTest, CompressedKillAndResumeIsBitwiseIdentical) {
  // The compressed checkpoint must capture exactly the same state as
  // the raw one: kill/resume with delta-rle freeze sections reproduces
  // the uninterrupted run bitwise.
  Dataset data = MakeData(9, 300, 701);
  BirchOptions o = SmallOpts(data.dim(), 9);
  o.resources.page_codec = PageCodecKind::kDeltaRle;
  auto want = RunUninterrupted(data, o);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  std::string path = TempPath("ckpt_codec.birch");
  auto got = RunInterrupted(data, o, data.size() / 2, path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitwiseEqual(want.value(), got.value());
  std::remove(path.c_str());
}

TEST(CheckpointTest, CompressedCheckpointIsSmallerOnCfState) {
  // Freeze sections hold tree pages and spill records — CF-shaped
  // data — so the enveloped file should beat the raw one.
  Dataset data = MakeData(6, 200, 715);
  BirchOptions raw_opts = SmallOpts(data.dim(), 6);
  BirchOptions codec_opts = raw_opts;
  codec_opts.resources.page_codec = PageCodecKind::kDeltaRle;
  std::string raw_path = TempPath("ckpt_raw_size.birch");
  std::string codec_path = TempPath("ckpt_codec_size.birch");
  auto save = [&data](const BirchOptions& o, const std::string& path) {
    auto c = BirchClusterer::Create(o);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    ASSERT_TRUE(c.value()->SaveCheckpoint(path).ok());
  };
  save(raw_opts, raw_path);
  save(codec_opts, codec_path);
  EXPECT_LT(ReadAll(codec_path).size(), ReadAll(raw_path).size());
  std::remove(raw_path.c_str());
  std::remove(codec_path.c_str());
}

TEST(CheckpointTest, CrossCodecRestoreIsInvalidArgument) {
  // A checkpoint's codec is part of the options fingerprint: restoring
  // under a different resources.page_codec must be refused with a
  // remedy, in both directions.
  Dataset data = MakeData(4, 150, 716);
  BirchOptions raw_opts = SmallOpts(data.dim(), 4);
  BirchOptions codec_opts = raw_opts;
  codec_opts.resources.page_codec = PageCodecKind::kDeltaRle;
  std::string path = TempPath("ckpt_cross_codec.birch");

  {
    auto c = BirchClusterer::Create(codec_opts);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    ASSERT_TRUE(c.value()->SaveCheckpoint(path).ok());
  }
  auto mismatch = BirchClusterer::Restore(path, raw_opts);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find("page_codec"),
            std::string::npos);
  EXPECT_TRUE(BirchClusterer::Restore(path, codec_opts).ok());

  {
    auto c = BirchClusterer::Create(raw_opts);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    ASSERT_TRUE(c.value()->SaveCheckpoint(path).ok());
  }
  auto mismatch2 = BirchClusterer::Restore(path, codec_opts);
  ASSERT_FALSE(mismatch2.ok());
  EXPECT_EQ(mismatch2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(BirchClusterer::Restore(path, raw_opts).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, LegacyHeaderWithoutCodecFieldStillLoads) {
  // Files written before page compression end their header right after
  // points_ingested — no trailing codec u32. Surgically rebuild such a
  // header (shorten the payload, fix the frame length and CRC) and
  // require the reader to decode it as codec 0 and load normally.
  std::string path = WriteSampleCheckpoint("ckpt_legacy.birch");
  std::vector<char> bytes = ReadAll(path);
  // Layout: magic(8) | tag(4) size(8) payload(size) crc(4) | ...
  const size_t kHdrOff = 8;
  uint64_t size = 0;
  std::memcpy(&size, bytes.data() + kHdrOff + 4, 8);
  ASSERT_EQ(size, 52u);  // v2 header payload with the codec field
  const size_t payload_off = kHdrOff + 4 + 8;
  std::vector<char> legacy(bytes.begin(), bytes.begin() + payload_off);
  // Shortened payload: everything but the trailing u32 codec field.
  legacy.insert(legacy.end(), bytes.begin() + payload_off,
                bytes.begin() + payload_off + 48);
  uint64_t new_size = 48;
  std::memcpy(legacy.data() + kHdrOff + 4, &new_size, 8);
  uint32_t crc = Crc32c(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(legacy.data()) + payload_off, 48));
  for (int i = 0; i < 4; ++i) {
    legacy.push_back(static_cast<char>(crc >> (8 * i)));
  }
  // Everything after the original header section rides along unchanged.
  legacy.insert(legacy.end(),
                bytes.begin() + static_cast<long>(payload_off + 52 + 4),
                bytes.end());
  WriteAll(path, legacy);

  auto img = ReadCheckpointFile(path);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_EQ(img.value().page_codec, 0u);
  // And the full Restore path accepts it under codec-none options.
  Dataset data = MakeData(6, 200, 711);
  BirchOptions o = SmallOpts(data.dim(), 6);
  EXPECT_TRUE(BirchClusterer::Restore(path, o).ok());
  std::remove(path.c_str());
}

// Sets the u32 at `field_off` in the header payload of the checkpoint
// at `path` from `was` to `value` and re-CRCs the header section, so
// the file is intact and only that field says something new. Layout:
// magic(8) | tag(4) size(8) payload(52) crc(4) | ...
void PatchHeaderU32(const std::string& path, size_t field_off, uint32_t was,
                    uint32_t value) {
  std::vector<char> bytes = ReadAll(path);
  const size_t kHdrOff = 8;
  const size_t payload_off = kHdrOff + 4 + 8;
  const size_t off = payload_off + field_off;
  uint64_t size = 0;
  std::memcpy(&size, bytes.data() + kHdrOff + 4, 8);
  ASSERT_EQ(size, 52u);
  uint32_t old = 0;
  std::memcpy(&old, bytes.data() + off, 4);
  ASSERT_EQ(old, was);
  for (int i = 0; i < 4; ++i) {
    bytes[off + i] = static_cast<char>(value >> (8 * i));
  }
  uint32_t crc = Crc32c(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()) + payload_off, 52));
  for (int i = 0; i < 4; ++i) {
    bytes[payload_off + 52 + i] = static_cast<char>(crc >> (8 * i));
  }
  WriteAll(path, bytes);
}

TEST(CheckpointTest, Float32WidthHeaderIsInvalidArgument) {
  // Float32 CF storage is retired; a header whose width field says 32
  // was written under it. Surgically set a written header's width to 32
  // (fixing the CRC) and require InvalidArgument naming float32
  // storage: the file is intact, this build just does not read it.
  std::string path = WriteSampleCheckpoint("ckpt_f32.birch");
  // The width is the u32 at payload offset 32, after version, dim,
  // page_size, metric, threshold kind and CF representation.
  ASSERT_NO_FATAL_FAILURE(PatchHeaderU32(path, 32, 64, 32));

  auto img = ReadCheckpointFile(path);
  ASSERT_FALSE(img.ok());
  EXPECT_EQ(img.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(img.status().message().find("float32"), std::string::npos)
      << img.status().ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, ImpossibleShardCountIsCorruption) {
  // A header that claims 2^32 - 1 shards in front of one freeze
  // section: the count sizes nothing, and the first missing shard
  // section makes the file Corruption (no allocation failure).
  std::string path = WriteSampleCheckpoint("ckpt_shards.birch");
  // shard_count is the u32 at payload offset 36, after the width; a
  // serial checkpoint writes 0.
  ASSERT_NO_FATAL_FAILURE(PatchHeaderU32(path, 36, 0, UINT32_MAX));

  auto img = ReadCheckpointFile(path);
  ASSERT_FALSE(img.ok());
  EXPECT_EQ(img.status().code(), StatusCode::kCorruption)
      << img.status().ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, CompressedSectionBitFlipIsDetected) {
  // Bit rot inside a compressed freeze section: the section CRC covers
  // the compressed image, so the flip is Corruption before the
  // envelope decoder ever runs.
  Dataset data = MakeData(6, 200, 717);
  BirchOptions o = SmallOpts(data.dim(), 6);
  o.resources.page_codec = PageCodecKind::kDeltaRle;
  std::string path = TempPath("ckpt_codec_flip.birch");
  {
    auto c = BirchClusterer::Create(o);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->AddDataset(data).ok());
    ASSERT_TRUE(c.value()->SaveCheckpoint(path).ok());
  }
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 256u);
  for (size_t off : {size_t{100}, bytes.size() / 2, bytes.size() - 32}) {
    std::vector<char> mutated = bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x04);
    WriteAll(path, mutated);
    auto img = ReadCheckpointFile(path);
    ASSERT_FALSE(img.ok()) << "flip at byte " << off << " undetected";
    EXPECT_EQ(img.status().code(), StatusCode::kCorruption)
        << "offset=" << off;
  }
  WriteAll(path, bytes);
  EXPECT_TRUE(ReadCheckpointFile(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveAfterFinishIsFailedPrecondition) {
  Dataset data = MakeData(4, 100, 712);
  BirchOptions o = SmallOpts(data.dim(), 4);
  auto c = BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->AddDataset(data).ok());
  ASSERT_TRUE(c.value()->Finish(&data).ok());
  EXPECT_EQ(c.value()->SaveCheckpoint(TempPath("ckpt_late.birch")).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace birch
