// Golden outputs: bit-for-bit fingerprints of every artifact the CF
// tree feeds, compared with recorded values. Each case hashes
//   - the Phase-1 leaf CFs in chain order,
//   - the TreeIO page bytes of the Phase-1 tree,
//   - ClusterDataset labels and cluster CFs,
//   - ServingSnapshot::Assign answers for a fixed probe set,
// on an input where leaf splits, merging-refinement resplits, rebuilds
// and both spill files (outlier entries and delay-split points) fire.
// A change to node storage, the insert path or the kernels that alters
// any result by one ulp changes a hash here.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "birch/birch.h"
#include "birch/phase1.h"
#include "birch/phase1_parallel.h"
#include "birch/point_source.h"
#include "birch/tree_io.h"
#include "datagen/paper_datasets.h"
#include "exec/thread_pool.h"
#include "pagestore/page_store.h"
#include "serving/snapshot.h"
#include "util/random.h"

namespace birch {
namespace {

/// FNV-1a over the exact bytes it is fed.
class Fingerprint {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Cf(const CfVector& cf) {
    F64(cf.n());
    for (double v : cf.raw_vec()) F64(v);
    F64(cf.raw_scalar());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Golden {
  uint64_t leaf_cfs = 0;
  uint64_t tree_pages = 0;
  uint64_t labels = 0;
  uint64_t clusters = 0;
  uint64_t assign = 0;
};

const GeneratedData& Input() {
  static const GeneratedData* data = [] {
    auto gen = GeneratePaperDataset(PaperDataset::kDS1, /*k=*/25,
                                    /*n=*/200, /*noise_fraction=*/0.1);
    EXPECT_TRUE(gen.ok());
    return new GeneratedData(std::move(gen).ValueOrDie());
  }();
  return *data;
}

BirchOptions BaseOptions() {
  BirchOptions o;
  o.dim = 2;
  o.k = 25;
  o.resources.memory_bytes = 16 * 1024;
  o.resources.disk_bytes = 5 * 1024;
  o.resources.page_size = 512;
  return o;
}

Phase1Options Phase1For(const BirchOptions& o, uint64_t points) {
  Phase1Options p;
  p.tree.dim = o.dim;
  p.tree.page_size = o.resources.page_size;
  p.tree.threshold = o.tree.initial_threshold;
  p.tree.metric = o.tree.metric;
  p.tree.threshold_kind = o.tree.threshold_kind;
  p.tree.merging_refinement = o.tree.merging_refinement;
  p.tree.cf = o.tree.cf;
  p.tree.cf_storage = o.tree.cf_storage;
  p.tree.kernel = o.exec.kernel;
  p.memory_budget_bytes = o.resources.memory_bytes;
  p.disk_budget_bytes = o.resources.disk_bytes;
  p.expected_points = points;
  return p;
}

/// Probe points for Assign: every 97th data row plus uniform draws
/// over a box slightly larger than the data.
std::vector<std::vector<double>> Probes(const Dataset& data) {
  std::vector<std::vector<double>> probes;
  std::vector<double> lo(data.dim(), 1e300), hi(data.dim(), -1e300);
  for (size_t i = 0; i < data.size(); ++i) {
    auto row = data.Row(i);
    for (size_t k = 0; k < data.dim(); ++k) {
      lo[k] = std::min(lo[k], row[k]);
      hi[k] = std::max(hi[k], row[k]);
    }
    if (i % 97 == 0) probes.emplace_back(row.begin(), row.end());
  }
  Rng rng(2024);
  for (int i = 0; i < 64; ++i) {
    std::vector<double> p(data.dim());
    for (size_t k = 0; k < data.dim(); ++k) {
      const double pad = 0.1 * (hi[k] - lo[k]);
      p[k] = rng.Uniform(lo[k] - pad, hi[k] + pad);
    }
    probes.push_back(std::move(p));
  }
  return probes;
}

/// Hashes the Phase-1 tree: leaf CFs, TreeIO pages, snapshot answers.
void HashTree(const CfTree& tree, const BirchOptions& o, const Dataset& data,
              Golden* g) {
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;

  Fingerprint leaves;
  std::vector<CfVector> entries;
  tree.CollectLeafEntries(&entries);
  leaves.U64(entries.size());
  for (const CfVector& e : entries) leaves.Cf(e);
  g->leaf_cfs = leaves.value();

  Fingerprint pages;
  PageStore store(tree.options().page_size);
  auto image_or = TreeIO::Write(tree, &store);
  ASSERT_TRUE(image_or.ok()) << image_or.status().ToString();
  const TreeImage& image = image_or.value();
  pages.U64(image.root);
  for (PageId id : image.leaf_chain) pages.U64(id);
  std::vector<uint8_t> page;
  for (PageId id = 0; id < store.num_pages(); ++id) {
    ASSERT_TRUE(store.Read(id, &page).ok());
    pages.Bytes(page.data(), page.size());
  }
  g->tree_pages = pages.value();

  serving::SnapshotBuildOptions s;
  s.k = o.k;
  s.seed = o.seed;
  s.kernel = KernelKind::kBatch;
  auto snap_or = serving::ServingSnapshot::Build(tree, s);
  ASSERT_TRUE(snap_or.ok()) << snap_or.status().ToString();
  const serving::ServingSnapshot& snap = *snap_or.value();
  Fingerprint assign;
  kernel::Workspace ws;
  for (const auto& p : Probes(data)) {
    serving::AssignResult a = snap.Assign(p, &ws);
    serving::AssignResult b = snap.AssignWith(p, KernelKind::kScalar, &ws);
    EXPECT_EQ(a.leaf_entry, b.leaf_entry);
    EXPECT_EQ(a.distance, b.distance);
    assign.U64(static_cast<uint64_t>(a.cluster_id));
    assign.U64(a.leaf_entry);
    assign.F64(a.distance);
    assign.F64(a.radius);
  }
  g->assign = assign.value();
}

void HashClustering(const Dataset& data, const BirchOptions& o, Golden* g) {
  auto r_or = ClusterDataset(data, o);
  ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
  const BirchResult& r = r_or.value();
  Fingerprint labels;
  for (int l : r.labels) labels.U64(static_cast<uint64_t>(l));
  g->labels = labels.value();
  Fingerprint clusters;
  clusters.U64(r.clusters.size());
  for (const CfVector& c : r.clusters) clusters.Cf(c);
  g->clusters = clusters.value();
}

/// Serial pipeline: one Phase1Builder for the tree artifacts, then
/// ClusterDataset for labels and clusters.
Golden RunSerial(const BirchOptions& o) {
  const Dataset& data = Input().data;
  Golden g;
  Phase1Builder builder(Phase1For(o, data.size()));
  EXPECT_TRUE(builder.AddDataset(data).ok());
  EXPECT_TRUE(builder.Finish().ok());
  const Phase1Stats& st = builder.stats();
  const CfTreeStats& ts = builder.tree().stats();
  EXPECT_GT(ts.leaf_splits, 0u);
  EXPECT_GT(ts.resplits, 0u);
  EXPECT_GT(st.rebuilds, 0u);
  EXPECT_GT(st.outlier_entries_spilled, 0u);
  EXPECT_GT(st.points_delay_spilled, 0u);
  HashTree(builder.tree(), o, data, &g);
  HashClustering(data, o, &g);
  return g;
}

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.leaf_cfs, want.leaf_cfs) << std::hex << got.leaf_cfs;
  EXPECT_EQ(got.tree_pages, want.tree_pages) << std::hex << got.tree_pages;
  EXPECT_EQ(got.labels, want.labels) << std::hex << got.labels;
  EXPECT_EQ(got.clusters, want.clusters) << std::hex << got.clusters;
  EXPECT_EQ(got.assign, want.assign) << std::hex << got.assign;
}

TEST(GoldenTest, ClassicD2Diameter) {
  ExpectGolden(RunSerial(BaseOptions()),
               {0x7cb185ab708d56b6ULL, 0xe2292937e6767fc8ULL,
                0xae4615f7e1f69f94ULL, 0xf86d0e4499a88cf2ULL,
                0x42dc0c947046fe82ULL});
}

TEST(GoldenTest, ClassicD0Radius) {
  BirchOptions o = BaseOptions();
  o.tree.metric = DistanceMetric::kD0;
  o.tree.threshold_kind = ThresholdKind::kRadius;
  ExpectGolden(RunSerial(o), {0x22afc1a18138e34bULL, 0xd97a28f5c725fe8cULL,
                              0x6035fe4020a21b2aULL, 0xaf7355fb154e895fULL,
                              0x6e1881797ae77d55ULL});
}

TEST(GoldenTest, ClassicD4Radius) {
  BirchOptions o = BaseOptions();
  o.tree.metric = DistanceMetric::kD4;
  o.tree.threshold_kind = ThresholdKind::kRadius;
  ExpectGolden(RunSerial(o), {0x7ae125e0b8eda7f8ULL, 0x9579412d516f1affULL,
                              0x2a63c4017d223fccULL, 0xa1730b724e024b8fULL,
                              0x06df30c7ab701386ULL});
}

TEST(GoldenTest, BetulaD2) {
  BirchOptions o = BaseOptions();
  o.tree.cf = CfRepresentation::kBetula;
  ExpectGolden(RunSerial(o), {0xd18a73f30f781b10ULL, 0xac0cddf20e8ebc7eULL,
                              0xae4615f7e1f69f94ULL, 0x573c252a234dc6beULL,
                              0xca35045720a47bbdULL});
}

TEST(GoldenTest, BetulaF32) {
  BirchOptions o = BaseOptions();
  o.tree.cf = CfRepresentation::kBetula;
  o.tree.cf_storage = CfStorage::kF32;
  ExpectGolden(RunSerial(o), {0x7960b200c2785e2aULL, 0xa474a6b1743548b0ULL,
                              0xae3e268f99f3b485ULL, 0x38a3c93542ee1decULL,
                              0x0a7b21c3e6fe19e6ULL});
}

TEST(GoldenTest, TwoThreads) {
  BirchOptions o = BaseOptions();
  o.exec.num_threads = 2;
  const Dataset& data = Input().data;
  Golden g;
  exec::ThreadPool pool(2);
  ShardedPhase1Options sp;
  sp.phase1 = Phase1For(o, data.size());
  sp.num_shards = o.exec.num_threads;
  DatasetSource source(&data);
  auto sharded_or = RunShardedPhase1(&source, sp, &pool);
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().ToString();
  const ShardedPhase1Result& sharded = sharded_or.value();
  EXPECT_GT(sharded.tree->stats().leaf_splits, 0u);
  EXPECT_GT(sharded.stats.rebuilds, 0u);
  EXPECT_GT(sharded.stats.outlier_entries_spilled, 0u);
  EXPECT_GT(sharded.stats.points_delay_spilled, 0u);
  HashTree(*sharded.tree, o, data, &g);
  HashClustering(data, o, &g);
  ExpectGolden(g, {0xed2082e91abaa397ULL, 0x623c1426beef0f80ULL,
                   0x1de75714d7327e5aULL, 0x552206eff56fa79eULL,
                   0xcbf80497376d1283ULL});
}

}  // namespace
}  // namespace birch
