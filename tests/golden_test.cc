// Golden outputs: bit-for-bit fingerprints of every artifact the CF
// tree feeds, compared with recorded values. Each case hashes
//   - the Phase-1 leaf CFs in chain order,
//   - the TreeIO node records of the Phase-1 tree, each zero-padded to
//     the page size,
//   - ClusterDataset labels and cluster CFs,
//   - ServingSnapshot::Assign answers for a fixed probe set,
// on an input where leaf splits, merging-refinement resplits, rebuilds
// and both spill files (outlier entries and delay-split points) fire.
// Further cases pin Phase 1 across an outlier-disk and fault grid, the
// sharded merge's rebuild and re-absorb, and Phase 3's medoid search.
// A change to node storage, the insert path or the kernels that alters
// any result by one ulp changes a hash here.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "birch/birch.h"
#include "birch/global_cluster.h"
#include "birch/phase1.h"
#include "birch/phase1_parallel.h"
#include "birch/point_source.h"
#include "birch/tree_io.h"
#include "datagen/generator.h"
#include "datagen/paper_datasets.h"
#include "exec/thread_pool.h"
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

  // Each node record, zero-padded to the page size: the bytes of the
  // page-per-node layout the hashes were recorded over.
  Fingerprint pages;
  const TreeImage image = TreeIO::Write(tree);
  pages.U64(image.root);
  for (PageId id : image.leaf_chain) pages.U64(id);
  for (std::vector<uint8_t> page : image.records) {
    page.resize(image.page_size, 0);
    pages.Bytes(page.data(), page.size());
  }
  g->tree_pages = pages.value();

  GlobalClusterOptions global;
  global.k = o.k;
  global.seed = o.seed;
  auto snap_or = serving::ServingSnapshot::Build(
      tree, /*points_ingested=*/0, global);
  ASSERT_TRUE(snap_or.ok()) << snap_or.status().ToString();
  const serving::ServingSnapshot& snap = *snap_or.value();
  Fingerprint assign;
  kernel::Workspace ws;
  for (const auto& p : Probes(data)) {
    serving::AssignResult a = snap.Assign(p, &ws);
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

TEST(GoldenTest, ClassicD1Diameter) {
  BirchOptions o = BaseOptions();
  o.tree.metric = DistanceMetric::kD1;
  ExpectGolden(RunSerial(o), {0xd6903026f5410a79ULL, 0xda4ab790f2c347f7ULL,
                              0xbe4043a75535fb44ULL, 0x3062003bb170bc14ULL,
                              0x665b43a73685c452ULL});
}

TEST(GoldenTest, ClassicD3Radius) {
  BirchOptions o = BaseOptions();
  o.tree.metric = DistanceMetric::kD3;
  o.tree.threshold_kind = ThresholdKind::kRadius;
  ExpectGolden(RunSerial(o), {0xd1525b49ca431f72ULL, 0xfe06be198bc068daULL,
                              0xcdc21acfee3e40edULL, 0xa172b88364f916aaULL,
                              0x575099e996a2b104ULL});
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
                   0x1de75714d7327e5aULL, 0xb4781c59290dc9ebULL,
                   0xcbf80497376d1283ULL});
}

// --- Phase-1 outlier-disk grid ----------------------------------------
//
// Phase1Builder over every combination of dimension, outlier-disk size,
// fault rate (read, write, loss and flip all at that rate) and the
// delay-split / outlier-handling switches. Each row pins a hash of the
// leaf CFs in chain order followed by the final outliers, and a hash of
// every Phase1Stats, RobustnessStats and CfTreeStats field (plus the
// run's status code). Across the grid every outlier-disk path fires:
// delay and outlier spills, reabsorb cycles, forced inserts, degradation
// events, the in-tree fallback's absorbs and drops, and lost records.

struct GridCase {
  size_t dim;
  size_t disk_bytes;
  double fault_rate;
  bool delay_split;
  bool outlier_handling;
};

struct GridRow {
  uint64_t cfs = 0;
  uint64_t stats = 0;
};

constexpr size_t kGridPage = 512;

const Dataset& GridInput(size_t dim) {
  if (dim == 2) return Input().data;
  static const GeneratedData* data = [] {
    GeneratorOptions g;
    g.dim = 16;
    g.k = 12;
    g.n_low = g.n_high = 250;
    g.r_low = g.r_high = 1.0;
    g.pattern = PlacementPattern::kRandom;
    g.noise_fraction = 0.1;
    g.seed = 1616;
    auto gen = Generate(g);
    EXPECT_TRUE(gen.ok());
    return new GeneratedData(std::move(gen).ValueOrDie());
  }();
  return data->data;
}

std::vector<GridCase> GridCases() {
  std::vector<GridCase> cases;
  for (size_t dim : {2, 16}) {
    for (size_t disk : {size_t{0}, kGridPage, 2 * kGridPage, size_t{8192}}) {
      for (double rate : {0.0, 0.05, 0.3, 0.9}) {
        for (bool delay : {false, true}) {
          for (bool outliers : {false, true}) {
            cases.push_back({dim, disk, rate, delay, outliers});
          }
        }
      }
    }
  }
  return cases;
}

/// "d disk rate delay outliers", the comment column of kGridRows.
std::string Describe(const GridCase& c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu %zu %g %d %d", c.dim, c.disk_bytes,
                c.fault_rate, c.delay_split, c.outlier_handling);
  return buf;
}

/// Runs one grid case; `totals` accumulates the coverage counters.
GridRow RunGridCase(const GridCase& c, Phase1Stats* p1_totals,
                    RobustnessStats* rob_totals) {
  const Dataset& data = GridInput(c.dim);
  Phase1Options p;
  p.tree.dim = c.dim;
  p.tree.page_size = kGridPage;
  p.memory_budget_bytes = (c.dim == 2 ? 16 : 24) * 1024;
  p.disk_budget_bytes = c.disk_bytes;
  p.delay_split = c.delay_split;
  p.outlier_handling = c.outlier_handling;
  p.expected_points = data.size();
  p.fault.read_transient_rate = c.fault_rate;
  p.fault.write_transient_rate = c.fault_rate;
  p.fault.page_loss_rate = c.fault_rate;
  p.fault.bit_flip_rate = c.fault_rate;
  p.fault.seed = 0x9e1d;
  Phase1Builder builder(p);
  Status st = builder.AddDataset(data);
  if (st.ok()) st = builder.Finish();

  GridRow row;
  Fingerprint cfs;
  std::vector<CfVector> entries;
  builder.tree().CollectLeafEntries(&entries);
  cfs.U64(entries.size());
  for (const CfVector& e : entries) cfs.Cf(e);
  cfs.U64(builder.final_outliers().size());
  for (const CfVector& e : builder.final_outliers()) cfs.Cf(e);
  row.cfs = cfs.value();

  const Phase1Stats& s = builder.stats();
  const RobustnessStats r = builder.robustness();
  const CfTreeStats& t = builder.tree().stats();
  Fingerprint stats;
  stats.U64(static_cast<uint64_t>(st.code()));
  for (uint64_t v : {s.points_added, s.rebuilds, s.outlier_entries_spilled,
                     s.outlier_entries_reabsorbed, s.points_delay_spilled,
                     s.reabsorb_cycles, s.forced_inserts}) {
    stats.U64(v);
  }
  stats.F64(s.final_threshold);
  for (uint64_t v : {r.transient_io_errors, r.io_retries,
                     r.simulated_backoff_us, r.checksum_failures,
                     r.pages_lost, r.records_lost, r.degradation_events,
                     r.fallback_absorbed, r.fallback_dropped,
                     static_cast<uint64_t>(r.outlier_disk_disabled)}) {
    stats.U64(v);
  }
  for (uint64_t v : {t.inserts, t.absorbed, t.new_entries, t.rejected,
                     t.leaf_splits, t.nonleaf_splits, t.merge_refinements,
                     t.resplits, t.rebuilds, t.distance_comparisons}) {
    stats.U64(v);
  }
  row.stats = stats.value();

  p1_totals->points_delay_spilled += s.points_delay_spilled;
  p1_totals->outlier_entries_spilled += s.outlier_entries_spilled;
  p1_totals->reabsorb_cycles += s.reabsorb_cycles;
  p1_totals->forced_inserts += s.forced_inserts;
  rob_totals->degradation_events += r.degradation_events;
  rob_totals->fallback_absorbed += r.fallback_absorbed;
  rob_totals->fallback_dropped += r.fallback_dropped;
  rob_totals->records_lost += r.records_lost;
  return row;
}

// Rows in GridCases() order; the comment is d, disk bytes, fault rate,
// delay split, outlier handling.
const GridRow kGridRows[] = {
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0 0 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0 0 1
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0 1 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0 1 1
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.05 0 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.05 0 1
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.05 1 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.05 1 1
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.3 0 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.3 0 1
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.3 1 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.3 1 1
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.9 0 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.9 0 1
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.9 1 0
    {0x05749a6cde5d0506ULL, 0x8a7c7275cedf2e7dULL},  // 2 0 0.9 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0 0 1
    {0xcf3303c460d4c4ceULL, 0x61e2ad3dd32a5b8aULL},  // 2 512 0 1 0
    {0x3bbc45c6fbeaefceULL, 0xcc552e62805e71c1ULL},  // 2 512 0 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0.05 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0.05 0 1
    {0x14d93e80dbe8d6b0ULL, 0x2edb83a39ac14791ULL},  // 2 512 0.05 1 0
    {0x25c6015e35a7d991ULL, 0xbd86b55493d979c2ULL},  // 2 512 0.05 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0.3 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0.3 0 1
    {0x55e2d96709058ecfULL, 0x2ad71696158a78adULL},  // 2 512 0.3 1 0
    {0x55e2d96709058ecfULL, 0x2ad71696158a78adULL},  // 2 512 0.3 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0.9 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 512 0.9 0 1
    {0xee78f2f04e567af4ULL, 0x824e3968f84c7222ULL},  // 2 512 0.9 1 0
    {0xee78f2f04e567af4ULL, 0x824e3968f84c7222ULL},  // 2 512 0.9 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0 0 1
    {0xc536f0c694104444ULL, 0x3d4ae0769d95eba8ULL},  // 2 1024 0 1 0
    {0x5cef859d0e5de232ULL, 0xcbf1c232a969efb4ULL},  // 2 1024 0 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0.05 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0.05 0 1
    {0xc536f0c694104444ULL, 0xeab989efa85c1f54ULL},  // 2 1024 0.05 1 0
    {0xf889737978778653ULL, 0x2e32758d548e006dULL},  // 2 1024 0.05 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0.3 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0.3 0 1
    {0x70fb5c32d5163247ULL, 0xe4a72fb9d449fddaULL},  // 2 1024 0.3 1 0
    {0x8af8048255567991ULL, 0xe739b73eaf882ea5ULL},  // 2 1024 0.3 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0.9 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 1024 0.9 0 1
    {0xee78f2f04e567af4ULL, 0x824e3968f84c7222ULL},  // 2 1024 0.9 1 0
    {0xee78f2f04e567af4ULL, 0x824e3968f84c7222ULL},  // 2 1024 0.9 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0 0 1
    {0x4e67eddf64a4ec89ULL, 0xf553d4bc1ec34a4fULL},  // 2 8192 0 1 0
    {0x8d434e60d84a5387ULL, 0x85bdc28c7801aa9cULL},  // 2 8192 0 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0.05 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0.05 0 1
    {0x105d6a505e3a1307ULL, 0xa469186305219dfdULL},  // 2 8192 0.05 1 0
    {0x16ed4b601cf5c498ULL, 0x66c36433293a04b0ULL},  // 2 8192 0.05 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0.3 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0.3 0 1
    {0xed0187aff485768fULL, 0xc792862c977b8736ULL},  // 2 8192 0.3 1 0
    {0xed0187aff485768fULL, 0xc792862c977b8736ULL},  // 2 8192 0.3 1 1
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0.9 0 0
    {0x05749a6cde5d0506ULL, 0x5aab28c429421688ULL},  // 2 8192 0.9 0 1
    {0xee78f2f04e567af4ULL, 0x824e3968f84c7222ULL},  // 2 8192 0.9 1 0
    {0xee78f2f04e567af4ULL, 0x824e3968f84c7222ULL},  // 2 8192 0.9 1 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0 0 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0 0 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0 1 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0 1 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0.05 0 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0.05 0 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0.05 1 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0.05 1 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0.3 0 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0.3 0 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0.3 1 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0.3 1 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0.9 0 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0.9 0 1
    {0x6a24a2fa091ce2fdULL, 0x6c75f618fcf405f3ULL},  // 16 0 0.9 1 0
    {0x78e4b6c60ffef349ULL, 0x757fa4d7474b9baaULL},  // 16 0 0.9 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 512 0 0 0
    {0x07f32e42845913d2ULL, 0xee9c202652e928cfULL},  // 16 512 0 0 1
    {0x1471c5b9347547e9ULL, 0x954b73bc2dffceacULL},  // 16 512 0 1 0
    {0xba66d696548b399fULL, 0x9969908c65ac5659ULL},  // 16 512 0 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 512 0.05 0 0
    {0xeab161ac994ceeffULL, 0x5565bacbff5555a8ULL},  // 16 512 0.05 0 1
    {0x9cec8cbcb5de4851ULL, 0x6f2adc61903d7331ULL},  // 16 512 0.05 1 0
    {0xfc261ac55ba1bd6eULL, 0xf9dfbbc9b05637b9ULL},  // 16 512 0.05 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 512 0.3 0 0
    {0x63a9fd82273fa1e1ULL, 0xa654389028c39504ULL},  // 16 512 0.3 0 1
    {0x6311d085ce84aeedULL, 0x92429410aa15fa5fULL},  // 16 512 0.3 1 0
    {0xed1e5c37a7d52da8ULL, 0xde31925844f4b35eULL},  // 16 512 0.3 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 512 0.9 0 0
    {0x78e4b6c60ffef349ULL, 0x38e20801e5ef9471ULL},  // 16 512 0.9 0 1
    {0xecdb41e54a00959fULL, 0xa0de85fbb20d9af9ULL},  // 16 512 0.9 1 0
    {0x6638d77c0de5d99fULL, 0x724024f1d7804eb4ULL},  // 16 512 0.9 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 1024 0 0 0
    {0xa248fd9d0e4a8b28ULL, 0x04e773cabe3dd562ULL},  // 16 1024 0 0 1
    {0x193a6d17fb8b4547ULL, 0xe7adb49e52abdd7fULL},  // 16 1024 0 1 0
    {0x915587ff19b0508fULL, 0x5fe059f1fce6e555ULL},  // 16 1024 0 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 1024 0.05 0 0
    {0xa63ee70cd0fddc72ULL, 0x5ea6b0fd6336dafeULL},  // 16 1024 0.05 0 1
    {0x36fc6f02d3034602ULL, 0x5477c09d2fa5276dULL},  // 16 1024 0.05 1 0
    {0x49440f09ce29c5c5ULL, 0xd6562af423cd982cULL},  // 16 1024 0.05 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 1024 0.3 0 0
    {0x98a1daf9b61bac31ULL, 0x4daed91fdfd4f407ULL},  // 16 1024 0.3 0 1
    {0xcd378f75aed03664ULL, 0xa3f9d2895b5aaaa5ULL},  // 16 1024 0.3 1 0
    {0x390380c229ed334aULL, 0x0832f23ad08a7616ULL},  // 16 1024 0.3 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 1024 0.9 0 0
    {0x78e4b6c60ffef349ULL, 0x38e20801e5ef9471ULL},  // 16 1024 0.9 0 1
    {0xecdb41e54a00959fULL, 0xa0de85fbb20d9af9ULL},  // 16 1024 0.9 1 0
    {0x6638d77c0de5d99fULL, 0x724024f1d7804eb4ULL},  // 16 1024 0.9 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 8192 0 0 0
    {0x251902d85d973ac0ULL, 0x05edeaf036484f08ULL},  // 16 8192 0 0 1
    {0x1e8b8f8e818f5afeULL, 0xbcb66fb5fd731b11ULL},  // 16 8192 0 1 0
    {0x89abbf05a734e145ULL, 0x7d523270ad07c4d2ULL},  // 16 8192 0 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 8192 0.05 0 0
    {0xe691460b9aff7056ULL, 0x37b07c8bea4d2d3bULL},  // 16 8192 0.05 0 1
    {0x016d6bbba9eee738ULL, 0xbc8c9f799c6d6a17ULL},  // 16 8192 0.05 1 0
    {0x766f4dc55b5ef994ULL, 0x1975cb0fb58f33b9ULL},  // 16 8192 0.05 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 8192 0.3 0 0
    {0xdca98020d339b04dULL, 0x615d615c5c7b376bULL},  // 16 8192 0.3 0 1
    {0x3ec567eb9ef7c34cULL, 0xe53bc73b2226ce09ULL},  // 16 8192 0.3 1 0
    {0xf0fb4bfbe195bd05ULL, 0xe0e6572cb5dcd718ULL},  // 16 8192 0.3 1 1
    {0x6a24a2fa091ce2fdULL, 0x336b35c3f67b20f2ULL},  // 16 8192 0.9 0 0
    {0x78e4b6c60ffef349ULL, 0x38e20801e5ef9471ULL},  // 16 8192 0.9 0 1
    {0xecdb41e54a00959fULL, 0xa0de85fbb20d9af9ULL},  // 16 8192 0.9 1 0
    {0x6638d77c0de5d99fULL, 0x724024f1d7804eb4ULL},  // 16 8192 0.9 1 1
};

TEST(GoldenTest, Phase1OutlierDiskGrid) {
  const std::vector<GridCase> cases = GridCases();
  Phase1Stats p1;
  RobustnessStats rob;
  std::string table;
  bool all_match = std::size(kGridRows) == cases.size();
  for (size_t i = 0; i < cases.size(); ++i) {
    const GridRow got = RunGridCase(cases[i], &p1, &rob);
    char line[128];
    std::snprintf(line, sizeof(line),
                  "    {0x%016llxULL, 0x%016llxULL},  // %s\n",
                  static_cast<unsigned long long>(got.cfs),
                  static_cast<unsigned long long>(got.stats),
                  Describe(cases[i]).c_str());
    table += line;
    if (i < std::size(kGridRows)) {
      EXPECT_EQ(got.cfs, kGridRows[i].cfs) << Describe(cases[i]);
      EXPECT_EQ(got.stats, kGridRows[i].stats) << Describe(cases[i]);
      all_match = all_match && got.cfs == kGridRows[i].cfs &&
                  got.stats == kGridRows[i].stats;
    }
  }
  EXPECT_EQ(std::size(kGridRows), cases.size());
  if (!all_match) ADD_FAILURE() << "observed rows:\n" << table;
  EXPECT_GT(p1.points_delay_spilled, 0u);
  EXPECT_GT(p1.outlier_entries_spilled, 0u);
  EXPECT_GT(p1.reabsorb_cycles, 0u);
  EXPECT_GT(p1.forced_inserts, 0u);
  EXPECT_GT(rob.degradation_events, 0u);
  EXPECT_GT(rob.fallback_absorbed, 0u);
  EXPECT_GT(rob.fallback_dropped, 0u);
  EXPECT_GT(rob.records_lost, 0u);
}

// --- Sharded ClusterDataset --------------------------------------------
//
// ClusterDataset with 2 and 3 threads and a 4 KB outlier disk. Every
// case gives the shards' final outliers an absorb-only retry against
// the merged tree; in the last three the shards' four-page budget floor
// exceeds M / threads, so the merged tree outgrows M and the merge also
// rebuilds it and retries the entries that rebuild sheds. Pins the
// cluster CFs, the labels and every Phase1Stats field. Phase 4 labels on
// the pool but folds rows in row order, so the cluster CFs are those of
// a serial Phase 4 over the same merged tree.

struct ShardedCase {
  int threads;
  size_t dim;
  size_t page;
  size_t memory_kb;
};

struct ShardedRow {
  uint64_t clusters = 0;
  uint64_t labels = 0;
  uint64_t stats = 0;
};

ShardedRow RunSharded(const ShardedCase& c) {
  BirchOptions o = BaseOptions();
  o.dim = c.dim;
  o.exec.num_threads = c.threads;
  o.resources.page_size = c.page;
  o.resources.memory_bytes = c.memory_kb * 1024;
  o.resources.disk_bytes = 4 * 1024;
  ShardedRow row;
  auto r_or = ClusterDataset(GridInput(c.dim), o);
  EXPECT_TRUE(r_or.ok()) << r_or.status().ToString();
  if (!r_or.ok()) return row;
  const BirchResult& r = r_or.value();
  Fingerprint clusters;
  clusters.U64(r.clusters.size());
  for (const CfVector& cf : r.clusters) clusters.Cf(cf);
  row.clusters = clusters.value();
  Fingerprint labels;
  for (int l : r.labels) labels.U64(static_cast<uint64_t>(l));
  row.labels = labels.value();
  const Phase1Stats& s = r.phase1;
  Fingerprint stats;
  for (uint64_t v : {s.points_added, s.rebuilds, s.outlier_entries_spilled,
                     s.outlier_entries_reabsorbed, s.points_delay_spilled,
                     s.reabsorb_cycles, s.forced_inserts}) {
    stats.U64(v);
  }
  stats.F64(s.final_threshold);
  row.stats = stats.value();
  return row;
}

TEST(GoldenTest, ShardedMergeRebuildsAndReabsorbs) {
  const std::pair<ShardedCase, ShardedRow> cases[] = {
      {{2, 2, 512, 8},
       {0x315808f4fa574a82ULL, 0xa106a0591dc34bcdULL,
        0x4e90121ee61e7b30ULL}},
      {{2, 2, 512, 16},
       {0xbe7f53b6028c80cbULL, 0x3bbc7dee73ac7475ULL,
        0xf225b979137f9b50ULL}},
      {{3, 2, 512, 8},
       {0x8db1965bed5f61b6ULL, 0x841e4e3781851b6fULL,
        0xc419880994976e02ULL}},
      {{3, 2, 512, 16},
       {0xcfd2b4773585cb0aULL, 0x45272e661c0b29b1ULL,
        0x2c133af7437bcc9eULL}},
      {{2, 2, 1024, 4},
       {0xd0334cfa364efd4aULL, 0x46814bc5a587695eULL,
        0xb145204e0986ac01ULL}},
      {{3, 2, 2048, 8},
       {0x83e011769c33d206ULL, 0x767002d73b939dd6ULL,
        0x0f5e01743ac61062ULL}},
      {{2, 16, 2048, 8},
       {0xa6267304f252ab45ULL, 0xd376196081544325ULL,
        0xfdaa7eb162b67fbeULL}},
  };
  for (const auto& [c, want] : cases) {
    const ShardedRow got = RunSharded(c);
    SCOPED_TRACE(testing::Message()
                 << "threads=" << c.threads << " d=" << c.dim
                 << " page=" << c.page << " M=" << c.memory_kb << "KB");
    EXPECT_EQ(got.clusters, want.clusters) << std::hex << got.clusters;
    EXPECT_EQ(got.labels, want.labels) << std::hex << got.labels;
    EXPECT_EQ(got.stats, want.stats) << std::hex << got.stats;
  }
}

// --- Phase-3 medoid search ---------------------------------------------
//
// GlobalCluster(kMedoids) on a fixed set of weighted CFs: 240 entries of
// 1-6 weighted points each around a 6x5 grid of centers. Pins the
// assignment and cluster CFs per (k, seed), including the k >= m
// identity case.

std::vector<CfVector> WeightedEntries() {
  Rng rng(31);
  std::vector<CfVector> entries;
  for (int i = 0; i < 240; ++i) {
    CfVector cf(2);
    const double cx = 10.0 * (i % 6);
    const double cy = 10.0 * (i % 5);
    const uint64_t points = 1 + rng.UniformInt(6);
    for (uint64_t j = 0; j < points; ++j) {
      const double p[2] = {cx + 2.0 * rng.Gaussian(),
                           cy + 2.0 * rng.Gaussian()};
      cf.AddPoint(p, rng.Uniform(0.5, 3.0));
    }
    entries.push_back(std::move(cf));
  }
  return entries;
}

uint64_t MedoidHash(int k, uint64_t seed) {
  static const std::vector<CfVector> entries = WeightedEntries();
  GlobalClusterOptions g;
  g.k = k;
  g.algorithm = GlobalAlgorithm::kMedoids;
  g.seed = seed;
  auto r_or = GlobalCluster(entries, g);
  EXPECT_TRUE(r_or.ok()) << r_or.status().ToString();
  if (!r_or.ok()) return 0;
  Fingerprint f;
  for (int a : r_or.value().assignment) f.U64(static_cast<uint64_t>(a));
  f.U64(r_or.value().clusters.size());
  for (const CfVector& c : r_or.value().clusters) f.Cf(c);
  return f.value();
}

void ExpectMedoids(int k, uint64_t seed, uint64_t want) {
  const uint64_t got = MedoidHash(k, seed);
  EXPECT_EQ(got, want) << "k=" << k << " seed=" << seed << " got "
                       << std::hex << got;
}

TEST(GoldenTest, Phase3MedoidSearch) {
  ExpectMedoids(3, 5, 0xe61d69d9e4a1ba00ULL);
  ExpectMedoids(7, 5, 0xf59f165d0b3ec9e9ULL);
  ExpectMedoids(12, 5, 0x1fe18c94aed9c090ULL);
  ExpectMedoids(7, 6, 0x5ae85c408655b139ULL);
  ExpectMedoids(240, 5, 0x83a99e788bd05262ULL);
}

}  // namespace
}  // namespace birch
