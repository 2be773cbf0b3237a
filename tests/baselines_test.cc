// Baseline-algorithm tests: k-means and CLARANS must both recover
// well-separated clusters; CLARANS must descend (cost decreases vs the
// initial random medoids) and respect its parameters; the hierarchical
// wrapper must match Phase-3 behaviour on raw points.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/clara.h"
#include "baselines/clarans.h"
#include "baselines/hierarchical.h"
#include "baselines/kmeans.h"
#include "datagen/generator.h"
#include "datagen/paper_datasets.h"
#include "eval/matching.h"

namespace birch {
namespace {

GeneratedData Blobs(int k, int n_per, uint64_t seed) {
  GeneratorOptions o;
  o.k = k;
  o.n_low = o.n_high = n_per;
  o.r_low = o.r_high = 1.0;
  o.grid_spacing = 20.0;
  o.seed = seed;
  auto gen = Generate(o);
  EXPECT_TRUE(gen.ok());
  return std::move(gen).ValueOrDie();
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  auto g = Blobs(4, 200, 101);
  KMeansOptions o;
  o.k = 4;
  auto result = KMeans(g.data, o);
  ASSERT_TRUE(result.ok());
  MatchReport report = MatchClusters(g.actual, result.value().clusters);
  EXPECT_EQ(report.matched, 4);
  EXPECT_LT(report.mean_centroid_displacement, 0.5);
  EXPECT_GT(LabelAccuracy(g.truth, result.value().labels, report), 0.99);
}

TEST(KMeansTest, SseDecreasesWithMoreClusters) {
  auto g = Blobs(6, 100, 102);
  KMeansOptions o2, o6;
  o2.k = 2;
  o6.k = 6;
  auto r2 = KMeans(g.data, o2);
  auto r6 = KMeans(g.data, o6);
  ASSERT_TRUE(r2.ok() && r6.ok());
  EXPECT_LT(r6.value().sse, r2.value().sse);
}

TEST(KMeansTest, InvalidParamsRejected) {
  auto g = Blobs(2, 10, 103);
  KMeansOptions o;
  o.k = 0;
  EXPECT_FALSE(KMeans(g.data, o).ok());
  o.k = 100;  // > N
  EXPECT_FALSE(KMeans(g.data, o).ok());
}

TEST(KMeansTest, DeterministicForSeed) {
  auto g = Blobs(3, 100, 104);
  KMeansOptions o;
  o.k = 3;
  o.seed = 7;
  auto r1 = KMeans(g.data, o);
  auto r2 = KMeans(g.data, o);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().labels, r2.value().labels);
  EXPECT_EQ(r1.value().sse, r2.value().sse);
}

TEST(ClaransTest, RecoversSeparatedBlobs) {
  auto g = Blobs(4, 150, 105);
  ClaransOptions o;
  o.k = 4;
  auto result = Clarans(g.data, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_EQ(r.medoids.size(), 4u);
  MatchReport report = MatchClusters(g.actual, r.clusters);
  EXPECT_EQ(report.matched, 4);
  EXPECT_LT(report.mean_centroid_displacement, 1.0);
}

TEST(ClaransTest, CostBeatsRandomMedoids) {
  auto g = Blobs(5, 100, 106);
  // One start, zero search (maxneighbor=1 effectively random-ish) vs a
  // real search: the searched cost must be no worse.
  ClaransOptions weak;
  weak.k = 5;
  weak.numlocal = 1;
  weak.maxneighbor = 1;
  weak.seed = 9;
  ClaransOptions strong = weak;
  strong.numlocal = 2;
  strong.maxneighbor = 0;  // auto
  auto rw = Clarans(g.data, weak);
  auto rs = Clarans(g.data, strong);
  ASSERT_TRUE(rw.ok() && rs.ok());
  EXPECT_LE(rs.value().cost, rw.value().cost + 1e-9);
  EXPECT_GT(rs.value().swaps_accepted, 0u);
}

TEST(ClaransTest, MedoidsAreDataPointsAndLabelsConsistent) {
  auto g = Blobs(3, 80, 107);
  ClaransOptions o;
  o.k = 3;
  auto result = Clarans(g.data, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  std::set<size_t> unique(r.medoids.begin(), r.medoids.end());
  EXPECT_EQ(unique.size(), 3u);
  for (size_t m : r.medoids) EXPECT_LT(m, g.data.size());
  // Each medoid is labelled with its own cluster.
  for (size_t s = 0; s < r.medoids.size(); ++s) {
    EXPECT_EQ(r.labels[r.medoids[s]], static_cast<int>(s));
  }
  double total = 0.0;
  for (const auto& c : r.clusters) total += c.n();
  EXPECT_NEAR(total, static_cast<double>(g.data.size()), 1e-9);
}

TEST(ClaransTest, InvalidParamsRejected) {
  auto g = Blobs(2, 20, 108);
  ClaransOptions o;
  o.k = 0;
  EXPECT_FALSE(Clarans(g.data, o).ok());
  o.k = static_cast<int>(g.data.size());
  EXPECT_FALSE(Clarans(g.data, o).ok());
  o.k = 2;
  o.numlocal = 0;
  EXPECT_FALSE(Clarans(g.data, o).ok());
}

/// FNV-1a over 64-bit words: a bit-for-bit fingerprint of a result.
uint64_t Fnv(std::span<const uint64_t> words) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct ClaransPin {
  uint64_t labels;
  uint64_t medoids;
  uint64_t cost_bits;
  uint64_t clusters;
  uint64_t neighbors_evaluated;
  uint64_t swaps_accepted;
};

ClaransPin PinClarans(const Dataset& data, const ClaransOptions& o) {
  auto r_or = Clarans(data, o);
  EXPECT_TRUE(r_or.ok()) << r_or.status().ToString();
  if (!r_or.ok()) return {};
  const ClaransResult& r = r_or.value();
  std::vector<uint64_t> labels(r.labels.begin(), r.labels.end());
  std::vector<uint64_t> medoids(r.medoids.begin(), r.medoids.end());
  std::vector<uint64_t> clusters;
  for (const CfVector& c : r.clusters) {
    clusters.push_back(std::bit_cast<uint64_t>(c.n()));
    for (double v : c.raw_vec()) {
      clusters.push_back(std::bit_cast<uint64_t>(v));
    }
    clusters.push_back(std::bit_cast<uint64_t>(c.raw_scalar()));
  }
  return {Fnv(labels), Fnv(medoids), std::bit_cast<uint64_t>(r.cost),
          Fnv(clusters), r.neighbors_evaluated, r.swaps_accepted};
}

void ExpectClarans(const Dataset& data, int k, uint64_t seed,
                   const ClaransPin& want) {
  ClaransOptions o;
  o.k = k;
  o.seed = seed;
  const ClaransPin got = PinClarans(data, o);
  SCOPED_TRACE(testing::Message() << "k=" << k << " seed=" << seed);
  EXPECT_EQ(got.labels, want.labels) << std::hex << got.labels;
  EXPECT_EQ(got.medoids, want.medoids) << std::hex << got.medoids;
  EXPECT_EQ(got.cost_bits, want.cost_bits) << std::hex << got.cost_bits;
  EXPECT_EQ(got.clusters, want.clusters) << std::hex << got.clusters;
  EXPECT_EQ(got.neighbors_evaluated, want.neighbors_evaluated);
  EXPECT_EQ(got.swaps_accepted, want.swaps_accepted);
}

// Bit-for-bit pins of the search on a DS2 subset: labels, medoids, the
// cost's bits, the cluster CFs and both search counters. The weighted
// case checks that the search ignores row weights (CLARANS counts every
// row once) while the cluster CFs carry them.
TEST(ClaransTest, GoldenOutputsOnDs2Subset) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS2, /*k=*/12, /*n=*/35,
                                  /*noise_fraction=*/0.05, /*seed=*/77);
  ASSERT_TRUE(gen.ok());
  const Dataset& data = gen.value().data;
  ExpectClarans(data, 3, 5,
                {0x4ad180d6776c7145ULL, 0x5b7a66e802837f4fULL,
                 0x40a47ae4d991bf03ULL, 0x11daae449f7d03beULL, 2168, 34});
  ExpectClarans(data, 7, 5,
                {0xafca89a4bdd97a46ULL, 0xffdd448c3ae299dfULL,
                 0x4096709ac5faf723ULL, 0x5a00ed53da4ac5f2ULL, 2407, 49});
  ExpectClarans(data, 12, 6,
                {0xaf012f63039e40cdULL, 0x8d44b54d9d323734ULL,
                 0x40831d157e9e45a0ULL, 0xef616a30f4c948c9ULL, 2341, 55});

  Dataset weighted(data.dim());
  for (size_t i = 0; i < data.size(); ++i) {
    weighted.AppendWeighted(data.Row(i), 1.0 + static_cast<double>(i % 4));
  }
  ExpectClarans(weighted, 7, 5,
                {0xafca89a4bdd97a46ULL, 0xffdd448c3ae299dfULL,
                 0x4096709ac5faf723ULL, 0x4bea7b2b09d07a59ULL, 2407, 49});
}

TEST(ClaraTest, RecoversSeparatedBlobs) {
  auto g = Blobs(4, 150, 110);
  ClaraOptions o;
  o.k = 4;
  auto result = Clara(g.data, o);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_EQ(r.medoids.size(), 4u);
  MatchReport report = MatchClusters(g.actual, r.clusters);
  EXPECT_EQ(report.matched, 4);
  EXPECT_LT(report.mean_centroid_displacement, 1.0);
  EXPECT_GE(r.best_sample, 0);
}

TEST(ClaraTest, MoreSamplesNeverWorse) {
  auto g = Blobs(6, 120, 111);
  ClaraOptions one;
  one.k = 6;
  one.samples = 1;
  one.seed = 5;
  ClaraOptions five = one;
  five.samples = 5;
  auto r1 = Clara(g.data, one);
  auto r5 = Clara(g.data, five);
  ASSERT_TRUE(r1.ok() && r5.ok());
  // Sample 0 is shared (same seed stream prefix), so the 5-sample run
  // can only improve on it.
  EXPECT_LE(r5.value().cost, r1.value().cost + 1e-9);
}

TEST(ClaraTest, MedoidsAreDistinctDataRows) {
  auto g = Blobs(3, 100, 112);
  ClaraOptions o;
  o.k = 3;
  auto result = Clara(g.data, o);
  ASSERT_TRUE(result.ok());
  std::set<size_t> unique(result.value().medoids.begin(),
                          result.value().medoids.end());
  EXPECT_EQ(unique.size(), 3u);
  for (size_t m : result.value().medoids) EXPECT_LT(m, g.data.size());
  double total = 0.0;
  for (const auto& c : result.value().clusters) total += c.n();
  EXPECT_NEAR(total, static_cast<double>(g.data.size()), 1e-9);
}

TEST(ClaraTest, InvalidParamsRejected) {
  auto g = Blobs(2, 20, 113);
  ClaraOptions o;
  o.k = 0;
  EXPECT_FALSE(Clara(g.data, o).ok());
  o.k = static_cast<int>(g.data.size());
  EXPECT_FALSE(Clara(g.data, o).ok());
  o.k = 2;
  o.samples = 0;
  EXPECT_FALSE(Clara(g.data, o).ok());
}

TEST(HierarchicalBaselineTest, MatchesBlobs) {
  auto g = Blobs(3, 60, 109);
  auto result = HierarchicalCluster(g.data, 3);
  ASSERT_TRUE(result.ok());
  MatchReport report = MatchClusters(g.actual, result.value().clusters);
  EXPECT_EQ(report.matched, 3);
  EXPECT_LT(report.mean_centroid_displacement, 0.5);
}

TEST(HierarchicalBaselineTest, WeightedPoints) {
  Dataset data(1);
  std::vector<double> a = {0.0}, b = {0.5}, c = {10.0};
  data.AppendWeighted(a, 10.0);
  data.AppendWeighted(b, 1.0);
  data.AppendWeighted(c, 1.0);
  auto result = HierarchicalCluster(data, 2, DistanceMetric::kD0);
  ASSERT_TRUE(result.ok());
  // a+b merge; total weight 11 vs 1.
  std::vector<double> ns;
  for (const auto& cl : result.value().clusters) ns.push_back(cl.n());
  std::sort(ns.begin(), ns.end());
  EXPECT_NEAR(ns[0], 1.0, 1e-9);
  EXPECT_NEAR(ns[1], 11.0, 1e-9);
}

}  // namespace
}  // namespace birch
