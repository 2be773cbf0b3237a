// Shared cases for the CF-tree node scan and the in-place row add.
// kernel_test runs them against the dispatched lane (AVX2 where the CPU
// has it) and kernel_noavx2_test against the portable lane.
//
// - The argmin over keys (kernel::detail::NearestKey) must pick what
//   the scalar loop over the square roots picks: first-wins strict `<`
//   from +inf, so of two keys one ulp apart whose square roots are
//   equal, the earlier candidate wins even when its key is the larger.
// - NearestEntry and FillDistances must match the scalar oracle at
//   every block size 1-9, where the four-wide passes end in a partial
//   group.
// - CfBatch::Add(i, cf) must equal Load -> CfVector::Add -> Update bit
//   for bit in every column, for every representation and Needs.
#ifndef BIRCH_TESTS_CF_BATCH_CASES_H_
#define BIRCH_TESTS_CF_BATCH_CASES_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "birch/kernel/kernel.h"
#include "birch/metrics.h"
#include "util/random.h"

namespace birch {
namespace kernel {
namespace cf_batch_cases {

constexpr size_t kNoIndex = static_cast<size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The scalar loop NearestEntry stands for, over precomputed keys: the
/// distance is sqrt(key) when `root`, first-wins strict `<` from +inf.
inline ScanResult OracleArgmin(const std::vector<double>& key, bool root,
                               const uint8_t* active, size_t exclude) {
  ScanResult best{kNoIndex, kInf};
  for (size_t j = 0; j < key.size(); ++j) {
    if (j == exclude || (active != nullptr && active[j] == 0)) continue;
    const double d = root ? std::sqrt(key[j]) : key[j];
    if (d < best.distance) best = {j, d};
  }
  return best;
}

inline void ExpectArgmin(const std::vector<double>& key, bool root,
                         const uint8_t* active, size_t exclude,
                         size_t want_index, const std::string& label) {
  const ScanResult want = OracleArgmin(key, root, active, exclude);
  ASSERT_EQ(want.index, want_index) << label << " (oracle)";
  const ScanResult got =
      detail::NearestKey(key.data(), key.size(), root, active, exclude);
  EXPECT_EQ(got.index, want.index) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.distance),
            std::bit_cast<uint64_t>(want.distance))
      << label;
}

/// Keys whose square roots tie: nextafter(2, 3) is one ulp above 2 and
/// has the same correctly rounded square root.
inline void RunSqrtTieCases() {
  const double two = 2.0;
  const double above = std::nextafter(2.0, 3.0);
  ASSERT_LT(two, above);
  ASSERT_EQ(std::sqrt(two), std::sqrt(above)) << "not a sqrt tie";

  // The earlier key is one ulp above the later: same distance, so the
  // earlier candidate keeps the win (an argmin over keys takes 1).
  ExpectArgmin({above, two}, true, nullptr, kNoIndex, 0, "above, two");
  // Reverse order: the smaller key comes first and wins outright.
  ExpectArgmin({two, above}, true, nullptr, kNoIndex, 0, "two, above");
  // A better candidate masked out, then excluded, before the tie.
  const std::vector<double> behind = {1.0, above, two};
  const uint8_t active[] = {0, 1, 1};
  ExpectArgmin(behind, true, active, kNoIndex, 1, "masked");
  ExpectArgmin(behind, true, nullptr, 0, 1, "excluded");
  // The tie's earlier half masked out: the later half wins.
  const uint8_t skip_first[] = {1, 0, 1};
  ExpectArgmin(behind, true, skip_first, 0, 2, "earlier half masked");
  // D1 takes no sqrt: its keys are the distances, and the smaller wins.
  ExpectArgmin({above, two}, false, nullptr, kNoIndex, 1, "no sqrt");

  // Random runs over a few neighbouring doubles (ties of both kinds),
  // zeros, +inf and NaN, with random masks.
  const double kPool[] = {two,
                          above,
                          std::nextafter(above, 3.0),
                          std::nextafter(two, 1.0),
                          std::nextafter(std::nextafter(two, 1.0), 1.0),
                          0.0,
                          kInf,
                          std::numeric_limits<double>::quiet_NaN()};
  constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  Rng rng(53);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t m = 1 + rng.UniformInt(9);
    std::vector<double> key(m);
    std::vector<uint8_t> mask(m);
    for (size_t j = 0; j < m; ++j) {
      // Zero, +inf and NaN are rarer than the near-ties.
      const size_t pick = rng.UniformInt(trial % 4 == 0 ? kPoolSize : 5);
      key[j] = kPool[pick];
      mask[j] = rng.UniformInt(4) == 0 ? 0 : 1;
    }
    const size_t exclude =
        rng.UniformInt(2) == 0 ? kNoIndex : rng.UniformInt(m);
    for (bool root : {true, false}) {
      for (const uint8_t* active : {static_cast<const uint8_t*>(nullptr),
                                    static_cast<const uint8_t*>(mask.data())}) {
        const ScanResult want = OracleArgmin(key, root, active, exclude);
        const ScanResult got =
            detail::NearestKey(key.data(), m, root, active, exclude);
        EXPECT_EQ(got.index, want.index) << "trial=" << trial;
        EXPECT_EQ(std::bit_cast<uint64_t>(got.distance),
                  std::bit_cast<uint64_t>(want.distance))
            << "trial=" << trial;
      }
    }
  }
}

/// A CF of `points` random weighted points in [-spread, spread]^dim.
inline CfVector PolicyCf(Rng* rng, size_t dim, int points, double spread,
                         CfRepresentation rep) {
  CfVector cf(dim, rep);
  std::vector<double> x(dim);
  for (int p = 0; p < points; ++p) {
    for (auto& v : x) v = rng->Uniform(-spread, spread);
    cf.AddPoint(x, 1.0 + rng->NextDouble());
  }
  return cf;
}

constexpr CfRepresentation kReps[] = {CfRepresentation::kClassic,
                                      CfRepresentation::kBetula};

constexpr DistanceMetric kMetrics[] = {
    DistanceMetric::kD0, DistanceMetric::kD1, DistanceMetric::kD2,
    DistanceMetric::kD3, DistanceMetric::kD4};

/// Blocks of 1-9 rows (every tail of the four-wide passes): the
/// per-candidate distances and the winner, with and without a mask,
/// equal the scalar oracle's, bit for bit.
inline void RunScanSizeCases() {
  Rng rng(59);
  for (CfRepresentation rep : kReps) {
    for (size_t dim : {1, 2, 16}) {
      for (size_t m = 1; m <= 9; ++m) {
        std::vector<CfVector> cfs;
        for (size_t j = 0; j < m; ++j) {
          cfs.push_back(PolicyCf(&rng, dim, 1 + static_cast<int>(j % 4),
                                 j % 2 == 0 ? 1.0 : 20.0, rep));
        }
        const CfVector query = PolicyCf(&rng, dim, 3, 5.0, rep);
        std::vector<uint8_t> active(m, 1);
        active[m / 2] = 0;
        for (DistanceMetric metric : kMetrics) {
          const std::string where =
              std::string(MetricName(metric)) + " " +
              CfRepresentationName(rep) + " dim=" + std::to_string(dim) +
              " m=" + std::to_string(m);
          CfBatch batch;
          batch.Init(dim, m, CfBatch::Needs::For(metric, rep));
          batch.Assign(cfs);
          Workspace ws;
          CfQuery q;
          q.Prepare(query, metric, &ws.query_centroid);
          FillDistances(batch, q, metric, &ws);
          ASSERT_EQ(ws.dist.size(), m) << where;
          std::vector<double> oracle(m);
          for (size_t j = 0; j < m; ++j) {
            oracle[j] = Distance(metric, query, cfs[j]);
            EXPECT_EQ(std::bit_cast<uint64_t>(ws.dist[j]),
                      std::bit_cast<uint64_t>(oracle[j]))
                << where << " j=" << j;
          }
          for (const uint8_t* mask :
               {static_cast<const uint8_t*>(nullptr),
                static_cast<const uint8_t*>(active.data())}) {
            const ScanResult want = OracleArgmin(oracle, false, mask, kNoIndex);
            const ScanResult got = NearestEntry(batch, q, metric, &ws, mask);
            EXPECT_EQ(got.index, want.index) << where;
            EXPECT_EQ(std::bit_cast<uint64_t>(got.distance),
                      std::bit_cast<uint64_t>(want.distance))
                << where;
          }
        }
      }
    }
  }
}

/// Every column of rows [0, size()) of `a` and `b`, bit for bit.
inline void ExpectSameColumns(const CfBatch& a, const CfBatch& b,
                              const CfBatch::Needs& needs,
                              const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  const size_t cap = a.capacity();
  auto same = [&](const double* x, const double* y, size_t columns,
                  const char* name) {
    for (size_t k = 0; k < columns; ++k) {
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(x[k * cap + i]),
                  std::bit_cast<uint64_t>(y[k * cap + i]))
            << label << " column " << name << "[" << k << "] row " << i;
      }
    }
  };
  same(a.n(), b.n(), 1, "n");
  same(a.ss(), b.ss(), 1, "scalar");
  same(a.mean_sq(), b.mean_sq(), 1, "mean_sq");
  same(a.vec(), b.vec(), a.dim(), "vec");
  if (needs.centroid) same(a.centroid(), b.centroid(), a.dim(), "centroid");
  if (needs.ssd) same(a.ssd(), b.ssd(), 1, "ssd");
}

/// CfBatch::Add against Load -> CfVector::Add -> Update on twin blocks:
/// the Needs of D0-D4 under each representation plus every derived
/// column, an empty row among the filled ones, and row 0 added to on
/// every third step (about 130 times).
inline void RunInPlaceAddCases() {
  Rng rng(61);
  for (CfRepresentation rep : kReps) {
    std::vector<CfBatch::Needs> needs_list;
    for (DistanceMetric metric : kMetrics) {
      needs_list.push_back(CfBatch::Needs::For(metric, rep));
    }
    needs_list.push_back({/*centroid=*/true, /*ssd=*/true});
    for (size_t dim : {1, 2, 16}) {
      for (const CfBatch::Needs& needs : needs_list) {
        const std::string where =
            std::string(CfRepresentationName(rep)) + " dim=" +
            std::to_string(dim) +
            " centroid=" + std::to_string(needs.centroid) +
            " ssd=" + std::to_string(needs.ssd);
        std::vector<CfVector> rows;
        for (int r = 0; r < 5; ++r) {
          rows.push_back(PolicyCf(&rng, dim, r == 3 ? 0 : 1 + r, 30.0, rep));
        }
        CfBatch in_place, reference;
        in_place.Init(dim, 6, needs);
        reference.Init(dim, 6, needs);
        in_place.Assign(rows);
        reference.Assign(rows);
        CfVector loaded(dim, rep);
        for (int step = 0; step < 400; ++step) {
          const size_t i = step % 3 == 0 ? 0 : rng.UniformInt(rows.size());
          // Far-off points now and then, so the sums span magnitudes.
          const CfVector cf = PolicyCf(&rng, dim, 1 + step % 3,
                                       step % 17 == 0 ? 1e6 : 30.0, rep);
          in_place.Add(i, cf);
          reference.Load(i, &loaded);
          loaded.Add(cf);
          reference.Update(i, loaded);
          if (step % 50 == 49) {
            ExpectSameColumns(in_place, reference, needs,
                              where + " step=" + std::to_string(step));
          }
        }
        ExpectSameColumns(in_place, reference, needs, where);
      }
    }
  }
}

}  // namespace cf_batch_cases
}  // namespace kernel
}  // namespace birch

#endif  // BIRCH_TESTS_CF_BATCH_CASES_H_
