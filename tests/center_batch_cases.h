// Shared cases for the fused point->centroid argmin
// (CfBatch::NearestCentroidSq and NearestCentroidSqRows) over a block of
// center CFs. kernel_test runs them against the dispatched lane (AVX2
// where the CPU has it) and kernel_noavx2_test against the portable
// lane, on classic rows (the centroid column) and BETULA rows (the mean
// column). Every winner and distance must equal the SquaredDistance
// loop over the centers' CfVector::Centroid() with first-wins strict
// `<` from +inf, bit for bit; a point no center compares below +inf to
// must give SIZE_MAX and +inf.
#ifndef BIRCH_TESTS_CENTER_BATCH_CASES_H_
#define BIRCH_TESTS_CENTER_BATCH_CASES_H_

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "birch/cf_vector.h"
#include "birch/kernel/kernel.h"
#include "util/math.h"
#include "util/random.h"

namespace birch {
namespace kernel {
namespace center_batch_cases {

constexpr size_t kNoWinner = static_cast<size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr CfRepresentation kReps[] = {CfRepresentation::kClassic,
                                      CfRepresentation::kBetula};

/// The scalar oracle: a SquaredDistance loop over the centroids.
inline ScanResult ScalarNearestSq(std::span<const double> p,
                                  std::span<const CfVector> centers) {
  ScanResult best{kNoWinner, kInf};
  for (size_t c = 0; c < centers.size(); ++c) {
    const double d = SquaredDistance(p, centers[c].Centroid());
    if (d < best.distance) best = {c, d};
  }
  return best;
}

/// The block a point->centroid scan reads: `centers` (one
/// representation) as rows, with the centroid column a classic row
/// needs.
inline CfBatch CentroidBlock(std::span<const CfVector> centers) {
  CfBatch batch;
  batch.Init(centers[0].dim(), centers.size(),
             CfBatch::Needs::For(DistanceMetric::kD0, centers[0].rep()));
  batch.Assign(centers);
  return batch;
}

/// One-point CFs at `points` under `rep`: their centroids are the
/// points.
inline std::vector<CfVector> PointCfs(
    const std::vector<std::vector<double>>& points, CfRepresentation rep) {
  std::vector<CfVector> cfs;
  for (const auto& p : points) cfs.push_back(CfVector::FromPoint(p, 1.0, rep));
  return cfs;
}

/// Checks one-row calls on every row of `points` (row-major) against
/// the oracle, then NearestCentroidSqRows over windows of 1-9 rows
/// against the one-row calls.
inline void ExpectMatchesOracle(std::span<const CfVector> centers,
                                const std::vector<double>& points,
                                const std::string& label) {
  const CfBatch batch = CentroidBlock(centers);
  const size_t dim = centers[0].dim();
  const size_t rows = points.size() / dim;
  std::vector<ScanResult> single(rows);
  for (size_t i = 0; i < rows; ++i) {
    std::span<const double> p(points.data() + i * dim, dim);
    single[i] = batch.NearestCentroidSq(p);
    const ScanResult want = ScalarNearestSq(p, centers);
    EXPECT_EQ(single[i].index, want.index) << label << " row=" << i;
    EXPECT_EQ(single[i].distance, want.distance) << label << " row=" << i;
  }
  std::vector<ScanResult> out(9);
  for (size_t n = 1; n <= 9; ++n) {
    for (size_t begin = 0; begin + n <= rows; begin += n) {
      batch.NearestCentroidSqRows(
          std::span<const double>(points.data() + begin * dim, n * dim), n,
          out.data());
      for (size_t t = 0; t < n; ++t) {
        EXPECT_EQ(out[t].index, single[begin + t].index)
            << label << " n=" << n << " row=" << begin + t;
        EXPECT_EQ(out[t].distance, single[begin + t].distance)
            << label << " n=" << n << " row=" << begin + t;
      }
    }
  }
}

/// ExpectMatchesOracle with one-point CFs at `centers`, classic and
/// BETULA.
inline void ExpectMatchesOracle(
    const std::vector<std::vector<double>>& centers,
    const std::vector<double>& points, const std::string& label) {
  for (CfRepresentation rep : kReps) {
    ExpectMatchesOracle(PointCfs(centers, rep), points,
                        label + " " + CfRepresentationName(rep));
  }
}

/// 1-17 and 100 centers (every tail of the 4-wide blocks) at dims
/// {1, 2, 3, 5, 16, 64}: random coordinates, as one-point CFs and as
/// CFs of several points (whose classic centroid LS/N is rounded);
/// integer-grid coordinates with duplicated centers, where exact ties
/// must return the lowest index; and NaN, +-inf and 1e200 points, which
/// must find no winner.
inline void RunNearestSqCases(uint64_t seed) {
  Rng rng(seed);
  const size_t kCenterCounts[] = {1,  2,  3,  4,  5,  6,  7,  8,  9, 10,
                                  11, 12, 13, 14, 15, 16, 17, 100};
  for (size_t dim : {1, 2, 3, 5, 16, 64}) {
    for (size_t m : kCenterCounts) {
      const std::string where =
          "dim=" + std::to_string(dim) + " m=" + std::to_string(m);

      std::vector<std::vector<double>> centers(m, std::vector<double>(dim));
      for (auto& c : centers) {
        for (auto& v : c) v = rng.Uniform(-10.0, 10.0);
      }
      std::vector<double> points(13 * dim);
      for (auto& v : points) v = rng.Uniform(-12.0, 12.0);
      ExpectMatchesOracle(centers, points, "random " + where);

      for (CfRepresentation rep : kReps) {
        std::vector<CfVector> clusters(m, CfVector(dim, rep));
        for (size_t j = 0; j < m; ++j) {
          for (size_t q = 0; q < 1 + j % 4; ++q) {
            std::vector<double> x(dim);
            for (auto& v : x) v = rng.Uniform(-10.0, 10.0);
            clusters[j].AddPoint(x);
          }
        }
        ExpectMatchesOracle(clusters, points,
                            std::string("clusters ") +
                                CfRepresentationName(rep) + " " + where);
      }

      // Every other center repeats an earlier one; points sit on the
      // same small grid, so equal distances are common.
      std::vector<std::vector<double>> grid(m, std::vector<double>(dim));
      for (size_t j = 0; j < m; ++j) {
        if (j % 2 == 1) {
          grid[j] = grid[rng.UniformInt(j)];
          continue;
        }
        for (auto& v : grid[j]) {
          v = static_cast<double>(rng.UniformInt(5)) - 2.0;
        }
      }
      std::vector<double> grid_points(13 * dim);
      for (auto& v : grid_points) {
        v = static_cast<double>(rng.UniformInt(7)) - 3.0;
      }
      ExpectMatchesOracle(grid, grid_points, "grid " + where);

      // Points no center compares below +inf to, between two finite
      // ones so the tiles mix winners and non-winners.
      const double kBad[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                             -kInf, 1e200};
      std::vector<double> special;
      std::vector<bool> bad_row;
      for (double bad : kBad) {
        std::vector<double> row(dim, 0.5);
        special.insert(special.end(), row.begin(), row.end());
        bad_row.push_back(false);
        row[dim - 1] = bad;
        special.insert(special.end(), row.begin(), row.end());
        bad_row.push_back(true);
        row.assign(dim, bad);
        special.insert(special.end(), row.begin(), row.end());
        bad_row.push_back(true);
      }
      ExpectMatchesOracle(centers, special, "special " + where);
      for (CfRepresentation rep : kReps) {
        const CfBatch batch = CentroidBlock(PointCfs(centers, rep));
        for (size_t i = 0; i < bad_row.size(); ++i) {
          if (!bad_row[i]) continue;
          ScanResult r = batch.NearestCentroidSq(
              std::span<const double>(&special[i * dim], dim));
          EXPECT_EQ(r.index, kNoWinner) << where << " row=" << i;
          EXPECT_EQ(r.distance, kInf) << where << " row=" << i;
        }
      }
    }
  }
}

}  // namespace center_batch_cases
}  // namespace kernel
}  // namespace birch

#endif  // BIRCH_TESTS_CENTER_BATCH_CASES_H_
