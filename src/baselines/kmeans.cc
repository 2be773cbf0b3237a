#include "baselines/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "util/math.h"
#include "util/random.h"

namespace birch {

namespace {

constexpr int kMaxIterations = 100;  // Lloyd rounds cap

std::vector<std::vector<double>> SeedPlusPlus(const Dataset& data, int k,
                                              Rng* rng) {
  const size_t n = data.size();
  std::vector<std::vector<double>> seeds;
  seeds.reserve(static_cast<size_t>(k));
  size_t first = rng->UniformInt(n);
  auto row0 = data.Row(first);
  seeds.emplace_back(row0.begin(), row0.end());

  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  while (seeds.size() < static_cast<size_t>(k)) {
    const auto& latest = seeds.back();
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], SquaredDistance(data.Row(i), latest));
      sum += d2[i];
    }
    size_t chosen = n - 1;
    if (sum > 0.0) {
      double pick = rng->NextDouble() * sum;
      for (size_t i = 0; i < n; ++i) {
        pick -= d2[i];
        if (pick <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng->UniformInt(n);
    }
    auto row = data.Row(chosen);
    seeds.emplace_back(row.begin(), row.end());
  }
  return seeds;
}

}  // namespace

StatusOr<KMeansResult> KMeans(const Dataset& data,
                              const KMeansOptions& options) {
  if (options.k <= 0) return Status::InvalidArgument("k must be > 0");
  if (static_cast<size_t>(options.k) > data.size()) {
    return Status::InvalidArgument("k exceeds number of points");
  }
  Rng rng(options.seed);
  auto centers = SeedPlusPlus(data, options.k, &rng);
  const size_t n = data.size();
  const size_t k = static_cast<size_t>(options.k);

  KMeansResult result;
  result.labels.assign(n, -1);
  const size_t num_chunks =
      exec::ParallelForNumChunks(options.pool, n, /*min_per_chunk=*/256);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    // Assignment sweep: every point is independent.
    std::vector<uint8_t> chunk_changed(num_chunks, 0);
    exec::ParallelFor(
        options.pool, n,
        [&](size_t begin, size_t end, size_t chunk) {
          bool local_changed = false;
          for (size_t i = begin; i < end; ++i) {
            auto row = data.Row(i);
            int best = 0;
            double best_d = std::numeric_limits<double>::infinity();
            for (size_t c = 0; c < k; ++c) {
              double d = SquaredDistance(row, centers[c]);
              if (d < best_d) {
                best_d = d;
                best = static_cast<int>(c);
              }
            }
            if (result.labels[i] != best) {
              result.labels[i] = best;
              local_changed = true;
            }
          }
          if (local_changed) chunk_changed[chunk] = 1;
        },
        /*min_per_chunk=*/256);
    bool changed =
        std::any_of(chunk_changed.begin(), chunk_changed.end(),
                    [](uint8_t c) { return c != 0; });
    ++result.iterations;
    if (!changed && iter > 0) break;

    // Centroid sums: single chunk keeps the exact serial accumulation
    // order; chunked partials fold in chunk order (deterministic for a
    // fixed chunk count).
    std::vector<CfVector> sums(k, CfVector(data.dim()));
    if (num_chunks <= 1) {
      for (size_t i = 0; i < n; ++i) {
        sums[static_cast<size_t>(result.labels[i])].AddPoint(data.Row(i),
                                                             data.Weight(i));
      }
    } else {
      std::vector<std::vector<CfVector>> partial(num_chunks);
      exec::ParallelFor(
          options.pool, n,
          [&](size_t begin, size_t end, size_t chunk) {
            auto& local = partial[chunk];
            local.assign(k, CfVector(data.dim()));
            for (size_t i = begin; i < end; ++i) {
              local[static_cast<size_t>(result.labels[i])].AddPoint(
                  data.Row(i), data.Weight(i));
            }
          },
          /*min_per_chunk=*/256);
      for (const auto& local : partial) {
        for (size_t c = 0; c < k; ++c) sums[c].Add(local[c]);
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (sums[c].empty()) {
        // Re-seed an empty cluster at the point farthest from its
        // center.
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          double d = SquaredDistance(
              data.Row(i),
              centers[static_cast<size_t>(result.labels[i])]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        auto row = data.Row(far);
        centers[c].assign(row.begin(), row.end());
        continue;
      }
      sums[c].CentroidInto(&centers[c]);
    }
  }

  result.clusters.assign(k, CfVector(data.dim()));
  for (size_t i = 0; i < n; ++i) {
    result.clusters[static_cast<size_t>(result.labels[i])].AddPoint(
        data.Row(i), data.Weight(i));
  }
  result.sse = 0.0;
  for (const auto& c : result.clusters) result.sse += c.SumSquaredDeviation();
  return result;
}

}  // namespace birch
