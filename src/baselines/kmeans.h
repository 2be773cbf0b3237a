// Lloyd k-means over raw points with k-means++ seeding. Used as a
// sanity baseline next to BIRCH and CLARANS; BIRCH's Phase 3 has its
// own CF-weighted variant in birch/global_cluster.
#ifndef BIRCH_BASELINES_KMEANS_H_
#define BIRCH_BASELINES_KMEANS_H_

#include <cstdint>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/dataset.h"
#include "util/status.h"

namespace birch {

namespace exec {
class ThreadPool;
}  // namespace exec

struct KMeansOptions {
  int k = 0;
  uint64_t seed = 42;
  /// Optional worker pool for the assignment / centroid sweeps.
  /// nullptr runs them inline (exact serial arithmetic); with a pool,
  /// per-chunk partials fold in chunk order, deterministic for a fixed
  /// (seed, pool size).
  exec::ThreadPool* pool = nullptr;
};

struct KMeansResult {
  std::vector<int> labels;
  std::vector<CfVector> clusters;
  int iterations = 0;
  double sse = 0.0;
};

/// Clusters `data` into k groups. Fails on k <= 0 or k > data.size().
StatusOr<KMeansResult> KMeans(const Dataset& data,
                              const KMeansOptions& options);

}  // namespace birch

#endif  // BIRCH_BASELINES_KMEANS_H_
