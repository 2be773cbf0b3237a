// Phase 3: global clustering over the leaf-entry CFs. The paper adapts
// an agglomerative hierarchical clustering algorithm to work directly
// on CF vectors with the D2/D4 metrics (its default); a CF-weighted
// k-means (with k-means++ seeding) is provided as the alternative.
// Because every input is a CF, both algorithms treat subclusters
// exactly — not as single representative points.
#ifndef BIRCH_BIRCH_GLOBAL_CLUSTER_H_
#define BIRCH_BIRCH_GLOBAL_CLUSTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/kernel/kernel.h"
#include "birch/metrics.h"
#include "util/status.h"

namespace birch {

namespace exec {
class ThreadPool;
}  // namespace exec

enum class GlobalAlgorithm {
  kHierarchical = 0,  // paper default: adapted agglomerative HC
  kKMeans,            // CF-weighted Lloyd with k-means++ seeding
  kMedoids,           // CLARANS over the CF centroids, weighted by N
};

struct GlobalClusterOptions {
  /// Desired number of clusters (> 0), or 0 to use diameter_limit.
  int k = 0;
  /// When k == 0: stop merging once the next merge's distance would
  /// exceed this (hierarchical only).
  double distance_limit = 0.0;
  GlobalAlgorithm algorithm = GlobalAlgorithm::kHierarchical;
  /// Inter-cluster metric for the hierarchical merges (paper: D2/D4).
  DistanceMetric metric = DistanceMetric::kD2;
  uint64_t seed = 42;
  /// Guard: hierarchical input size limit (cost is quadratic).
  size_t max_hierarchical_inputs = 20000;
  /// Optional worker pool for the O(m^2) distance loops and the
  /// k-means sweeps. nullptr runs the loops inline. Each pooled task
  /// writes only its own entries' slots, and the k-means centroids are
  /// folded in entry order, so the result is the serial one bit for bit
  /// at every pool size.
  exec::ThreadPool* pool = nullptr;
  /// Has no effect: the nearest-neighbour and k-means sweeps always run
  /// the column scans (kernel/kernel.h).
  KernelKind kernel = KernelKind::kBatch;
};

struct GlobalClustering {
  /// For each input CF, the cluster index it was assigned to.
  std::vector<int> assignment;
  /// Cluster CFs (exact, by additivity).
  std::vector<CfVector> clusters;
};

struct MedoidSearchOptions {
  /// Number of medoids; 0 < k < number of rows.
  size_t k = 0;
  /// Random starts (> 0).
  int numlocal = 2;
  /// Neighbours tried per medoid set before it counts as a local
  /// minimum; <= 0 uses max(0.0125 * k * (n - k), 250).
  int64_t maxneighbor = 0;
  uint64_t seed = 42;
};

struct MedoidSearchResult {
  /// Row indices of the k medoids.
  std::vector<size_t> medoids;
  /// Per row, the index into `medoids` of its nearest medoid.
  std::vector<int> labels;
  /// sum_i w_i * ||x_i - medoid(i)|| at `medoids`.
  double cost = 0.0;
  uint64_t neighbors_evaluated = 0;
  uint64_t swaps_accepted = 0;
};

/// CLARANS (Ng & Han, VLDB 1994): the paper's comparator (Sec. 6.7) and
/// Phase 3's medoid search (kMedoids). From each of `numlocal` random
/// medoid sets it tries random single-medoid swaps, moves to the first
/// one that lowers the cost (the PAM swap delta over cached nearest /
/// second-nearest medoid distances, O(n) per neighbour), and stops at a
/// set where `maxneighbor` tries in a row found none; the cheapest
/// local minimum wins. Runs over n = weights.size() rows of `dim`
/// values packed row-major in `rows`; row i counts weights[i] times in
/// the cost. Phase 3 passes entry centroids weighted by N, the CLARANS
/// baseline raw rows with unit weights.
MedoidSearchResult ClaransSearch(std::span<const double> rows, size_t dim,
                                 std::span<const double> weights,
                                 const MedoidSearchOptions& options);

/// Clusters the given subcluster CFs. Fails on empty input, k < 0,
/// k > #inputs, or an oversized hierarchical input.
StatusOr<GlobalClustering> GlobalCluster(std::span<const CfVector> entries,
                                         const GlobalClusterOptions& options);

}  // namespace birch

#endif  // BIRCH_BIRCH_GLOBAL_CLUSTER_H_
