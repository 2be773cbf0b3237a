// Lloyd k-means over raw points with k-means++ seeding: BIRCH's Phase-3
// k-means (birch/global_cluster) run over each point lifted to a
// one-point CF, the way the hierarchical baseline runs Phase 3's
// agglomeration. Used as a sanity baseline next to BIRCH and CLARANS.
#ifndef BIRCH_BASELINES_KMEANS_H_
#define BIRCH_BASELINES_KMEANS_H_

#include <cstdint>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/dataset.h"
#include "util/status.h"

namespace birch {

struct KMeansOptions {
  int k = 0;
  uint64_t seed = 42;
};

struct KMeansResult {
  /// Per point, the index into `clusters` of its cluster.
  std::vector<int> labels;
  /// Exact CFs of the non-empty clusters, with the points' weights.
  std::vector<CfVector> clusters;
  double sse = 0.0;
};

/// Clusters `data` into k groups. Fails on k <= 0 or k > data.size().
StatusOr<KMeansResult> KMeans(const Dataset& data,
                              const KMeansOptions& options);

}  // namespace birch

#endif  // BIRCH_BASELINES_KMEANS_H_
