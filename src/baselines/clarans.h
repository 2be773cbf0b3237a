// CLARANS (Ng & Han, VLDB 1994) — the paper's head-to-head competitor
// (Sec. 6.7). A K-medoid clustering that searches the graph of medoid
// sets by randomized neighbour moves: from the current set, try up to
// `maxneighbor` random single-medoid swaps; descend on the first
// improving swap; declare a local minimum when none improves; repeat
// from `numlocal` random starts and keep the best. Defaults follow the
// published recommendation: numlocal = 2, maxneighbor =
// max(1.25% * K * (N - K), 250).
//
// Swap costs are evaluated incrementally (O(N) per neighbour) using
// cached nearest / second-nearest medoid distances, the standard PAM
// delta formula. The search is ClaransSearch (birch/global_cluster.h),
// which Phase 3's kMedoids runs too; here every row counts once.
#ifndef BIRCH_BASELINES_CLARANS_H_
#define BIRCH_BASELINES_CLARANS_H_

#include <cstdint>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/dataset.h"
#include "birch/global_cluster.h"
#include "util/status.h"

namespace birch {

struct ClaransOptions {
  int k = 0;
  int numlocal = 2;
  /// <= 0: use max(0.0125 * K * (N - K), 250).
  int maxneighbor = 0;
  uint64_t seed = 42;
};

/// The search's medoids, per-point labels (index of the nearest
/// medoid), cost (total distance of points to their medoid) and
/// counters, plus the clusters' CFs.
struct ClaransResult : MedoidSearchResult {
  /// Exact CFs of the K clusters, with the points' weights.
  std::vector<CfVector> clusters;
};

/// Runs CLARANS on `data`. Fails on k <= 0 or k >= data.size().
StatusOr<ClaransResult> Clarans(const Dataset& data,
                                const ClaransOptions& options);

}  // namespace birch

#endif  // BIRCH_BASELINES_CLARANS_H_
