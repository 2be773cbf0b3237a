// Standalone agglomerative hierarchical clustering over raw points —
// a thin wrapper that lifts each point to a singleton CF and reuses
// BIRCH's Phase-3 machinery. Quadratic; intended for small inputs and
// for demonstrating why BIRCH pre-condenses with a CF tree.
#ifndef BIRCH_BASELINES_HIERARCHICAL_H_
#define BIRCH_BASELINES_HIERARCHICAL_H_

#include <vector>

#include "birch/cf_vector.h"
#include "birch/dataset.h"
#include "birch/global_cluster.h"
#include "util/status.h"

namespace birch {

/// Each row of `data` as a one-point CF carrying its weight: the input
/// the raw-point baselines (this one and KMeans) hand to GlobalCluster.
std::vector<CfVector> OnePointCfs(const Dataset& data);

/// Agglomerates `data` into k clusters under `metric`.
StatusOr<GlobalClustering> HierarchicalCluster(
    const Dataset& data, int k,
    DistanceMetric metric = DistanceMetric::kD2);

}  // namespace birch

#endif  // BIRCH_BASELINES_HIERARCHICAL_H_
