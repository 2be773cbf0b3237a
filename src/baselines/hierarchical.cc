#include "baselines/hierarchical.h"

namespace birch {

std::vector<CfVector> OnePointCfs(const Dataset& data) {
  std::vector<CfVector> cfs;
  cfs.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    cfs.push_back(CfVector::FromPoint(data.Row(i), data.Weight(i)));
  }
  return cfs;
}

StatusOr<GlobalClustering> HierarchicalCluster(const Dataset& data, int k,
                                               DistanceMetric metric) {
  GlobalClusterOptions o;
  o.k = k;
  o.metric = metric;
  o.algorithm = GlobalAlgorithm::kHierarchical;
  return GlobalCluster(OnePointCfs(data), o);
}

}  // namespace birch
