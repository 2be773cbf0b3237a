#include "baselines/kmeans.h"

#include <utility>

#include "baselines/hierarchical.h"
#include "birch/global_cluster.h"

namespace birch {

StatusOr<KMeansResult> KMeans(const Dataset& data,
                              const KMeansOptions& options) {
  if (options.k <= 0) return Status::InvalidArgument("k must be > 0");
  if (static_cast<size_t>(options.k) > data.size()) {
    return Status::InvalidArgument("k exceeds number of points");
  }
  GlobalClusterOptions g;
  g.k = options.k;
  g.algorithm = GlobalAlgorithm::kKMeans;
  g.seed = options.seed;
  auto clustering_or = GlobalCluster(OnePointCfs(data), g);
  if (!clustering_or.ok()) return clustering_or.status();
  KMeansResult result;
  result.labels = std::move(clustering_or.value().assignment);
  result.clusters = std::move(clustering_or.value().clusters);
  for (const auto& c : result.clusters) result.sse += c.SumSquaredDeviation();
  return result;
}

}  // namespace birch
