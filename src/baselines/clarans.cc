#include "baselines/clarans.h"

#include <vector>

namespace birch {

StatusOr<ClaransResult> Clarans(const Dataset& data,
                                const ClaransOptions& options) {
  const size_t n = data.size();
  if (options.k <= 0) return Status::InvalidArgument("k must be > 0");
  if (static_cast<size_t>(options.k) >= n) {
    return Status::InvalidArgument("k must be < number of points");
  }
  if (options.numlocal <= 0) {
    return Status::InvalidArgument("numlocal must be > 0");
  }
  MedoidSearchOptions search;
  search.k = static_cast<size_t>(options.k);
  search.numlocal = options.numlocal;
  search.maxneighbor = options.maxneighbor;
  search.seed = options.seed;
  // The search counts every row once, whatever its weight; the cluster
  // CFs below carry the weights.
  const std::vector<double> unit(n, 1.0);
  ClaransResult result;
  static_cast<MedoidSearchResult&>(result) =
      ClaransSearch(data.Values(), data.dim(), unit, search);
  result.clusters.assign(search.k, CfVector(data.dim()));
  for (size_t i = 0; i < n; ++i) {
    result.clusters[static_cast<size_t>(result.labels[i])].AddPoint(
        data.Row(i), data.Weight(i));
  }
  return result;
}

}  // namespace birch
