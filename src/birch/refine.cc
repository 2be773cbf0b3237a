#include "birch/refine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace birch {

namespace {
constexpr size_t kNoWinner = static_cast<size_t>(-1);
}  // namespace

SeedAssigner::SeedAssigner(const std::vector<std::vector<double>>& centers,
                           double outlier_distance, KernelKind kernel)
    : centers_(centers),
      dim_(centers.empty() ? 0 : centers[0].size()),
      limit_sq_(outlier_distance > 0.0
                    ? outlier_distance * outlier_distance
                    : std::numeric_limits<double>::infinity()),
      use_batch_(IsBatchKernel(kernel)) {
  if (use_batch_) batch_.Assign(centers);
}

uint64_t SeedAssigner::Assign(std::span<const double> rows, size_t n,
                              std::span<const double> weights, int* labels,
                              std::vector<CfVector>* cfs) const {
  uint64_t discarded = 0;
  kernel::ScanResult nearest[kBlockRows];
  for (size_t begin = 0; begin < n; begin += kBlockRows) {
    const size_t count = std::min(kBlockRows, n - begin);
    if (use_batch_) {
      batch_.NearestSqRows(rows.subspan(begin * dim_, count * dim_), count,
                           nearest);
    } else {
      for (size_t t = 0; t < count; ++t) {
        std::span<const double> row = rows.subspan((begin + t) * dim_, dim_);
        kernel::ScanResult& r = nearest[t];
        r = {kNoWinner, std::numeric_limits<double>::infinity()};
        for (size_t c = 0; c < centers_.size(); ++c) {
          const double d = SquaredDistance(row, centers_[c]);
          if (d < r.distance) r = {c, d};
        }
      }
    }
    for (size_t t = 0; t < count; ++t) {
      const size_t i = begin + t;
      const kernel::ScanResult& r = nearest[t];
      int label = r.index == kNoWinner ? -1 : static_cast<int>(r.index);
      if (r.distance > limit_sq_) {
        label = -1;
        ++discarded;
      }
      labels[i] = label;
      if (label >= 0) {
        (*cfs)[static_cast<size_t>(label)].AddPoint(
            rows.subspan(i * dim_, dim_), weights.empty() ? 1.0 : weights[i]);
      }
    }
  }
  return discarded;
}

namespace {

/// One redistribution pass. Returns the number of label changes.
/// With a pool, chunks accumulate private partial CFs / counters that
/// are folded in chunk order; the single-chunk path is the exact
/// serial arithmetic.
uint64_t AssignPass(const Dataset& data,
                    const std::vector<std::vector<double>>& centers,
                    double outlier_distance, exec::ThreadPool* pool,
                    KernelKind kernel_kind, std::vector<int>* labels,
                    std::vector<CfVector>* cluster_cfs,
                    uint64_t* discarded) {
  const size_t k = centers.size();
  // Accumulators are fed point by point (AddPoint never adopts a
  // policy), so they must be constructed under the pipeline's CF
  // policies — carried by the caller-sized cluster_cfs.
  const CfRepresentation rep = cluster_cfs->empty()
                                   ? CfRepresentation::kClassic
                                   : (*cluster_cfs)[0].rep();
  const CfStorage storage = cluster_cfs->empty()
                                ? CfStorage::kF64
                                : (*cluster_cfs)[0].storage();
  for (auto& cf : *cluster_cfs) cf = CfVector(data.dim(), rep, storage);
  uint64_t changes = 0;
  *discarded = 0;
  const SeedAssigner assigner(centers, outlier_distance, kernel_kind);
  std::span<const double> values = data.Values();
  std::span<const double> weights = data.Weights();

  const size_t dim = data.dim();
  // Assigns [begin, end); accumulates into cfs/changes/discarded.
  auto assign_range = [&](size_t begin, size_t end,
                          std::vector<CfVector>* cfs, uint64_t* local_changes,
                          uint64_t* local_discarded) {
    int fresh[SeedAssigner::kBlockRows] = {};
    for (size_t i = begin; i < end; i += SeedAssigner::kBlockRows) {
      const size_t n = std::min(SeedAssigner::kBlockRows, end - i);
      *local_discarded += assigner.Assign(
          values.subspan(i * dim, n * dim), n,
          weights.empty() ? weights : weights.subspan(i, n), fresh, cfs);
      for (size_t t = 0; t < n; ++t) {
        int& label = (*labels)[i + t];
        if (label != fresh[t]) {
          label = fresh[t];
          ++*local_changes;
        }
      }
    }
  };

  const size_t num_chunks = exec::ParallelForNumChunks(pool, data.size(),
                                                       /*min_per_chunk=*/256);
  if (num_chunks <= 1) {
    assign_range(0, data.size(), cluster_cfs, &changes, discarded);
    return changes;
  }
  std::vector<std::vector<CfVector>> partial_cfs(num_chunks);
  std::vector<uint64_t> partial_changes(num_chunks, 0);
  std::vector<uint64_t> partial_discarded(num_chunks, 0);
  exec::ParallelFor(
      pool, data.size(),
      [&](size_t begin, size_t end, size_t chunk) {
        partial_cfs[chunk].assign(k, CfVector(data.dim(), rep, storage));
        assign_range(begin, end, &partial_cfs[chunk],
                     &partial_changes[chunk], &partial_discarded[chunk]);
      },
      /*min_per_chunk=*/256);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    for (size_t c = 0; c < k; ++c) {
      (*cluster_cfs)[c].Add(partial_cfs[chunk][c]);
    }
    changes += partial_changes[chunk];
    *discarded += partial_discarded[chunk];
  }
  return changes;
}

}  // namespace

StatusOr<RefineResult> RefineClusters(const Dataset& data,
                                      std::span<const CfVector> seeds,
                                      const RefineOptions& options) {
  if (seeds.empty()) return Status::InvalidArgument("no seeds");
  if (options.passes < 1) {
    return Status::InvalidArgument("passes must be >= 1");
  }
  for (const auto& s : seeds) {
    if (s.dim() != data.dim() || s.empty()) {
      return Status::InvalidArgument("seed dimension/weight mismatch");
    }
  }

  TRACE_SPAN("phase4/refine");
  std::vector<std::vector<double>> centers;
  centers.reserve(seeds.size());
  for (const auto& s : seeds) centers.push_back(s.Centroid());

  RefineResult result;
  result.labels.assign(data.size(), -2);  // -2: unassigned sentinel
  result.clusters.assign(
      seeds.size(),
      CfVector(data.dim(), seeds[0].rep(), seeds[0].storage()));

  for (int pass = 0; pass < options.passes; ++pass) {
    uint64_t discarded = 0;
    uint64_t changes =
        AssignPass(data, centers, options.outlier_distance, options.pool,
                   options.kernel, &result.labels, &result.clusters,
                   &discarded);
    result.points_discarded = discarded;
    ++result.passes_run;
    OBS_COUNTER_INC("phase4/passes");
    OBS_COUNTER_ADD("phase4/label_changes", changes);
    // Move each seed to its refined centroid for the next pass.
    for (size_t c = 0; c < result.clusters.size(); ++c) {
      if (!result.clusters[c].empty()) {
        result.clusters[c].CentroidInto(&centers[c]);
      }
    }
    if (options.stop_when_stable && changes == 0) break;
  }
  OBS_COUNTER_ADD("phase4/points_discarded", result.points_discarded);
  return result;
}

StatusOr<RefineResult> LabelPoints(const Dataset& data,
                                   std::span<const CfVector> seeds,
                                   double outlier_distance) {
  RefineOptions options;
  options.passes = 1;
  options.outlier_distance = outlier_distance;
  return RefineClusters(data, seeds, options);
}

}  // namespace birch
