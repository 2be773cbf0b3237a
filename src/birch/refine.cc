#include "birch/refine.h"

#include <algorithm>
#include <limits>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace birch {

namespace {
constexpr size_t kNoWinner = static_cast<size_t>(-1);
}  // namespace

SeedAssigner::SeedAssigner(std::span<const CfVector> centers,
                           double outlier_distance)
    : limit_sq_(outlier_distance > 0.0
                    ? outlier_distance * outlier_distance
                    : std::numeric_limits<double>::infinity()) {
  if (centers.empty()) return;
  batch_.Init(centers[0].dim(), centers.size(),
              kernel::CfBatch::Needs::For(DistanceMetric::kD0,
                                          centers[0].rep()));
  batch_.Assign(centers);
}

uint64_t SeedAssigner::Label(std::span<const double> rows, size_t n,
                             int* labels) const {
  const size_t dim = batch_.dim();
  uint64_t discarded = 0;
  kernel::ScanResult nearest[kBlockRows];
  for (size_t begin = 0; begin < n; begin += kBlockRows) {
    const size_t count = std::min(kBlockRows, n - begin);
    batch_.NearestCentroidSqRows(rows.subspan(begin * dim, count * dim),
                                 count, nearest);
    for (size_t t = 0; t < count; ++t) {
      const kernel::ScanResult& r = nearest[t];
      int label = r.index == kNoWinner ? -1 : static_cast<int>(r.index);
      if (r.distance > limit_sq_) {
        label = -1;
        ++discarded;
      }
      labels[begin + t] = label;
    }
  }
  return discarded;
}

void SeedAssigner::Fold(std::span<const double> rows, size_t n,
                        std::span<const double> weights, const int* labels,
                        std::vector<CfVector>* cfs) const {
  const size_t dim = batch_.dim();
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] < 0) continue;
    (*cfs)[static_cast<size_t>(labels[i])].AddPoint(
        rows.subspan(i * dim, dim), weights.empty() ? 1.0 : weights[i]);
  }
}

namespace {

/// One redistribution pass. Returns the number of label changes.
/// Serially each kBlockRows tile is labelled and then folded; with a
/// pool the whole pass is labelled in chunks on it and then folded in
/// row order, which is the serial arithmetic.
uint64_t AssignPass(const Dataset& data, std::span<const CfVector> centers,
                    double outlier_distance, exec::ThreadPool* pool,
                    std::vector<int>* labels,
                    std::vector<CfVector>* cluster_cfs,
                    uint64_t* discarded) {
  // Accumulators are fed point by point (AddPoint never adopts a
  // representation), so they must be constructed under the pipeline's
  // CF representation — carried by the caller-sized cluster_cfs.
  const CfRepresentation rep = cluster_cfs->empty()
                                   ? CfRepresentation::kClassic
                                   : (*cluster_cfs)[0].rep();
  for (auto& cf : *cluster_cfs) cf = CfVector(data.dim(), rep);
  const SeedAssigner assigner(centers, outlier_distance);
  std::span<const double> values = data.Values();
  std::span<const double> weights = data.Weights();
  const size_t dim = data.dim();
  const size_t n = data.size();
  constexpr size_t kTile = SeedAssigner::kBlockRows;

  const size_t slab = pool == nullptr ? kTile : n;
  const size_t num_chunks = exec::ParallelForNumChunks(pool, slab, kTile);
  std::vector<uint64_t> changes(num_chunks, 0);
  std::vector<uint64_t> discards(num_chunks, 0);
  size_t begin = 0;  // the slab being labelled
  const exec::ChunkFn label_chunk = [&](size_t from, size_t to,
                                        size_t chunk) {
    int fresh[kTile] = {};
    for (size_t i = begin + from; i < begin + to; i += kTile) {
      const size_t m = std::min(kTile, begin + to - i);
      discards[chunk] +=
          assigner.Label(values.subspan(i * dim, m * dim), m, fresh);
      for (size_t t = 0; t < m; ++t) {
        int& label = (*labels)[i + t];
        if (label != fresh[t]) {
          label = fresh[t];
          ++changes[chunk];
        }
      }
    }
  };
  for (; begin < n; begin += slab) {
    const size_t count = std::min(slab, n - begin);
    exec::ParallelFor(pool, count, label_chunk, kTile);
    assigner.Fold(values.subspan(begin * dim, count * dim), count,
                  weights.empty() ? weights : weights.subspan(begin, count),
                  labels->data() + begin, cluster_cfs);
  }
  uint64_t total_changes = 0;
  *discarded = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    total_changes += changes[c];
    *discarded += discards[c];
  }
  return total_changes;
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
  std::vector<CfVector> centers(seeds.begin(), seeds.end());

  RefineResult result;
  result.labels.assign(data.size(), -2);  // -2: unassigned sentinel
  result.clusters.assign(seeds.size(), CfVector(data.dim(), seeds[0].rep()));

  for (int pass = 0; pass < options.passes; ++pass) {
    uint64_t discarded = 0;
    uint64_t changes =
        AssignPass(data, centers, options.outlier_distance, options.pool,
                   &result.labels, &result.clusters, &discarded);
    result.points_discarded = discarded;
    ++result.passes_run;
    OBS_COUNTER_INC("phase4/passes");
    OBS_COUNTER_ADD("phase4/label_changes", changes);
    // Move each seed to its refined cluster for the next pass.
    for (size_t c = 0; c < result.clusters.size(); ++c) {
      if (!result.clusters[c].empty()) centers[c] = result.clusters[c];
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
