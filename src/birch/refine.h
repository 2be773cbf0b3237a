// Phase 4 (optional): refinement passes over the original data. The
// Phase-3 cluster centroids act as seeds; each pass redistributes every
// point to its closest seed and recomputes the centroids — exactly the
// assignment step of k-means, which the paper notes converges to a
// minimum. This fixes the two Phase-1 artifacts (a point absorbed into
// the "wrong" subcluster by a skewed input order, and copies of the
// same point split across subclusters), and can optionally discard
// points too far from every seed as outliers.
//
// Every pass, in memory (RefineClusters) or streamed from a PointSource
// (ClusterSource), assigns its points through one SeedAssigner in two
// steps: Label() hands blocks of rows to the kernel's fused
// point->centroid argmin over a column block of the center CFs and may
// run on any thread; Fold() adds the labelled rows into the cluster CFs
// in row order on one thread. Each cluster CF therefore
// receives its points in row order at every pool size, and the result
// is the serial pass's bit for bit.
#ifndef BIRCH_BIRCH_REFINE_H_
#define BIRCH_BIRCH_REFINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/dataset.h"
#include "birch/kernel/kernel.h"
#include "util/status.h"

namespace birch {

namespace exec {
class ThreadPool;
}  // namespace exec

struct RefineOptions {
  /// Number of redistribution passes (>= 1).
  int passes = 1;
  /// When > 0, a point farther than this from every centroid is
  /// labelled -1 (outlier) instead of being assigned.
  double outlier_distance = 0.0;
  /// Stop early once a pass changes no label.
  bool stop_when_stable = true;
  /// Optional worker pool for the labelling. nullptr labels inline;
  /// with a pool, chunks of rows are labelled on it. Either way the
  /// rows are folded into the cluster CFs in row order, so labels and
  /// CFs are the serial pass's bit for bit at every pool size.
  exec::ThreadPool* pool = nullptr;
  /// Has no effect: the point->center argmin always runs the fused
  /// scan (kernel/kernel.h).
  KernelKind kernel = KernelKind::kBatch;
};

struct RefineResult {
  /// Per-point cluster index, or -1 for discarded outliers.
  std::vector<int> labels;
  /// Exact CFs of the refined clusters.
  std::vector<CfVector> clusters;
  int passes_run = 0;
  uint64_t points_discarded = 0;
};

/// The Phase-4 assignment step. Labels each point with its nearest
/// center, the centroid of a center CF (squared Euclidean, first wins
/// on ties), and adds the point, with its weight, to that cluster's
/// CF. A point whose nearest center lies farther than
/// `outlier_distance` (when > 0) is labelled -1 and counted as
/// discarded; a point no center compares below +inf to (a NaN
/// coordinate, or distances that overflow) is labelled -1 and added
/// nowhere. The argmin is the kernel's fused point->centroid scan of a
/// CfBatch, bitwise a SquaredDistance loop over the centers' centroids.
class SeedAssigner {
 public:
  /// Copies the non-empty CFs `centers` (one representation) into the
  /// scan's column block; build a new assigner when the centers move.
  SeedAssigner(std::span<const CfVector> centers, double outlier_distance);

  /// Labels the `n` row-major points in `rows` (n * dim values): writes
  /// labels[0, n) and returns the number discarded by
  /// `outlier_distance`. Const and safe to run on several threads at
  /// once.
  uint64_t Label(std::span<const double> rows, size_t n, int* labels) const;

  /// Adds each of the `n` points in `rows` labelled >= 0, with its
  /// weight (one per point, or empty for all-1), into (*cfs)[label], in
  /// row order. Call it on one thread, for the rows in stream order.
  void Fold(std::span<const double> rows, size_t n,
            std::span<const double> weights, const int* labels,
            std::vector<CfVector>* cfs) const;

  /// Rows per kernel call inside Label.
  static constexpr size_t kBlockRows = 256;

 private:
  double limit_sq_;
  kernel::CfBatch batch_;
};

/// Runs Phase-4 refinement of `seeds` over `data`.
StatusOr<RefineResult> RefineClusters(const Dataset& data,
                                      std::span<const CfVector> seeds,
                                      const RefineOptions& options);

/// Single labelling pass without centroid movement (used when the
/// caller wants labels from Phase-3 output as-is).
StatusOr<RefineResult> LabelPoints(const Dataset& data,
                                   std::span<const CfVector> seeds,
                                   double outlier_distance = 0.0);

}  // namespace birch

#endif  // BIRCH_BIRCH_REFINE_H_
