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
// (ClusterSource), assigns its points through one SeedAssigner, which
// hands the kernel's fused point->center argmin blocks of rows.
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
  /// Optional worker pool for the assignment sweep. nullptr runs the
  /// pass inline, bit-for-bit identical to the serial implementation;
  /// with a pool, per-chunk partial CFs are folded in chunk order, so
  /// the result is deterministic for a fixed pool size.
  exec::ThreadPool* pool = nullptr;
  /// Distance-scan implementation for the point->center argmin
  /// (kernel/kernel.h). kScalar and kBatch are bitwise identical.
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
/// center (squared Euclidean, first wins on ties) and adds the point,
/// with its weight, to that cluster's CF. A point whose nearest center
/// lies farther than `outlier_distance` (when > 0) is labelled -1 and
/// counted as discarded; a point no center compares below +inf to (a
/// NaN coordinate, or distances that overflow) is labelled -1 and added
/// nowhere. kScalar runs the SquaredDistance loop, kBatch the fused
/// kernel; both give the same labels and CFs bit for bit.
class SeedAssigner {
 public:
  /// `centers` must outlive the assigner and stay unchanged while it is
  /// used; build a new assigner when the centers move.
  SeedAssigner(const std::vector<std::vector<double>>& centers,
               double outlier_distance, KernelKind kernel);

  /// Assigns the `n` row-major points in `rows` (n * dim values) with
  /// `weights` (one per point, or empty for all-1): writes labels[0, n)
  /// and adds each labelled point into (*cfs)[label]. Returns the
  /// number discarded by `outlier_distance`. Const and thread-safe;
  /// points reach each CF in row order.
  uint64_t Assign(std::span<const double> rows, size_t n,
                  std::span<const double> weights, int* labels,
                  std::vector<CfVector>* cfs) const;

  /// Rows per kernel call inside Assign; a good block size for callers
  /// that buffer a stream.
  static constexpr size_t kBlockRows = 256;

 private:
  const std::vector<std::vector<double>>& centers_;
  size_t dim_;
  double limit_sq_;
  bool use_batch_;
  kernel::CenterBatch batch_;
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
