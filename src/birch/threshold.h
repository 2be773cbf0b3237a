// Threshold growth heuristic (Sec. 5.1.3). When Phase 1 runs out of
// memory after absorbing N_i points under threshold T_i, the next
// threshold T_{i+1} is chosen from three signals:
//
//  1. Volume extrapolation: assuming leaf clusters pack a data volume
//     that grows with the number of points, T scales by
//     (N_{i+1}/N_i)^(1/d), with N_{i+1} = min(2 N_i, N) when the total
//     N is known.
//  2. Least-squares regression of the average leaf-entry radius r
//     against points seen (both in log space), extrapolated to N_{i+1}.
//  3. d_min: the smallest merged diameter/radius among entry pairs of
//     the most crowded leaf — the minimum threshold that is guaranteed
//     to merge at least one pair.
//
// The result is the max of the three, with a multiplicative backstop so
// the sequence T_i is strictly increasing (required by the Reducibility
// Theorem's premise).
#ifndef BIRCH_BIRCH_THRESHOLD_H_
#define BIRCH_BIRCH_THRESHOLD_H_

#include <cstdint>
#include <vector>

#include "birch/cf_tree.h"

namespace birch {

/// Ordinary least squares y = a + b*x. Returns false when under-
/// determined (fewer than 2 distinct x). Exposed for unit testing.
bool LeastSquaresFit(const std::vector<double>& xs,
                     const std::vector<double>& ys, double* a, double* b);

/// Stateful heuristic: records one observation per rebuild and suggests
/// the next threshold.
class ThresholdHeuristic {
 public:
  /// `total_points` is N when known in advance, else 0.
  ThresholdHeuristic(size_t dim, uint64_t total_points = 0)
      : dim_(dim), total_points_(total_points) {}

  /// Suggests T_{i+1} > tree.threshold() given `points_seen` points
  /// absorbed so far. Also records the observation for the regression.
  double SuggestNext(const CfTree& tree, uint64_t points_seen);

  size_t observations() const { return history_.size(); }

  /// One regression observation (log points seen, log average leaf
  /// radius). Public so checkpoints can carry the history verbatim.
  struct Observation {
    double log_points;
    double log_radius;
  };

  /// Checkpoint support: the recorded observations drive the regression
  /// signal, so a restored run must carry them to suggest the same
  /// thresholds the uninterrupted run would.
  const std::vector<Observation>& History() const { return history_; }
  void RestoreHistory(std::vector<Observation> history) {
    history_ = std::move(history);
  }

 private:

  size_t dim_;
  uint64_t total_points_;
  std::vector<Observation> history_;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_THRESHOLD_H_
