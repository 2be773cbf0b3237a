// Phase 2 (optional): condense the CF tree into a smaller one so the
// global clustering algorithm of Phase 3 — whose cost is quadratic in
// the number of leaf entries — gets an input in its sweet-spot range.
// Works by rebuilding with progressively larger thresholds, optionally
// shedding low-density entries as outliers, until the leaf-entry count
// falls to the target.
#ifndef BIRCH_BIRCH_PHASE2_H_
#define BIRCH_BIRCH_PHASE2_H_

#include <vector>

#include "birch/cf_tree.h"
#include "util/status.h"

namespace birch {

struct Phase2Options {
  /// Condense until leaf_entry_count() <= this.
  size_t target_leaf_entries = 1000;
  /// Entries lighter than this weight are shed as outliers (0 = keep).
  double outlier_weight_threshold = 0.0;
};

struct Phase2Stats {
  int rounds = 0;
  double final_threshold = 0.0;
  size_t final_leaf_entries = 0;
  size_t outliers_shed = 0;
};

/// Rebuilds `tree` until its leaf-entry count reaches the target.
/// Outlier entries (if enabled) are appended to `*outliers`.
Status CondenseTree(CfTree* tree, const Phase2Options& options,
                    std::vector<CfVector>* outliers, Phase2Stats* stats);

}  // namespace birch

#endif  // BIRCH_BIRCH_PHASE2_H_
