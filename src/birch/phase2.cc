#include "birch/phase2.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace birch {

constexpr int kMaxRounds = 64;  // safety cap on condensation rounds

Status CondenseTree(CfTree* tree, const Phase2Options& options,
                    std::vector<CfVector>* outliers, Phase2Stats* stats) {
  TRACE_SPAN("phase2/condense");
  Phase2Stats local;
  Phase2Stats* out = stats ? stats : &local;
  *out = Phase2Stats{};
  if (options.target_leaf_entries == 0) {
    return Status::InvalidArgument("target_leaf_entries must be > 0");
  }

  const double d = static_cast<double>(tree->options().dim);
  while (tree->leaf_entry_count() > options.target_leaf_entries &&
         out->rounds < kMaxRounds) {
    size_t before = tree->leaf_entry_count();
    double ratio = static_cast<double>(before) /
                   static_cast<double>(options.target_leaf_entries);
    // Volume heuristic: entry count scales ~ T^-d, so closing the gap
    // needs T to grow by ratio^(1/d). Never below the guaranteed-merge
    // distance, and strictly above the current threshold.
    double t = tree->threshold();
    double t_next = t > 0.0 ? t * std::pow(ratio, 1.0 / d) : 0.0;
    t_next = std::max(t_next, tree->MostCrowdedLeafMinMerge());
    if (t_next <= t) t_next = t > 0.0 ? 1.5 * t : 1e-6;

    size_t shed_before = outliers ? outliers->size() : 0;
    tree->Rebuild(t_next, options.outlier_weight_threshold, outliers);
    ++out->rounds;
    OBS_COUNTER_INC("phase2/rounds");
    if (outliers) {
      out->outliers_shed += outliers->size() - shed_before;
      OBS_COUNTER_ADD("phase2/outliers_shed", outliers->size() - shed_before);
    }

    if (tree->leaf_entry_count() >= before &&
        tree->leaf_entry_count() > options.target_leaf_entries) {
      // No progress (all remaining entries are mutually distant):
      // accelerate. The backstop in the next iteration's t_next keeps
      // this terminating.
      tree->Rebuild(2.0 * t_next, options.outlier_weight_threshold,
                    outliers);
      ++out->rounds;
      OBS_COUNTER_INC("phase2/rounds");
    }
  }
  out->final_threshold = tree->threshold();
  out->final_leaf_entries = tree->leaf_entry_count();
  if (tree->leaf_entry_count() > options.target_leaf_entries) {
    return Status::Internal("condensation failed to reach target in " +
                            std::to_string(out->rounds) + " rounds");
  }
  return Status::OK();
}

}  // namespace birch
