#include "birch/threshold.h"

#include <algorithm>
#include <cmath>

namespace birch {

constexpr double kGrowthCap = 2.0;        // per-rebuild growth cap on T
constexpr double kBackstopFactor = 1.25;  // T's step when nothing grows it

bool LeastSquaresFit(const std::vector<double>& xs,
                     const std::vector<double>& ys, double* a, double* b) {
  if (xs.size() != ys.size() || xs.size() < 2) return false;
  double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  double denom = n * sxx - sx * sx;
  if (std::fabs(denom) < 1e-12 * (1.0 + sxx)) return false;  // x constant
  *b = (n * sxy - sx * sy) / denom;
  *a = (sy - *b * sx) / n;
  return true;
}

double ThresholdHeuristic::SuggestNext(const CfTree& tree,
                                       uint64_t points_seen) {
  const double ti = tree.threshold();
  const double ni = std::max<double>(1.0, static_cast<double>(points_seen));
  double ni1 = 2.0 * ni;
  if (total_points_ > 0) {
    ni1 = std::min(ni1, static_cast<double>(total_points_));
    ni1 = std::max(ni1, ni + 1.0);  // still demand progress at the tail
  }

  // Signal 1: volume extrapolation.
  double by_volume = 0.0;
  if (ti > 0.0) {
    by_volume = ti * std::pow(ni1 / ni, 1.0 / static_cast<double>(dim_));
  }

  // Signal 2: regression of avg leaf-entry radius growth (log-log).
  const double avg_r = tree.AverageLeafEntryRadius();
  double by_regression = 0.0;
  if (avg_r > 0.0) {
    history_.push_back({std::log(ni), std::log(avg_r)});
    double a = 0, b = 0;
    std::vector<double> xs, ys;
    for (const auto& o : history_) {
      xs.push_back(o.log_points);
      ys.push_back(o.log_radius);
    }
    if (ti > 0.0 && LeastSquaresFit(xs, ys, &a, &b)) {
      double r_next = std::exp(a + b * std::log(ni1));
      if (r_next > avg_r) by_regression = ti * (r_next / avg_r);
    }
  }

  // Signal 3: guaranteed-merge distance in the most crowded leaf.
  const double dmin = tree.MostCrowdedLeafMinMerge();

  double next = std::max({by_volume, by_regression, dmin});

  // Growth cap: the regression can explode on skewed (e.g. fully
  // ordered) inputs where the observed radius history rises steeply —
  // an unchecked extrapolation once inflated T past the inter-cluster
  // spacing and collapsed distinct clusters irreversibly. Cap the
  // per-rebuild growth, but never below d_min (progress guarantee).
  if (ti > 0.0) {
    next = std::max(std::min(next, kGrowthCap * ti), dmin);
  }

  // Backstop: the sequence must strictly increase for rebuilding to
  // shrink the tree (Reducibility Theorem premise).
  if (next <= ti) {
    if (ti > 0.0) {
      next = ti * kBackstopFactor;
    } else if (dmin > 0.0) {
      next = dmin;
    } else {
      // Degenerate: every leaf holds a single entry. Fall back to a
      // small fraction of the overall data spread.
      double spread = tree.TreeSummary().Radius();
      next = spread > 0.0 ? 1e-3 * spread : 1e-6;
    }
  }
  return next;
}

}  // namespace birch
