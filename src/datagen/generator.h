// Synthetic dataset generator reimplementing the paper's (Sec. 6.2,
// Table 1). A dataset is K clusters whose centers are placed on a grid,
// on a sine curve, or at random; each cluster draws a point count from
// [n_l, n_h] and a radius from [r_l, r_h]; points are Gaussian around
// the center with per-dimension sigma = r/sqrt(d) so the expected
// cluster radius (RMS distance to centroid) equals r. A fraction rn of
// uniform background noise can be added, and the emitted order is
// either "ordered" (cluster by cluster, noise at the end) or fully
// randomized.
#ifndef BIRCH_DATAGEN_GENERATOR_H_
#define BIRCH_DATAGEN_GENERATOR_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/dataset.h"
#include "util/random.h"
#include "util/status.h"

namespace birch {

enum class PlacementPattern { kGrid = 0, kSine, kRandom };

enum class InputOrder { kRandomized = 0, kOrdered };

/// Table-1 parameters.
struct GeneratorOptions {
  size_t dim = 2;
  int k = 100;                   // number of clusters
  int n_low = 1000;              // points per cluster, lower
  int n_high = 1000;             // points per cluster, higher
  double r_low = std::sqrt(2.0); // cluster radius, lower
  double r_high = std::sqrt(2.0);
  PlacementPattern pattern = PlacementPattern::kGrid;
  double grid_spacing = 4.0;     // kg: distance between grid neighbours
  int sine_cycles = 4;           // nc: full sine cycles across K centers
  double random_range = 0.0;     // kRandom box side; 0 = auto (k * kg / 4)
  double noise_fraction = 0.0;   // rn: uniform background noise
  InputOrder order = InputOrder::kRandomized;
  /// Resample Gaussian draws farther than this many radii from the
  /// center ("outsider" control); 0 disables.
  double max_distance_radii = 0.0;
  /// Added to every coordinate of every cluster center. Large values
  /// (~1e8) with tight radii make the dataset ill-conditioned for the
  /// classic (N, LS, SS) CF representation: SS and ||LS||^2/N agree to
  /// ~16 digits and their difference (the actual spread) cancels.
  double center_offset = 0.0;
  uint64_t seed = 42;
};

/// A tight-cluster workload at distance `offset` from the origin: unit
/// point spread on a coarse grid, so cluster structure is perfectly
/// resolvable in exact arithmetic but cancels out of classic
/// (N, LS, SS) CFs once offset^2 dwarfs the spread.
GeneratorOptions IllConditionedOptions(size_t dim, int k, double offset,
                                       uint64_t seed);

/// Ground truth for one generated cluster.
struct ActualCluster {
  std::vector<double> center;
  double radius_param = 0.0;  // the r drawn from [r_l, r_h]
  int points = 0;
  CfVector cf;  // exact CF of the generated points
};

/// A generated dataset plus its ground truth.
struct GeneratedData {
  Dataset data;
  /// Per-row ground-truth cluster id; -1 for noise points.
  std::vector<int> truth;
  std::vector<ActualCluster> actual;

  GeneratedData() : data(2) {}
};

/// Generates a dataset per `options`. Fails on invalid parameters.
StatusOr<GeneratedData> Generate(const GeneratorOptions& options);

/// Places the K cluster centers for `options` (exposed for tests).
std::vector<std::vector<double>> PlaceCenters(const GeneratorOptions& options,
                                              Rng* rng);

}  // namespace birch

#endif  // BIRCH_DATAGEN_GENERATOR_H_
