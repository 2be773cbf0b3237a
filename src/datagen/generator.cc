#include "datagen/generator.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/math.h"

namespace birch {

std::vector<std::vector<double>> PlaceCenters(const GeneratorOptions& o,
                                              Rng* rng) {
  std::vector<std::vector<double>> centers;
  centers.reserve(static_cast<size_t>(o.k));
  switch (o.pattern) {
    case PlacementPattern::kGrid: {
      // sqrt(K) x sqrt(K) grid with spacing kg on the first two
      // dimensions (extra dimensions stay 0).
      int side = static_cast<int>(std::ceil(std::sqrt(o.k)));
      for (int i = 0; i < o.k; ++i) {
        std::vector<double> c(o.dim, 0.0);
        c[0] = (i % side) * o.grid_spacing;
        if (o.dim > 1) c[1] = (i / side) * o.grid_spacing;
        centers.push_back(std::move(c));
      }
      break;
    }
    case PlacementPattern::kSine: {
      // Centers on y = A * sin(2*pi*nc * i / K), x marching uniformly;
      // amplitude scales with the x extent so the curve is visible.
      double x_step = o.grid_spacing;
      double amplitude = o.k * o.grid_spacing / 8.0;
      for (int i = 0; i < o.k; ++i) {
        std::vector<double> c(o.dim, 0.0);
        c[0] = i * x_step;
        double phase = 2.0 * std::numbers::pi * o.sine_cycles *
                       static_cast<double>(i) / static_cast<double>(o.k);
        if (o.dim > 1) c[1] = amplitude * std::sin(phase);
        centers.push_back(std::move(c));
      }
      break;
    }
    case PlacementPattern::kRandom: {
      double range = o.random_range > 0.0
                         ? o.random_range
                         : o.k * o.grid_spacing / 4.0;
      for (int i = 0; i < o.k; ++i) {
        std::vector<double> c(o.dim, 0.0);
        for (auto& v : c) v = rng->Uniform(0.0, range);
        centers.push_back(std::move(c));
      }
      break;
    }
  }
  return centers;
}

GeneratorOptions IllConditionedOptions(size_t dim, int k, double offset,
                                       uint64_t seed) {
  GeneratorOptions o;
  o.dim = dim;
  o.k = k;
  o.n_low = o.n_high = 500;
  o.r_low = o.r_high = 1.0;  // unit spread: tiny next to offset^2
  o.pattern = PlacementPattern::kGrid;
  o.grid_spacing = 16.0;  // well separated relative to the radius
  o.center_offset = offset;
  o.seed = seed;
  return o;
}

StatusOr<GeneratedData> Generate(const GeneratorOptions& o) {
  if (o.dim == 0) return Status::InvalidArgument("dim must be > 0");
  if (o.k <= 0) return Status::InvalidArgument("k must be > 0");
  if (o.n_low < 0 || o.n_high < o.n_low) {
    return Status::InvalidArgument("need 0 <= n_low <= n_high");
  }
  if (o.r_low < 0.0 || o.r_high < o.r_low) {
    return Status::InvalidArgument("need 0 <= r_low <= r_high");
  }
  if (o.noise_fraction < 0.0 || o.noise_fraction >= 1.0) {
    return Status::InvalidArgument("noise_fraction must be in [0,1)");
  }

  Rng rng(o.seed);
  GeneratedData out;
  out.data = Dataset(o.dim);

  std::vector<std::vector<double>> centers = PlaceCenters(o, &rng);
  if (o.center_offset != 0.0) {
    for (auto& c : centers) {
      for (auto& v : c) v += o.center_offset;
    }
  }

  // Per-cluster draws.
  out.actual.resize(static_cast<size_t>(o.k));
  size_t total_cluster_points = 0;
  for (int c = 0; c < o.k; ++c) {
    auto& a = out.actual[static_cast<size_t>(c)];
    a.center = centers[static_cast<size_t>(c)];
    a.points = static_cast<int>(rng.UniformInt(
        static_cast<int64_t>(o.n_low), static_cast<int64_t>(o.n_high)));
    a.radius_param = rng.Uniform(o.r_low, o.r_high);
    a.cf = CfVector(o.dim);
    total_cluster_points += static_cast<size_t>(a.points);
  }

  size_t noise_points = 0;
  if (o.noise_fraction > 0.0) {
    noise_points = static_cast<size_t>(
        o.noise_fraction / (1.0 - o.noise_fraction) *
        static_cast<double>(total_cluster_points));
  }
  out.data.Reserve(total_cluster_points + noise_points);
  out.truth.reserve(total_cluster_points + noise_points);

  // Bounding box of the centers (noise spreads over it, padded by 2x
  // the largest radius).
  std::vector<double> lo(o.dim, 0.0), hi(o.dim, 0.0);
  for (size_t t = 0; t < o.dim; ++t) {
    lo[t] = hi[t] = centers[0][t];
    for (const auto& c : centers) {
      lo[t] = std::min(lo[t], c[t]);
      hi[t] = std::max(hi[t], c[t]);
    }
    lo[t] -= 2.0 * o.r_high;
    hi[t] += 2.0 * o.r_high;
  }

  // Emit cluster points (ordered: cluster by cluster).
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(o.dim));
  std::vector<double> p(o.dim);
  for (int c = 0; c < o.k; ++c) {
    auto& a = out.actual[static_cast<size_t>(c)];
    double sigma = a.radius_param * inv_sqrt_d;
    for (int i = 0; i < a.points; ++i) {
      for (;;) {
        for (size_t t = 0; t < o.dim; ++t) {
          p[t] = rng.Gaussian(a.center[t], sigma);
        }
        if (o.max_distance_radii <= 0.0) break;
        double limit = o.max_distance_radii * a.radius_param;
        if (SquaredDistance(p, a.center) <= limit * limit) break;
      }
      out.data.Append(p);
      out.truth.push_back(c);
      a.cf.AddPoint(p);
    }
  }

  // Noise points, appended after the clusters.
  for (size_t i = 0; i < noise_points; ++i) {
    for (size_t t = 0; t < o.dim; ++t) p[t] = rng.Uniform(lo[t], hi[t]);
    out.data.Append(p);
    out.truth.push_back(-1);
  }

  if (o.order == InputOrder::kRandomized) {
    // Shuffle rows and truth together.
    std::vector<size_t> perm(out.data.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng.Shuffle(&perm);
    Dataset shuffled(o.dim);
    shuffled.Reserve(out.data.size());
    std::vector<int> truth_shuffled(out.truth.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      shuffled.Append(out.data.Row(perm[i]));
      truth_shuffled[i] = out.truth[perm[i]];
    }
    out.data = std::move(shuffled);
    out.truth = std::move(truth_shuffled);
  }
  return out;
}

}  // namespace birch
