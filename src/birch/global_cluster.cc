#include "birch/global_cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"
#include "util/random.h"

namespace birch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kKMeansMaxIterations = 100;  // Lloyd rounds cap (kKMeans)

/// Agglomerative HC over CFs with a cached-nearest-neighbour merge loop
/// (O(m^2) typical). Stops at k clusters, or when the cheapest merge
/// exceeds distance_limit (k == 0).
GlobalClustering HierarchicalCluster(std::span<const CfVector> entries,
                                     const GlobalClusterOptions& options,
                                     int k) {
  const size_t m = entries.size();
  std::vector<CfVector> cfs(entries.begin(), entries.end());
  std::vector<std::vector<int>> members(m);
  for (size_t i = 0; i < m; ++i) members[i] = {static_cast<int>(i)};

  // Nearest active neighbour per active cluster, by a masked one-pass
  // scan over a column block of `cfs` (updated after each merge);
  // `active` is the scan's mask.
  kernel::CfBatch batch;
  batch.Init(cfs[0].dim(), m,
             kernel::CfBatch::Needs::For(options.metric, cfs[0].rep()));
  batch.Assign(cfs);
  std::vector<uint8_t> active(m, 1);
  std::vector<size_t> nn(m, 0);
  std::vector<double> nn_dist(m, kInf);
  auto recompute_nn = [&](size_t i, kernel::Workspace* ws) {
    kernel::CfQuery query;
    query.Prepare(cfs[i], options.metric, &ws->query_centroid);
    kernel::ScanResult r = kernel::NearestEntry(
        batch, query, options.metric, ws, active.data(), /*exclude=*/i);
    nn_dist[i] = r.distance;
    if (r.index != static_cast<size_t>(-1)) nn[i] = r.index;
  };
  // Each slot only writes its own nn/nn_dist entry, so the initial
  // O(m^2) scan parallelizes without synchronization.
  exec::ParallelFor(
      options.pool, m,
      [&](size_t begin, size_t end, size_t) {
        kernel::Workspace ws;
        for (size_t i = begin; i < end; ++i) recompute_nn(i, &ws);
      },
      /*min_per_chunk=*/32);
  kernel::Workspace main_ws;

  size_t live = m;
  while (live > static_cast<size_t>(k)) {
    // Cheapest pending merge.
    size_t a = static_cast<size_t>(-1);
    double best = kInf;
    for (size_t i = 0; i < m; ++i) {
      if (active[i] && nn_dist[i] < best) {
        best = nn_dist[i];
        a = i;
      }
    }
    if (a == static_cast<size_t>(-1)) break;  // everything merged
    if (k == 0 && options.distance_limit > 0.0 &&
        best > options.distance_limit) {
      break;
    }
    size_t b = nn[a];
    // Merge b into a.
    cfs[a].Add(cfs[b]);
    active[b] = 0;
    batch.Update(a, cfs[a]);
    members[a].insert(members[a].end(), members[b].begin(),
                      members[b].end());
    members[b].clear();
    --live;
    if (live <= 1) break;
    // Refresh neighbours: a changed, b vanished. Slot j only touches
    // its own cached neighbour, so the refresh sweep parallelizes too.
    recompute_nn(a, &main_ws);
    exec::ParallelFor(
        options.pool, m,
        [&](size_t begin, size_t end, size_t) {
          kernel::Workspace ws;
          for (size_t j = begin; j < end; ++j) {
            if (!active[j] || j == a) continue;
            if (nn[j] == b || nn[j] == a) {
              recompute_nn(j, &ws);
            } else {
              double d = Distance(options.metric, cfs[j], cfs[a]);
              if (d < nn_dist[j]) {
                nn_dist[j] = d;
                nn[j] = a;
              }
            }
          }
        },
        /*min_per_chunk=*/256);
  }

  GlobalClustering result;
  result.assignment.assign(m, -1);
  for (size_t i = 0; i < m; ++i) {
    if (!active[i]) continue;
    int cluster_id = static_cast<int>(result.clusters.size());
    result.clusters.push_back(cfs[i]);
    for (int orig : members[i]) result.assignment[orig] = cluster_id;
  }
  return result;
}

/// Component t of a non-empty CF's centroid, bitwise
/// CfVector::Centroid()[t]: LS/N classic, the stored mean BETULA.
double CentroidAt(const CfVector& cf, size_t t) {
  const double v = cf.raw_vec()[t];
  return cf.rep() == CfRepresentation::kBetula ? v : v / cf.n();
}

/// Squared Euclidean distance between two non-empty CFs' centroids.
double CentroidSqDist(const CfVector& a, const CfVector& b) {
  double s = 0.0;
  for (size_t t = 0; t < a.dim(); ++t) {
    double d = CentroidAt(a, t) - CentroidAt(b, t);
    s += d * d;
  }
  return s;
}

/// Weighted k-means++ seeding over CF centroids (weights = N): returns
/// the k seed entries, whose centroids are the initial centers.
std::vector<CfVector> KMeansPlusPlusSeeds(std::span<const CfVector> entries,
                                          int k, Rng* rng) {
  const size_t m = entries.size();
  std::vector<CfVector> seeds;
  seeds.reserve(static_cast<size_t>(k));

  // First seed: weight-proportional draw.
  double total_w = 0.0;
  for (const auto& e : entries) total_w += e.n();
  double r = rng->NextDouble() * total_w;
  size_t first = 0;
  for (size_t i = 0; i < m; ++i) {
    r -= entries[i].n();
    if (r <= 0.0) {
      first = i;
      break;
    }
  }
  seeds.push_back(entries[first]);

  std::vector<double> d2(m, kInf);
  while (seeds.size() < static_cast<size_t>(k)) {
    const auto& latest = seeds.back();
    double sum = 0.0;
    for (size_t i = 0; i < m; ++i) {
      d2[i] = std::min(d2[i], CentroidSqDist(entries[i], latest));
      sum += entries[i].n() * d2[i];
    }
    if (sum <= 0.0) {
      // All mass sits on existing seeds; duplicate any centroid.
      seeds.push_back(entries[rng->UniformInt(m)]);
      continue;
    }
    double pick = rng->NextDouble() * sum;
    size_t chosen = m - 1;
    for (size_t i = 0; i < m; ++i) {
      pick -= entries[i].n() * d2[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    seeds.push_back(entries[chosen]);
  }
  return seeds;
}

GlobalClustering KMeansCluster(std::span<const CfVector> entries,
                               const GlobalClusterOptions& options, int k) {
  const size_t m = entries.size();
  const size_t dim = entries[0].dim();
  Rng rng(options.seed);
  // Each center is a CF; the scans read its centroid.
  std::vector<CfVector> centers = KMeansPlusPlusSeeds(entries, k, &rng);

  std::vector<int> assign(m, -1);
  const size_t num_chunks = exec::ParallelForNumChunks(options.pool, m,
                                                       /*min_per_chunk=*/64);
  kernel::CfBatch cbatch;
  cbatch.Init(dim, centers.size(),
              kernel::CfBatch::Needs::For(DistanceMetric::kD0,
                                          entries[0].rep()));
  std::vector<CfVector> sums;
  for (int iter = 0; iter < kKMeansMaxIterations; ++iter) {
    // Assignment sweep: each point is independent; chunks report
    // whether they changed any label. The scan's per-dimension
    // arithmetic and first-wins argmin order match CentroidSqDist.
    cbatch.Assign(centers);
    std::vector<uint8_t> chunk_changed(num_chunks, 0);
    exec::ParallelFor(
        options.pool, m,
        [&](size_t begin, size_t end, size_t chunk) {
          bool local_changed = false;
          std::vector<double> centroid(dim);
          for (size_t i = begin; i < end; ++i) {
            // Bitwise identical to CentroidSqDist's centroid for either
            // representation.
            entries[i].CentroidInto(&centroid);
            kernel::ScanResult r = cbatch.NearestCentroidSq(centroid);
            const int best =
                r.index == static_cast<size_t>(-1) ? 0
                                                   : static_cast<int>(r.index);
            if (assign[i] != best) {
              assign[i] = best;
              local_changed = true;
            }
          }
          if (local_changed) chunk_changed[chunk] = 1;
        },
        /*min_per_chunk=*/64);
    bool changed =
        std::any_of(chunk_changed.begin(), chunk_changed.end(),
                    [](uint8_t c) { return c != 0; });
    if (!changed && iter > 0) break;

    // Weighted centroid update, folded in entry order at every pool
    // size: O(m) against the sweep's O(m k d), and the serial
    // arithmetic, so a pool changes no bit of the result.
    sums.assign(static_cast<size_t>(k), CfVector(dim));
    for (size_t i = 0; i < m; ++i) {
      sums[static_cast<size_t>(assign[i])].Add(entries[i]);
    }
    for (int c = 0; c < k; ++c) {
      if (sums[static_cast<size_t>(c)].empty()) {
        // Re-seed an empty cluster at the entry farthest from its
        // current center.
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < m; ++i) {
          double d = CentroidSqDist(
              entries[i], centers[static_cast<size_t>(assign[i])]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        centers[static_cast<size_t>(c)] = entries[far];
        continue;
      }
      centers[static_cast<size_t>(c)] = sums[static_cast<size_t>(c)];
    }
  }

  // The loop ends after a sweep that changed no label or after its
  // last update, so `sums` holds the CFs of the final assignment.
  GlobalClustering result;
  result.assignment = std::move(assign);
  // Drop empty clusters (possible when k-means leaves one starved).
  std::vector<int> remap(static_cast<size_t>(k), -1);
  std::vector<CfVector> kept;
  for (int c = 0; c < k; ++c) {
    if (!sums[static_cast<size_t>(c)].empty()) {
      remap[static_cast<size_t>(c)] = static_cast<int>(kept.size());
      kept.push_back(std::move(sums[static_cast<size_t>(c)]));
    }
  }
  for (auto& a : result.assignment) a = remap[static_cast<size_t>(a)];
  result.clusters = std::move(kept);
  return result;
}

/// Phase 3's medoid search: CLARANS over the entry centroids, each
/// weighted by its N, so a heavy subcluster pulls medoids the way its
/// raw points would.
GlobalClustering MedoidsCluster(std::span<const CfVector> entries,
                                const GlobalClusterOptions& options, int k) {
  const size_t m = entries.size();
  const size_t dim = entries[0].dim();
  const size_t uk = static_cast<size_t>(k);
  GlobalClustering result;
  if (uk >= m) {
    // Every entry is its own medoid; nothing to search.
    result.assignment.resize(m);
    for (size_t i = 0; i < m; ++i) {
      result.assignment[i] = static_cast<int>(i);
      result.clusters.push_back(entries[i]);
    }
    return result;
  }

  std::vector<double> rows;
  rows.reserve(m * dim);
  std::vector<double> weights(m);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<double> c = entries[i].Centroid();
    rows.insert(rows.end(), c.begin(), c.end());
    weights[i] = entries[i].n();
  }
  MedoidSearchOptions search;
  search.k = uk;
  search.seed = options.seed;
  result.assignment = ClaransSearch(rows, dim, weights, search).labels;
  result.clusters.assign(uk, CfVector(dim));
  for (size_t i = 0; i < m; ++i) {
    result.clusters[static_cast<size_t>(result.assignment[i])].Add(
        entries[i]);
  }
  return result;
}

}  // namespace

MedoidSearchResult ClaransSearch(std::span<const double> rows, size_t dim,
                                 std::span<const double> weights,
                                 const MedoidSearchOptions& options) {
  const size_t n = weights.size();
  const size_t k = options.k;
  auto dist = [&](size_t a, size_t b) {
    return Distance(rows.subspan(a * dim, dim), rows.subspan(b * dim, dim));
  };
  int64_t maxneighbor = options.maxneighbor;
  if (maxneighbor <= 0) {
    maxneighbor = std::max<int64_t>(
        static_cast<int64_t>(0.0125 * static_cast<double>(k) *
                             static_cast<double>(n - k)),
        250);
  }

  Rng rng(options.seed);
  MedoidSearchResult best;
  best.cost = kInf;
  // Per row: its nearest medoid slot and the distances to the nearest
  // and the runner-up medoid.
  std::vector<int> nearest(n);
  std::vector<double> d1(n);
  std::vector<double> d2(n);
  for (int local = 0; local < options.numlocal; ++local) {
    // Random distinct initial medoid set.
    std::vector<size_t> medoids;
    std::vector<bool> is_medoid(n, false);
    while (medoids.size() < k) {
      const size_t x = rng.UniformInt(n);
      if (!is_medoid[x]) {
        is_medoid[x] = true;
        medoids.push_back(x);
      }
    }
    double cost = 0.0;
    auto recompute = [&] {
      cost = 0.0;
      for (size_t i = 0; i < n; ++i) {
        nearest[i] = -1;
        d1[i] = d2[i] = kInf;
        for (size_t s = 0; s < k; ++s) {
          const double d = dist(i, medoids[s]);
          if (d < d1[i]) {
            d2[i] = d1[i];
            d1[i] = d;
            nearest[i] = static_cast<int>(s);
          } else if (d < d2[i]) {
            d2[i] = d;
          }
        }
        cost += weights[i] * d1[i];
      }
    };
    recompute();

    int64_t tried = 0;
    while (tried < maxneighbor) {
      // Random neighbour: swap a random medoid slot with a random
      // non-medoid row.
      const int slot = static_cast<int>(rng.UniformInt(k));
      const size_t x = rng.UniformInt(n);
      if (is_medoid[x]) continue;  // not a neighbour; redraw
      ++tried;
      ++best.neighbors_evaluated;
      double delta = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double dxi = dist(i, x);
        if (nearest[i] == slot) {
          // Row i loses its medoid: it goes to x or its runner-up.
          delta += weights[i] * (std::min(dxi, d2[i]) - d1[i]);
        } else if (dxi < d1[i]) {
          // x undercuts the current nearest.
          delta += weights[i] * (dxi - d1[i]);
        }
      }
      if (delta < -1e-12) {
        const size_t s = static_cast<size_t>(slot);
        is_medoid[medoids[s]] = false;
        medoids[s] = x;
        is_medoid[x] = true;
        recompute();
        ++best.swaps_accepted;
        tried = 0;  // restart the neighbour count from the new set
      }
    }
    if (cost < best.cost) {
      best.cost = cost;
      best.medoids = medoids;
      best.labels = nearest;
    }
  }
  return best;
}

StatusOr<GlobalClustering> GlobalCluster(
    std::span<const CfVector> entries, const GlobalClusterOptions& options) {
  TRACE_SPAN("phase3/global");
  OBS_COUNTER_ADD("phase3/input_entries", entries.size());
  if (entries.empty()) {
    return Status::InvalidArgument("no subclusters to cluster");
  }
  if (options.k < 0) {
    return Status::InvalidArgument("k must be >= 0");
  }
  if (options.k == 0 &&
      (options.algorithm != GlobalAlgorithm::kHierarchical ||
       options.distance_limit <= 0.0)) {
    return Status::InvalidArgument(
        "k == 0 requires hierarchical clustering with a distance_limit");
  }
  // More clusters requested than inputs: every input is its own cluster.
  int k = std::min<int>(options.k, static_cast<int>(entries.size()));

  if (options.algorithm == GlobalAlgorithm::kHierarchical) {
    if (entries.size() > options.max_hierarchical_inputs) {
      return Status::InvalidArgument(
          "hierarchical input too large (" +
          std::to_string(entries.size()) +
          " entries); condense with Phase 2 first");
    }
    return HierarchicalCluster(entries, options, k);
  }
  if (options.algorithm == GlobalAlgorithm::kMedoids) {
    return MedoidsCluster(entries, options, k);
  }
  return KMeansCluster(entries, options, k);
}

}  // namespace birch
