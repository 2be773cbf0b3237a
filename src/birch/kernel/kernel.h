// Batched column distance kernels — the hot inner loops of every phase.
//
// Phase 1's cost is dominated by per-entry distance computations down
// the CF tree; Phase 3 runs O(m^2) pairwise CF distances; Phase 4 is a
// point->centroid argmin over the raw data. All three reduce to the
// same shape: queries against a batch of candidates. This layer
// keeps the candidates in dimension-major columns (per-row N, scalar,
// vector components and the derived terms a metric reads, each
// contiguous) so the scan is a flat auto-vectorizable loop with no
// per-entry pointer chasing — and, when built with BIRCH_KERNEL_AVX2 on
// an AVX2 machine, an explicit 4-wide SIMD pass. A CF-tree node stores
// its entries in exactly this block (cf_node.h), so a descent scans the
// node's own storage. A CF scan (CfBatch) is one call per node that
// returns the winner: one pass computes a key per candidate — the value
// under the metric's final sqrt (for D1, which takes none, the distance
// itself) — and the argmin takes sqrt only for a key below the running
// best. A point->centroid scan reads the centroid column of the same
// block — the CFs the centers are centroids of — and fuses the
// distance and the argmin too, up to four points at a time.
//
// Equivalence contract: tree descent, the absorb test, the Phase-3
// sweeps and Phase-4 / serving assignment run only these scans, and for
// every metric they perform the SAME floating-point operations in the
// SAME order per candidate as the per-CF formulas in metrics.cc /
// cf_vector.cc (the AVX2 pass uses separate mul+add, never FMA). Every argmin is first-wins strict
// `<` from +inf over the distances those formulas give, so a scan and
// a loop over them agree bitwise — same winners, same distances. The
// CF argmin takes sqrt only where it can matter: sqrt is monotone, so
// a key at or above the best key cannot win and skips its sqrt, and a
// smaller key wins only if its sqrt is smaller. Two keys one ulp apart
// can share a sqrt; the earlier candidate keeps the win there, as in
// the loop, where an argmin over the raw keys would pick the later. An
// argmin with no candidate below +inf returns index SIZE_MAX. The
// per-entry argmin loops are kept as test code: tests/kernel_test.cc
// (with tests/cf_batch_cases.h and tests/center_batch_cases.h) holds
// every scan to them across metrics D0-D4, the merged diameter and
// radius, both CF representations, and dims.
#ifndef BIRCH_BIRCH_KERNEL_KERNEL_H_
#define BIRCH_BIRCH_KERNEL_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/metrics.h"

namespace birch {

/// Has no effect: the column scans below are the only distance
/// implementation. Kept, with its one value, only as the type of the
/// option fields the end-to-end benchmark still assigns.
enum class KernelKind { kBatch = 1 };

namespace kernel {

/// Query-side precomputations, built once per scan (or once per tree
/// descent) instead of once per candidate: centroid, SS/N, and the
/// total squared deviation. `cf` must outlive the query.
struct CfQuery {
  const CfVector* cf = nullptr;
  double n = 0.0;
  double ss = 0.0;       // SS (classic) or S (BETULA)
  double mean_sq = 0.0;  // SS/N (classic) or S/N (BETULA)
  double ssd = 0.0;      // SS - ||LS||^2/N (guarded), classic D4 only
  /// Centroid components. Classic: points into the workspace passed to
  /// Prepare, only filled for metrics that read it (D0/D1). BETULA:
  /// points straight at the CF's stored mean, filled for all metrics.
  const double* centroid = nullptr;

  /// Fills the derived fields `metric`'s scan reads; `centroid_buf`
  /// backs `centroid`.
  void Prepare(const CfVector& q, DistanceMetric metric,
               std::vector<double>* centroid_buf);
};

/// Result of an argmin scan. index == SIZE_MAX when no candidate was
/// eligible.
struct ScanResult {
  size_t index = static_cast<size_t>(-1);
  double distance = 0.0;
};

/// One dimension-major column block over a set of CF rows: the storage
/// of a CF-tree node (cf_node.h), of a serving snapshot's node copies,
/// and of the centers every point->centroid scan reads (Phase-3
/// k-means, Phase 4, the sharded splitter): the only column block. A row
/// holds N, the CF vector (LS classic, mean BETULA) and the scalar (SS
/// classic, S BETULA). The per-row terms a scan reads besides those —
/// S/N for every metric, the centroid LS/N for classic D0/D1, the SSD
/// for classic D4 — are columns too, refreshed by the same store that
/// writes the row. Columns have a fixed stride (the capacity), so
/// stores and appends never reshuffle; all of them share one
/// allocation, and the header is kept small because every tree node
/// carries one.
class CfBatch {
 public:
  /// Which derived columns to keep besides N, scalar, S/N and vector.
  struct Needs {
    bool centroid = false;  // classic D0/D1: LS/N per dimension
    bool ssd = false;       // classic D4: SS - ||LS||^2/N
    /// Everything the given metric's scan reads under `rep`.
    static Needs For(DistanceMetric metric,
                     CfRepresentation rep = CfRepresentation::kClassic);
  };

  CfBatch() = default;

  /// Sets dimensionality, capacity (stride) and the derived columns to
  /// keep. Discards previous contents.
  void Init(size_t dim, size_t capacity, Needs needs);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t dim() const { return dim_; }
  bool empty() const { return size_ == 0; }
  /// Doubles the block allocates: capacity() rows of every column.
  size_t block_doubles() const { return ColumnCount() * capacity_; }

  /// Replaces the rows with `entries` (which must fit the capacity).
  void Assign(std::span<const CfVector> entries);

  /// Appends one row (size() must be below capacity()).
  void Append(const CfVector& entry);

  /// Stores `entry` into row `i` and refreshes its derived columns.
  void Update(size_t i, const CfVector& entry);

  /// Adds `cf` into row `i` in place (the CF Additivity Theorem) under
  /// `cf`'s representation, which every row of a block shares: bitwise
  /// equal, in every column, to Load() into a CF of that
  /// representation, CfVector::Add(cf), then Update().
  void Add(size_t i, const CfVector& cf);

  /// Loads row `i` into `out`, which keeps its representation: the
  /// exact stored values, no allocation once `out` has this block's
  /// dimension.
  void Load(size_t i, CfVector* out) const;

  /// Removes row `i`; later rows move down by one.
  void Erase(size_t i);

  /// Removes every row.
  void Clear() { size_ = 0; }

  /// Nearest row centroid to each of the `n` row-major points in `rows`
  /// (n * dim() values). The centroids are the centroid column when the
  /// block keeps it (classic rows, Init with Needs::For(kD0)), else the
  /// vector column, which holds BETULA rows' means; either way a
  /// non-empty row's centroid is bitwise its CF's CfVector::Centroid().
  /// out[r] holds the index of the row with the smallest SQUARED
  /// Euclidean distance to point r and that distance, bitwise equal to
  /// a SquaredDistance loop over the centroids with first-wins strict
  /// `<` from +inf. One fused pass per tile of four points: each sum
  /// stays in a register, each column is loaded once per tile, and no
  /// distance array is written. When no row compares below +inf (a NaN
  /// coordinate, or sums that overflow) out[r] is {SIZE_MAX, +inf};
  /// callers that must pick a row take row 0.
  void NearestCentroidSqRows(std::span<const double> rows, size_t n,
                             ScanResult* out) const;

  /// NearestCentroidSqRows for one point.
  ScanResult NearestCentroidSq(std::span<const double> point) const {
    ScanResult r;
    NearestCentroidSqRows(point, 1, &r);
    return r;
  }

  // Raw columns (used by the scan loops and tests). Component k of row
  // i sits at [k * capacity() + i].
  const double* n() const { return column(0); }
  const double* ss() const { return column(1); }  // SS classic, S BETULA
  const double* mean_sq() const { return column(2); }
  const double* vec() const { return column(3); }  // LS classic, mean BETULA
  const double* centroid() const { return column(CentroidColumn()); }
  const double* ssd() const { return column(SsdColumn()); }

 private:
  // Column layout of block_, in units of capacity_ doubles: N, scalar,
  // scalar/N, the dim vector columns, then the optional derived ones.
  size_t CentroidColumn() const { return 3 + dim_; }
  size_t SsdColumn() const {
    return CentroidColumn() + (needs_.centroid ? dim_ : 0);
  }
  size_t ColumnCount() const { return SsdColumn() + (needs_.ssd ? 1 : 0); }
  const double* column(size_t c) const {
    return block_.get() + c * capacity_;
  }
  double* column(size_t c) { return block_.get() + c * capacity_; }

  /// Recomputes row `i`'s derived columns (S/N, and the centroid and
  /// SSD when kept) from its stored N, scalar and vector; `rep` is the
  /// row's representation. Update() and Add() both end here.
  void RefreshDerived(size_t i, CfRepresentation rep);

  uint32_t dim_ = 0;
  uint32_t capacity_ = 0;
  uint32_t size_ = 0;
  Needs needs_;
  std::unique_ptr<double[]> block_;
};

/// Reusable CfBatch scan workspace (key / distance array + query
/// centroid buffer); one per tree / per worker thread, so scans never
/// allocate once it has grown to the largest block.
struct Workspace {
  std::vector<double> dist;
  std::vector<double> query_centroid;
};

/// Computes Distance(metric, query, batch[i]) for every i in
/// [0, batch.size()) into ws->dist (resized), bitwise-equal to
/// Distance(): the scan's keys, then one sqrt pass (none for D1). The
/// per-candidate view of NearestEntry()'s scan, which the tests hold to
/// Distance().
void FillDistances(const CfBatch& batch, const CfQuery& query,
                   DistanceMetric metric, Workspace* ws);

/// One-pass batch scan: nearest entry of `batch` to `query` under
/// `metric`, and its distance. `active` (nullable) masks candidates;
/// `exclude` (or SIZE_MAX) skips one index. First-wins on ties, exactly
/// like a loop over Distance(). Writes the keys into ws->dist (grown, never
/// shrunk: its size is not the batch's).
ScanResult NearestEntry(const CfBatch& batch, const CfQuery& query,
                        DistanceMetric metric, Workspace* ws,
                        const uint8_t* active = nullptr,
                        size_t exclude = static_cast<size_t>(-1));

namespace detail {

/// NearestEntry()'s argmin step over precomputed keys: candidate j's
/// distance is sqrt(key[j]) when `root`, key[j] otherwise, and the
/// winner is the first candidate with the smallest distance under
/// strict `<` from +inf, as in a loop over Distance(). sqrt is taken only for
/// a key below the best key so far. `active` and `exclude` as in
/// NearestEntry().
ScanResult NearestKey(const double* key, size_t m, bool root,
                      const uint8_t* active, size_t exclude);

}  // namespace detail

/// Diameter / radius the merge of `a` and `b` would have, computed
/// without materializing the merged CF (no allocation). Bitwise-equal
/// to CfVector::Merged(a, b).Diameter() / .Radius().
double MergedDiameter(const CfVector& a, const CfVector& b);
double MergedRadius(const CfVector& a, const CfVector& b);

/// True when this build carries the AVX2 specialization AND the CPU
/// supports it (runtime dispatch; bench labels / tests read this).
bool Avx2Active();

}  // namespace kernel
}  // namespace birch

#endif  // BIRCH_BIRCH_KERNEL_KERNEL_H_
