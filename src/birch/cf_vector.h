// Clustering Feature (CF) vector — the paper's core summary structure
// (Sec. 4.1), with a runtime-selectable representation policy:
//
//   kClassic  the paper's triple (N, LS, SS): point count, linear sum,
//             and scalar sum of squared norms. Radius/diameter are
//             differences of large near-equal sums (Eq. 1-2) and
//             suffer catastrophic cancellation far from the origin;
//             a BETULA-style guard clamps the noise floor.
//   kBetula   the BETULA triple (N, mean, S) of Lang & Schubert 2020
//             (arxiv 2006.12881): the running mean and the sum of
//             squared deviations from it, maintained with Welford-
//             style point updates and Chan-style merges. Radius
//             (S/N), diameter (2S/(N-1)) and the D0-D4 distances are
//             sums of non-negative terms — no cancellation, ever.
//
// Both representations obey the CF Additivity Theorem (CF1 + CF2 = CF
// of the union), so the whole BIRCH pipeline works unchanged on
// either; they serialize to the same (N, vec[d], scalar) wire layout.
//
// Every component is stored as a double. N is a double too, so that
// weighted points (e.g. the paper's image application, which weights
// the two bands) are supported.
#ifndef BIRCH_BIRCH_CF_VECTOR_H_
#define BIRCH_BIRCH_CF_VECTOR_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace birch {

namespace kernel {
class CfBatch;
}  // namespace kernel

/// Which CF algebra a CfVector (and everything built from it: node
/// column blocks, tree pages, checkpoints) uses. A runtime policy, set
/// once per pipeline: the two variants never mix within one.
enum class CfRepresentation { kClassic = 0, kBetula };

/// Parse/format helper for CLI flags, bench labels and error text.
const char* CfRepresentationName(CfRepresentation rep);

/// Additive summary of a set of d-dimensional points.
class CfVector {
 public:
  CfVector() = default;

  /// Empty CF of dimension `dim` under the given representation.
  explicit CfVector(size_t dim,
                    CfRepresentation rep = CfRepresentation::kClassic)
      : vec_(dim, 0.0), rep_(rep) {}

  /// CF of a single (optionally weighted) point.
  static CfVector FromPoint(std::span<const double> x, double weight = 1.0,
                            CfRepresentation rep = CfRepresentation::kClassic);

  /// Re-initializes this CF to a single (optionally weighted) point,
  /// reusing the existing storage and keeping the representation: the
  /// allocation-free FromPoint, bitwise-identical result. Used on the
  /// per-point insert hot path.
  void AssignPoint(std::span<const double> x, double weight = 1.0);

  /// Dimensionality (0 for a default-constructed CF).
  size_t dim() const { return vec_.size(); }

  /// Number of points (total weight) summarized.
  double n() const { return n_; }

  CfRepresentation rep() const { return rep_; }

  /// Linear sum per dimension (classic representation only).
  std::span<const double> ls() const {
    assert(rep_ == CfRepresentation::kClassic);
    return vec_;
  }

  /// Scalar sum of squared norms sum_i ||x_i||^2 (classic only).
  double ss() const {
    assert(rep_ == CfRepresentation::kClassic);
    return scalar_;
  }

  /// Running mean per dimension (BETULA representation only).
  std::span<const double> mean() const {
    assert(rep_ == CfRepresentation::kBetula);
    return vec_;
  }

  /// Representation-neutral raw state, for serialization, column
  /// layouts and structural comparison. Meaning depends on rep():
  /// LS / SS for kClassic, mean / sum-of-squared-deviations for
  /// kBetula.
  std::span<const double> raw_vec() const { return vec_; }
  double raw_scalar() const { return scalar_; }

  bool empty() const { return n_ <= 0.0; }

  /// CF Additivity Theorem: accumulate another CF. An empty CF adopts
  /// the other's representation (so accumulators constructed
  /// default-classic merge correctly into either world).
  void Add(const CfVector& other);

  /// Accumulate a single weighted point.
  void AddPoint(std::span<const double> x, double weight = 1.0);

  /// Returns the union CF of two clusters.
  static CfVector Merged(const CfVector& a, const CfVector& b);

  /// Centroid X0 (LS/N classic, the mean itself for BETULA). Undefined
  /// for empty CFs (returns zeros).
  std::vector<double> Centroid() const;

  /// Writes the centroid into `out` (resized to dim()).
  void CentroidInto(std::vector<double>* out) const;

  /// Squared radius R^2 (Eq. 1): SS/N - ||LS/N||^2 classic (guarded
  /// against cancellation), S/N for BETULA (non-negative by
  /// construction).
  double SquaredRadius() const;

  /// Radius R: average distance from member points to the centroid.
  double Radius() const;

  /// Squared diameter D^2 (Eq. 2): 2(N*SS - ||LS||^2)/(N(N-1)) classic
  /// (guarded), 2S/(N-1) for BETULA. Zero when N <= 1.
  double SquaredDiameter() const;

  /// Diameter D: average pairwise distance within the cluster.
  double Diameter() const;

  /// Total squared deviation from the centroid: N * R^2. Classic
  /// computes SS - ||LS||^2/N (guarded); BETULA stores it directly.
  /// This is the cluster's contribution to the k-means SSE objective.
  double SumSquaredDeviation() const;

  // --- Serialization: (N, vec[0..d), scalar), i.e. dim()+2 doubles.
  // The same wire layout for both representations; the reader must
  // know the representation (it is part of every persistent
  // fingerprint: TreeImage, BIRCHCP1 header). ---

  /// Number of doubles in the serialized form for dimension `dim`.
  static size_t SerializedDoubles(size_t dim) { return dim + 2; }

  /// Appends the serialized form to `out`.
  void SerializeTo(std::vector<double>* out) const;

  /// Reads a CF of dimension `dim` from `in` (must have dim+2
  /// doubles) under the given representation.
  static CfVector Deserialize(std::span<const double> in, size_t dim,
                              CfRepresentation rep = CfRepresentation::kClassic);

  bool operator==(const CfVector& other) const = default;

 private:
  /// Node column blocks store, load and add to rows of raw state
  /// directly.
  friend class kernel::CfBatch;

  // Raw-state forms of Add() and SumSquaredDeviation(), shared with the
  // column blocks: the state is (*n, *scalar) and other.dim() (or `dim`)
  // vector components `stride` doubles apart, and `rep` is its
  // representation.

  /// The CF addition: adds `other` into the state.
  static void AddInto(CfRepresentation rep, const CfVector& other,
                      double* n, double* vec, size_t stride, double* scalar);

  /// The total squared deviation of the state.
  static double SumSquaredDeviationOf(CfRepresentation rep, double n,
                                      const double* vec, size_t dim,
                                      size_t stride, double scalar);

  double n_ = 0.0;
  /// LS (classic) or the running mean (BETULA).
  std::vector<double> vec_;
  /// SS (classic) or the sum of squared deviations S (BETULA).
  double scalar_ = 0.0;
  CfRepresentation rep_ = CfRepresentation::kClassic;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_CF_VECTOR_H_
