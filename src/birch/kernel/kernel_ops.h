// Internal dispatch table for the kernel's column-accumulate
// primitives. Kept deliberately free of other birch headers: the AVX2
// translation unit (kernel_avx2.cc) is compiled with -mavx2, and any
// inline function it pulled in from a shared header could be emitted
// with AVX2 encodings and then win at link time over the SSE2 copy —
// an ISA-mixing bug. Only this header crosses that boundary.
#ifndef BIRCH_BIRCH_KERNEL_KERNEL_OPS_H_
#define BIRCH_BIRCH_KERNEL_KERNEL_OPS_H_

#include <cstddef>

namespace birch {
namespace kernel {
namespace detail {

/// Whole-scan primitives: one call folds ALL dims of a dimension-major
/// block (`cols[k * stride + j]`, k in [0, dims), j in [0, m)) for every
/// entry. One indirect call per scan keeps dispatch cost off the
/// per-dimension path (a node scan at dim=64 would otherwise pay 64
/// indirect calls over tiny columns). A CF scan computes one key per
/// candidate — the value under the metric's final sqrt — and takes the
/// sqrt itself only for a key that beats the running best (kernel.cc).
/// The accumulators (sq_diff, abs_diff, merged_norm) run dims-outer,
/// entries-inner, `acc[j] op= f(q[k], cols[k * stride + j])`, into an
/// array the caller zero-fills. The portable and AVX2 implementations
/// are element-wise bitwise identical (the AVX2 code uses separate mul
/// and add, never FMA, and fabs via sign-bit masking).
struct Ops {
  /// acc[j] += sum_k (q[k] - cols[k*stride+j])^2
  void (*sq_diff)(double* acc, const double* cols, size_t stride,
                  const double* q, size_t dims, size_t m);
  /// acc[j] += sum_k |q[k] - cols[k*stride+j]|
  void (*abs_diff)(double* acc, const double* cols, size_t stride,
                   const double* q, size_t dims, size_t m);
  /// t = q[k] + cols[k*stride+j]; acc[j] += sum_k t * t
  void (*merged_norm)(double* acc, const double* cols, size_t stride,
                      const double* q, size_t dims, size_t m);
  /// The classic D2 key of every candidate in one fused pass. Per
  /// candidate the cross term c = 0, then c += q[k] * cols[k*stride+j]
  /// over k in order, stays in a register across the dimensions; then
  ///   d2 = qmsq + msq[j] - 2*c / (qn*n[j])
  ///   key[j] = d2 > 0 ? d2 : 0
  /// — AverageInterCluster's operations in its order, without the sqrt.
  /// `key` is written, never read: no zero-filled array.
  void (*d2_keys)(double* key, const double* cols, size_t stride,
                  const double* q, size_t dims, size_t m, const double* n,
                  const double* msq, double qn, double qmsq);
  /// Fused point->center argmin for a tile of n <= kTileRows row-major
  /// points (`rows[r * dims + k]`) against m dimension-major centers.
  /// Per pair, s = 0 then s += d * d over k in order, d = point - center
  /// (the SquaredDistance loop, separate mul and add); per point, the
  /// first center with the smallest s under strict `<` from +inf.
  /// Writes index[r] and dist[r]; index[r] = SIZE_MAX with dist[r] =
  /// +inf when no s compares below +inf. No distance array is written.
  void (*nearest_sq)(const double* rows, size_t n, const double* cols,
                     size_t stride, size_t dims, size_t m, size_t* index,
                     double* dist);
};

/// Points per nearest_sq call: four accumulators, four running minima
/// and four running indices fit the sixteen AVX2 registers.
constexpr size_t kTileRows = 4;

/// The active implementation: AVX2 when compiled in (BIRCH_KERNEL_AVX2)
/// and supported by this CPU, portable otherwise. Resolved once.
const Ops& GetOps();

extern const Ops kPortableOps;
#if defined(BIRCH_KERNEL_AVX2)
extern const Ops kAvx2Ops;  // defined in kernel_avx2.cc
#endif

}  // namespace detail
}  // namespace kernel
}  // namespace birch

#endif  // BIRCH_BIRCH_KERNEL_KERNEL_OPS_H_
