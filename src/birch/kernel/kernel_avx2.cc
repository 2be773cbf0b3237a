// AVX2 specialization of the column-accumulate primitives. This is the
// only translation unit compiled with -mavx2; it includes nothing but
// kernel_ops.h and <immintrin.h> so no shared inline function can be
// emitted here with AVX2 encodings (see kernel_ops.h).
//
// Equivalence: every lane performs the same operation sequence as the
// portable loop — separate mul and add (no FMA), fabs as a sign-bit
// mask — so results are bitwise identical element by element. The
// templates below sit in an anonymous namespace, so no AVX2-encoded
// instantiation can be shared with another translation unit.
#include "birch/kernel/kernel_ops.h"

#if defined(BIRCH_KERNEL_AVX2)

#include <immintrin.h>

namespace birch {
namespace kernel {
namespace detail {

namespace {

void SqDiffAvx2(double* acc, const double* cols, size_t stride,
                const double* q, size_t dims, size_t m) {
  for (size_t k = 0; k < dims; ++k) {
    const double qk = q[k];
    const double* col = cols + k * stride;
    const __m256d qv = _mm256_set1_pd(qk);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d d = _mm256_sub_pd(qv, _mm256_loadu_pd(col + j));
      __m256d a = _mm256_loadu_pd(acc + j);
      a = _mm256_add_pd(a, _mm256_mul_pd(d, d));
      _mm256_storeu_pd(acc + j, a);
    }
    for (; j < m; ++j) {
      double d = qk - col[j];
      acc[j] += d * d;
    }
  }
}

void AbsDiffAvx2(double* acc, const double* cols, size_t stride,
                 const double* q, size_t dims, size_t m) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (size_t k = 0; k < dims; ++k) {
    const double qk = q[k];
    const double* col = cols + k * stride;
    const __m256d qv = _mm256_set1_pd(qk);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d d = _mm256_sub_pd(qv, _mm256_loadu_pd(col + j));
      d = _mm256_andnot_pd(sign, d);
      __m256d a = _mm256_loadu_pd(acc + j);
      _mm256_storeu_pd(acc + j, _mm256_add_pd(a, d));
    }
    for (; j < m; ++j) {
      double d = qk - col[j];
      acc[j] += d < 0.0 ? -d : d;
    }
  }
}

void MergedNormAvx2(double* acc, const double* cols, size_t stride,
                    const double* q, size_t dims, size_t m) {
  for (size_t k = 0; k < dims; ++k) {
    const double qk = q[k];
    const double* col = cols + k * stride;
    const __m256d qv = _mm256_set1_pd(qk);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d t = _mm256_add_pd(qv, _mm256_loadu_pd(col + j));
      __m256d a = _mm256_loadu_pd(acc + j);
      a = _mm256_add_pd(a, _mm256_mul_pd(t, t));
      _mm256_storeu_pd(acc + j, a);
    }
    for (; j < m; ++j) {
      double t = qk + col[j];
      acc[j] += t * t;
    }
  }
}

// Loads four doubles at p; a tail group loads only its live lanes and
// never touches the others, which may lie past the block.
template <bool kTail>
__m256d LoadGroup(const double* p, __m256i live) {
  if constexpr (kTail) {
    return _mm256_maskload_pd(p, live);
  } else {
    return _mm256_loadu_pd(p);
  }
}

// Classic D2 keys of candidates j .. j + 3, the cross term held in one
// register across the dimensions. kTail: only the lanes set in `live`
// are loaded and stored.
template <bool kTail>
void D2KeyGroupAvx2(double* key, const double* cols, size_t stride,
                    const double* q, size_t dims, size_t j, const double* n,
                    const double* msq, __m256d qnv, __m256d qmsqv,
                    __m256i live) {
  __m256d cross = _mm256_setzero_pd();
  for (size_t k = 0; k < dims; ++k) {
    const __m256d c = LoadGroup<kTail>(cols + k * stride + j, live);
    cross = _mm256_add_pd(cross, _mm256_mul_pd(_mm256_set1_pd(q[k]), c));
  }
  const __m256d denom = _mm256_mul_pd(qnv, LoadGroup<kTail>(n + j, live));
  const __m256d term =
      _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), cross), denom);
  __m256d d2 =
      _mm256_sub_pd(_mm256_add_pd(qmsqv, LoadGroup<kTail>(msq + j, live)),
                    term);
  // ClampNonNegative: d2 > 0 ? d2 : 0 (NaN compares false -> 0).
  d2 = _mm256_and_pd(d2, _mm256_cmp_pd(d2, _mm256_setzero_pd(), _CMP_GT_OQ));
  if constexpr (kTail) {
    _mm256_maskstore_pd(key + j, live, d2);
  } else {
    _mm256_storeu_pd(key + j, d2);
  }
}

void D2KeysAvx2(double* key, const double* cols, size_t stride,
                const double* q, size_t dims, size_t m, const double* n,
                const double* msq, double qn, double qmsq) {
  const __m256d qnv = _mm256_set1_pd(qn);
  const __m256d qmsqv = _mm256_set1_pd(qmsq);
  const __m256i all = _mm256_set1_epi64x(-1);
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    D2KeyGroupAvx2<false>(key, cols, stride, q, dims, j, n, msq, qnv, qmsqv,
                          all);
  }
  if (j < m) {
    // Lane l is live when j + l < m.
    const __m256i live =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(m - j)),
                           _mm256_setr_epi64x(0, 1, 2, 3));
    D2KeyGroupAvx2<true>(key, cols, stride, q, dims, j, n, msq, qnv, qmsqv,
                         live);
  }
}

// The minimum of the four lanes, in every lane.
__m256d LaneMin(__m256d v) {
  v = _mm256_min_pd(v, _mm256_permute2f128_pd(v, v, 1));
  return _mm256_min_pd(v, _mm256_permute_pd(v, 0b0101));
}

// Fused point->center argmin for a tile of N points against one 4-wide
// vector of centers at a time. Each point's four sums stay in one
// register across the dimension loop, and each center vector is loaded
// once per tile. Lane l of best[r] / arg[r] holds point r's running
// minimum over the centers j = l (mod 4) and the first j that reached
// it (strict `<`: min_pd for the distance, compare-and-blend for the
// index), so reducing the lanes by
// distance, then by lowest index, gives the sequential first-wins
// argmin; the m % 4 tail centers follow in order. Indices ride in
// double lanes, exact below 2^53.
template <size_t N>
void NearestSqTileAvx2(const double* rows, const double* cols,
                       size_t stride, size_t dims, size_t m, size_t* index,
                       double* dist) {
  const double inf = __builtin_inf();
  __m256d best[N];
  __m256d arg[N];
  for (size_t r = 0; r < N; ++r) {
    best[r] = _mm256_set1_pd(inf);
    arg[r] = _mm256_setzero_pd();
  }
  const size_t mv = m - m % 4;
  const __m256d four = _mm256_set1_pd(4.0);
  __m256d jv = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  for (size_t j = 0; j < mv; j += 4) {
    __m256d acc[N];
#pragma GCC unroll 4
    for (size_t r = 0; r < N; ++r) acc[r] = _mm256_setzero_pd();
    for (size_t k = 0; k < dims; ++k) {
      const __m256d c = _mm256_loadu_pd(cols + k * stride + j);
#pragma GCC unroll 4
      for (size_t r = 0; r < N; ++r) {
        const __m256d d =
            _mm256_sub_pd(_mm256_set1_pd(rows[r * dims + k]), c);
        acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(d, d));
      }
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < N; ++r) {
      // min_pd(a, b) is a < b ? a : b, so a NaN or tied sum keeps the
      // earlier minimum, exactly like the blend of the index.
      const __m256d lt = _mm256_cmp_pd(acc[r], best[r], _CMP_LT_OQ);
      best[r] = _mm256_min_pd(acc[r], best[r]);
      arg[r] = _mm256_blendv_pd(arg[r], jv, lt);
    }
    jv = _mm256_add_pd(jv, four);
  }
  for (size_t r = 0; r < N; ++r) {
    // Branch-free lane reduction: the smallest distance, then the lowest
    // index among the lanes holding it. min_pd is exact here: the lanes
    // are never NaN (a NaN sum never wins a strict `<`).
    const __m256d d_min = LaneMin(best[r]);
    const __m256d tied = _mm256_cmp_pd(best[r], d_min, _CMP_EQ_OQ);
    const __m256d j_min =
        LaneMin(_mm256_blendv_pd(_mm256_set1_pd(inf), arg[r], tied));
    double bd = _mm256_cvtsd_f64(d_min);
    size_t bj = static_cast<size_t>(_mm256_cvtsd_f64(j_min));
    const double* p = rows + r * dims;
    for (size_t j = mv; j < m; ++j) {
      double s = 0.0;
      for (size_t k = 0; k < dims; ++k) {
        const double d = p[k] - cols[k * stride + j];
        s += d * d;
      }
      if (s < bd) {
        bd = s;
        bj = j;
      }
    }
    // Every winner is below +inf; a lane that never won still reads +inf.
    dist[r] = bd;
    index[r] = bd < inf ? bj : static_cast<size_t>(-1);
  }
}

void NearestSqAvx2(const double* rows, size_t n, const double* cols,
                   size_t stride, size_t dims, size_t m, size_t* index,
                   double* dist) {
  switch (n) {
    case 1:
      NearestSqTileAvx2<1>(rows, cols, stride, dims, m, index, dist);
      break;
    case 2:
      NearestSqTileAvx2<2>(rows, cols, stride, dims, m, index, dist);
      break;
    case 3:
      NearestSqTileAvx2<3>(rows, cols, stride, dims, m, index, dist);
      break;
    case 4:
      NearestSqTileAvx2<4>(rows, cols, stride, dims, m, index, dist);
      break;
  }
}

}  // namespace

const Ops kAvx2Ops = {&SqDiffAvx2, &AbsDiffAvx2, &MergedNormAvx2,
                      &D2KeysAvx2, &NearestSqAvx2};

}  // namespace detail
}  // namespace kernel
}  // namespace birch

#endif  // BIRCH_KERNEL_AVX2
