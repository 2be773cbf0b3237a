#include "birch/kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "birch/kernel/kernel_ops.h"
#include "obs/metrics.h"
#include "util/math.h"

namespace birch {

namespace kernel {

namespace detail {

namespace {

void SqDiffPortable(double* acc, const double* cols, size_t stride,
                    const double* q, size_t dims, size_t m) {
  for (size_t k = 0; k < dims; ++k) {
    const double qk = q[k];
    const double* col = cols + k * stride;
    for (size_t j = 0; j < m; ++j) {
      double d = qk - col[j];
      acc[j] += d * d;
    }
  }
}

void AbsDiffPortable(double* acc, const double* cols, size_t stride,
                     const double* q, size_t dims, size_t m) {
  for (size_t k = 0; k < dims; ++k) {
    const double qk = q[k];
    const double* col = cols + k * stride;
    for (size_t j = 0; j < m; ++j) acc[j] += std::fabs(qk - col[j]);
  }
}

void MergedNormPortable(double* acc, const double* cols, size_t stride,
                        const double* q, size_t dims, size_t m) {
  for (size_t k = 0; k < dims; ++k) {
    const double qk = q[k];
    const double* col = cols + k * stride;
    for (size_t j = 0; j < m; ++j) {
      double t = qk + col[j];
      acc[j] += t * t;
    }
  }
}

void D2KeysPortable(double* key, const double* cols, size_t stride,
                    const double* q, size_t dims, size_t m, const double* n,
                    const double* msq, double qn, double qmsq) {
  for (size_t j = 0; j < m; ++j) {
    double cross = 0.0;
    for (size_t k = 0; k < dims; ++k) cross += q[k] * cols[k * stride + j];
    key[j] = ClampNonNegative(qmsq + msq[j] - 2.0 * cross / (qn * n[j]));
  }
}

// Centers j .. j + L - 1 against the whole tile, folded into the
// running argmins in center order. N and L are constants per instance,
// so every point-center sum is a register across the dimension loop.
template <size_t N, size_t L>
void NearestSqBlockPortable(const double* rows, const double* cols,
                            size_t stride, size_t dims, size_t j,
                            size_t* index, double* dist) {
  double s[N][L] = {};
  for (size_t k = 0; k < dims; ++k) {
    const double* col = cols + k * stride + j;
#pragma GCC unroll 4
    for (size_t r = 0; r < N; ++r) {
      const double q = rows[r * dims + k];
#pragma GCC unroll 4
      for (size_t l = 0; l < L; ++l) {
        const double d = q - col[l];
        s[r][l] += d * d;
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < N; ++r) {
#pragma GCC unroll 4
    for (size_t l = 0; l < L; ++l) {
      if (s[r][l] < dist[r]) {
        dist[r] = s[r][l];
        index[r] = j + l;
      }
    }
  }
}

// Blocks of four centers, as the AVX2 lane takes them, then the tail
// one center at a time.
template <size_t N>
void NearestSqTilePortable(const double* rows, const double* cols,
                           size_t stride, size_t dims, size_t m,
                           size_t* index, double* dist) {
  for (size_t r = 0; r < N; ++r) {
    index[r] = static_cast<size_t>(-1);
    dist[r] = std::numeric_limits<double>::infinity();
  }
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    NearestSqBlockPortable<N, 4>(rows, cols, stride, dims, j, index, dist);
  }
  for (; j < m; ++j) {
    NearestSqBlockPortable<N, 1>(rows, cols, stride, dims, j, index, dist);
  }
}

void NearestSqPortable(const double* rows, size_t n, const double* cols,
                       size_t stride, size_t dims, size_t m, size_t* index,
                       double* dist) {
  switch (n) {
    case 1:
      NearestSqTilePortable<1>(rows, cols, stride, dims, m, index, dist);
      break;
    case 2:
      NearestSqTilePortable<2>(rows, cols, stride, dims, m, index, dist);
      break;
    case 3:
      NearestSqTilePortable<3>(rows, cols, stride, dims, m, index, dist);
      break;
    case 4:
      NearestSqTilePortable<4>(rows, cols, stride, dims, m, index, dist);
      break;
  }
}

}  // namespace

const Ops kPortableOps = {&SqDiffPortable, &AbsDiffPortable,
                          &MergedNormPortable, &D2KeysPortable,
                          &NearestSqPortable};

const Ops& GetOps() {
#if defined(BIRCH_KERNEL_AVX2)
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) return kAvx2Ops;
#endif
  return kPortableOps;
}

}  // namespace detail

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

// Mirror of the GuardedStat in cf_vector.cc: same clamp, same
// "cf/cancellation_guard" trip counter, same "cf/cancellation_clamped"
// escalation when the destroyed value was relatively large (actual
// degradation, not sub-noise-floor dust). The kernel recomputes the
// guarded statistics itself (it never materializes the merged CF), so
// it must replicate the accounting too.
constexpr double kClampVisibleTol = 1e-14;  // see cf_vector.cc

double GuardedStat(double x, double magnitude) {
  double g = GuardedNonNegative(x, magnitude);
  if (g == 0.0 && x != 0.0) {
    OBS_COUNTER_INC("cf/cancellation_guard");
    if (std::fabs(x) > kClampVisibleTol * magnitude) {
      OBS_COUNTER_INC("cf/cancellation_clamped");
    }
  }
  return g;
}

}  // namespace

void CfQuery::Prepare(const CfVector& q, DistanceMetric metric,
                      std::vector<double>* centroid_buf) {
  cf = &q;
  n = q.n();
  ss = q.raw_scalar();
  mean_sq = n > 0.0 ? ss / n : 0.0;
  if (q.rep() == CfRepresentation::kBetula) {
    // BETULA: ss is S, mean_sq is S/N, and the stored mean IS the
    // centroid — every BETULA scan reads it, straight from the CF's
    // own storage (`cf` outlives the query per contract). D4's
    // increase is computed directly (never as an SSD difference), so
    // ssd stays unused.
    ssd = 0.0;
    centroid = q.raw_vec().data();
    return;
  }
  ssd = metric == DistanceMetric::kD4 ? q.SumSquaredDeviation() : 0.0;
  centroid = nullptr;
  if (metric == DistanceMetric::kD0 || metric == DistanceMetric::kD1) {
    centroid_buf->resize(q.dim());
    std::span<const double> ls = q.ls();
    for (size_t k = 0; k < ls.size(); ++k) (*centroid_buf)[k] = ls[k] / n;
    centroid = centroid_buf->data();
  }
}

CfBatch::Needs CfBatch::Needs::For(DistanceMetric metric,
                                   CfRepresentation rep) {
  Needs needs;
  // Every BETULA metric works off the stored means (the vector
  // columns) plus the scalar columns: nothing is derived.
  if (rep == CfRepresentation::kBetula) return needs;
  needs.centroid =
      metric == DistanceMetric::kD0 || metric == DistanceMetric::kD1;
  needs.ssd = metric == DistanceMetric::kD4;
  return needs;
}

void CfBatch::Init(size_t dim, size_t capacity, Needs needs) {
  dim_ = static_cast<uint32_t>(dim);
  capacity_ = static_cast<uint32_t>(capacity);
  needs_ = needs;
  size_ = 0;
  block_ = std::make_unique<double[]>(block_doubles());
}

void CfBatch::Assign(std::span<const CfVector> entries) {
  assert(entries.size() <= capacity_);
  size_ = entries.size();
  for (size_t i = 0; i < size_; ++i) Update(i, entries[i]);
}

void CfBatch::Append(const CfVector& entry) {
  assert(size_ < capacity_);
  ++size_;
  Update(size_ - 1, entry);
}

void CfBatch::Update(size_t i, const CfVector& entry) {
  assert(i < size_);
  assert(entry.dim() == dim_);
  column(0)[i] = entry.n();
  column(1)[i] = entry.raw_scalar();  // SS classic, S BETULA
  std::span<const double> vec = entry.raw_vec();
  double* v = column(3);
  for (size_t k = 0; k < dim_; ++k) v[k * capacity_ + i] = vec[k];
  RefreshDerived(i, entry.rep());
}

void CfBatch::Add(size_t i, const CfVector& cf) {
  assert(i < size_);
  assert(cf.dim() == dim_);
  CfVector::AddInto(cf.rep(), cf, column(0) + i, column(3) + i, capacity_,
                    column(1) + i);
  RefreshDerived(i, cf.rep());
}

void CfBatch::RefreshDerived(size_t i, CfRepresentation rep) {
  const double en = column(0)[i];
  const double scalar = column(1)[i];
  column(2)[i] = en > 0.0 ? scalar / en : 0.0;
  const double* v = column(3) + i;
  if (needs_.centroid) {
    double* c = column(CentroidColumn()) + i;
    for (size_t k = 0; k < dim_; ++k) {
      c[k * capacity_] = v[k * capacity_] / en;
    }
  }
  if (needs_.ssd) {
    column(SsdColumn())[i] =
        CfVector::SumSquaredDeviationOf(rep, en, v, dim_, capacity_, scalar);
  }
}

void CfBatch::Load(size_t i, CfVector* out) const {
  assert(i < size_);
  out->n_ = n()[i];
  out->scalar_ = ss()[i];
  out->vec_.resize(dim_);
  const double* v = vec();
  for (size_t k = 0; k < dim_; ++k) out->vec_[k] = v[k * capacity_ + i];
}

void CfBatch::NearestCentroidSqRows(std::span<const double> rows, size_t n,
                                    ScanResult* out) const {
  assert(rows.size() == n * dim_);
  const detail::Ops& ops = detail::GetOps();
  const double* cols = needs_.centroid ? centroid() : vec();
  size_t index[detail::kTileRows] = {};
  double dist[detail::kTileRows] = {};
  for (size_t r = 0; r < n; r += detail::kTileRows) {
    const size_t tile = std::min(detail::kTileRows, n - r);
    ops.nearest_sq(rows.data() + r * dim_, tile, cols, capacity_, dim_, size_,
                   index, dist);
    for (size_t t = 0; t < tile; ++t) out[r + t] = {index[t], dist[t]};
  }
}

void CfBatch::Erase(size_t i) {
  assert(i < size_);
  for (size_t c = 0; c < ColumnCount(); ++c) {
    double* col = column(c);
    std::copy(col + i + 1, col + size_, col + i);
  }
  --size_;
}

namespace {

/// Fills key[0, m) with each candidate's key under `metric`: the value
/// under the final sqrt of Distance(metric, query, batch[j]), computed
/// with the scalar oracle's operations in its order — the distance
/// itself for D1, which takes no sqrt.
void FillKeys(const CfBatch& batch, const CfQuery& query,
              DistanceMetric metric, double* key) {
  const size_t m = batch.size();
  const size_t cap = batch.capacity();
  const size_t dim = batch.dim();
  const detail::Ops& ops = detail::GetOps();

  if (query.cf->rep() == CfRepresentation::kBetula) {
    // Every BETULA metric starts from the squared mean differences (the
    // absolute ones for D1) accumulated over the mean (vector) columns;
    // the finishing loops use the Chan-merge identities (sums of
    // non-negative terms) in the exact operation order of the scalar
    // oracle (metrics.cc / CfVector::Add).
    std::fill_n(key, m, 0.0);
    if (metric == DistanceMetric::kD1) {
      ops.abs_diff(key, batch.vec(), cap, query.centroid, dim, m);
      return;
    }
    // key holds ||mean_q - mean_j||^2: D0's key as it stands.
    ops.sq_diff(key, batch.vec(), cap, query.centroid, dim, m);
    const double* n = batch.n();
    switch (metric) {
      case DistanceMetric::kD2: {
        const double* msq = batch.mean_sq();
        for (size_t j = 0; j < m; ++j) {
          key[j] = ClampNonNegative((query.mean_sq + msq[j]) + key[j]);
        }
        break;
      }
      case DistanceMetric::kD3: {
        // The Chan merge S_m = S_q + (S_j + coef*dsq).
        const double* ss = batch.ss();
        for (size_t j = 0; j < m; ++j) {
          double nm = query.n + n[j];
          if (nm <= 1.0) {
            key[j] = 0.0;
            continue;
          }
          double f = n[j] / nm;
          double coef = query.n * f;
          double sm = query.ss + (ss[j] + coef * key[j]);
          key[j] = ClampNonNegative(2.0 * sm / (nm - 1.0));
        }
        break;
      }
      case DistanceMetric::kD4: {
        // The SSE increase is coef * ||mean_q - mean_j||^2 directly.
        for (size_t j = 0; j < m; ++j) {
          double nm = query.n + n[j];
          if (nm <= 0.0) {
            key[j] = 0.0;
            continue;
          }
          double f = n[j] / nm;
          double coef = query.n * f;
          key[j] = ClampNonNegative(coef * key[j]);
        }
        break;
      }
      default:
        break;
    }
    return;
  }

  switch (metric) {
    case DistanceMetric::kD0:
      std::fill_n(key, m, 0.0);
      ops.sq_diff(key, batch.centroid(), cap, query.centroid, dim, m);
      break;
    case DistanceMetric::kD1:
      std::fill_n(key, m, 0.0);
      ops.abs_diff(key, batch.centroid(), cap, query.centroid, dim, m);
      break;
    case DistanceMetric::kD2:
      ops.d2_keys(key, batch.vec(), cap, query.cf->ls().data(), dim, m,
                  batch.n(), batch.mean_sq(), query.n, query.mean_sq);
      break;
    case DistanceMetric::kD3: {
      // key holds ||LS_q + LS_j||^2 first.
      std::fill_n(key, m, 0.0);
      ops.merged_norm(key, batch.vec(), cap, query.cf->ls().data(), dim, m);
      const double* n = batch.n();
      const double* ss = batch.ss();
      for (size_t j = 0; j < m; ++j) {
        double nm = query.n + n[j];
        if (nm <= 1.0) {
          key[j] = 0.0;
          continue;
        }
        double ssm = query.ss + ss[j];
        double num = 2.0 * (nm * ssm - key[j]);
        key[j] = GuardedStat(num / (nm * (nm - 1.0)), 2.0 * ssm / (nm - 1.0));
      }
      break;
    }
    case DistanceMetric::kD4: {
      std::fill_n(key, m, 0.0);
      ops.merged_norm(key, batch.vec(), cap, query.cf->ls().data(), dim, m);
      const double* n = batch.n();
      const double* ss = batch.ss();
      const double* ssd = batch.ssd();
      for (size_t j = 0; j < m; ++j) {
        double nm = query.n + n[j];
        double ssm = query.ss + ss[j];
        double merged_ssd =
            nm <= 0.0 ? 0.0 : GuardedStat(ssm - key[j] / nm, ssm);
        key[j] = ClampNonNegative(merged_ssd - query.ssd - ssd[j]);
      }
      break;
    }
  }
}

}  // namespace

void FillDistances(const CfBatch& batch, const CfQuery& query,
                   DistanceMetric metric, Workspace* ws) {
  const size_t m = batch.size();
  ws->dist.resize(m);
  double* dist = ws->dist.data();
  FillKeys(batch, query, metric, dist);
  if (metric == DistanceMetric::kD1) return;
  for (size_t j = 0; j < m; ++j) dist[j] = std::sqrt(dist[j]);
}

namespace detail {

ScanResult NearestKey(const double* key, size_t m, bool root,
                      const uint8_t* active, size_t exclude) {
  ScanResult r;
  r.distance = std::numeric_limits<double>::infinity();
  double best_key = r.distance;
  for (size_t j = 0; j < m; ++j) {
    if (j == exclude) continue;
    if (active != nullptr && active[j] == 0) continue;
    // sqrt is monotone: a key at or above the best one cannot give a
    // smaller distance, so only a smaller key pays for its sqrt.
    if (!(key[j] < best_key)) continue;
    const double d = root ? std::sqrt(key[j]) : key[j];
    if (d < r.distance) {
      r.distance = d;
      r.index = j;
      best_key = key[j];
    }
  }
  return r;
}

}  // namespace detail

ScanResult NearestEntry(const CfBatch& batch, const CfQuery& query,
                        DistanceMetric metric, Workspace* ws,
                        const uint8_t* active, size_t exclude) {
  const size_t m = batch.size();
  // Grow-only: a shorter node's scan leaves the tail as it is.
  if (ws->dist.size() < m) ws->dist.resize(m);
  FillKeys(batch, query, metric, ws->dist.data());
  return detail::NearestKey(ws->dist.data(), m,
                            metric != DistanceMetric::kD1, active, exclude);
}

namespace {

/// S of the Chan merge of two BETULA CFs, replicating CfVector::Add's
/// operation order exactly so the result is bitwise equal to
/// Merged(a, b).raw_scalar().
double BetulaMergedS(const CfVector& a, const CfVector& b) {
  double nm = a.n() + b.n();
  double f = b.n() / nm;
  double coef = a.n() * f;
  std::span<const double> am = a.raw_vec();
  std::span<const double> bm = b.raw_vec();
  double dsq = 0.0;
  for (size_t k = 0; k < am.size(); ++k) {
    double d = bm[k] - am[k];
    dsq += d * d;
  }
  return a.raw_scalar() + (b.raw_scalar() + coef * dsq);
}

}  // namespace

double MergedDiameter(const CfVector& a, const CfVector& b) {
  double nm = a.n() + b.n();
  if (nm <= 1.0) return 0.0;
  if (a.rep() == CfRepresentation::kBetula) {
    double sm = BetulaMergedS(a, b);
    return std::sqrt(ClampNonNegative(2.0 * sm / (nm - 1.0)));
  }
  double ssm = a.ss() + b.ss();
  std::span<const double> al = a.ls();
  std::span<const double> bl = b.ls();
  double norm = 0.0;
  for (size_t k = 0; k < al.size(); ++k) {
    double t = al[k] + bl[k];
    norm += t * t;
  }
  double num = 2.0 * (nm * ssm - norm);
  return std::sqrt(
      GuardedStat(num / (nm * (nm - 1.0)), 2.0 * ssm / (nm - 1.0)));
}

double MergedRadius(const CfVector& a, const CfVector& b) {
  double nm = a.n() + b.n();
  if (nm <= 0.0) return 0.0;
  if (a.rep() == CfRepresentation::kBetula) {
    double sm = BetulaMergedS(a, b);
    return std::sqrt(ClampNonNegative(sm / nm));
  }
  double ssm = a.ss() + b.ss();
  std::span<const double> al = a.ls();
  std::span<const double> bl = b.ls();
  double norm = 0.0;
  for (size_t k = 0; k < al.size(); ++k) {
    double t = al[k] + bl[k];
    norm += t * t;
  }
  return std::sqrt(GuardedStat(ssm / nm - norm / (nm * nm), ssm / nm));
}

bool Avx2Active() {
#if defined(BIRCH_KERNEL_AVX2)
  return &detail::GetOps() == &detail::kAvx2Ops;
#else
  return false;
#endif
}

// Silence -Wunused for kNone in builds where asserts compile out.
static_assert(kNone == static_cast<size_t>(-1));

}  // namespace kernel
}  // namespace birch
