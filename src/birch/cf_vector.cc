#include "birch/cf_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "util/math.h"

namespace birch {

namespace {

// GuardedNonNegative plus trip counters: each time the guard clamps a
// nonzero raw difference to 0 (catastrophic cancellation, tiny
// negative, or NaN) the "cf/cancellation_guard" counter ticks, so a
// run can report how often the numerical floor was actually hit. When
// the destroyed value was RELATIVELY LARGE (above kClampVisibleTol of
// the operands' magnitude) the clamp is not hiding harmless dust but
// an actually-degraded statistic — "cf/cancellation_clamped" ticks so
// the degradation is visible in --metrics instead of silent. The
// tolerance sits between the few-ulp dust a well-conditioned
// computation leaves (~1e-15 of magnitude) and the guard's own 1e-12
// window, so it fires exactly when real structure is being swallowed.
constexpr double kClampVisibleTol = 1e-14;  // ~45 double ulps

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

const char* CfRepresentationName(CfRepresentation rep) {
  switch (rep) {
    case CfRepresentation::kClassic: return "classic";
    case CfRepresentation::kBetula: return "betula";
  }
  return "?";
}

CfVector CfVector::FromPoint(std::span<const double> x, double weight,
                             CfRepresentation rep) {
  CfVector cf(x.size(), rep);
  cf.AddPoint(x, weight);
  return cf;
}

void CfVector::AssignPoint(std::span<const double> x, double weight) {
  vec_.assign(x.size(), 0.0);  // no realloc once sized
  n_ = 0.0;
  scalar_ = 0.0;
  AddPoint(x, weight);
}

void CfVector::Add(const CfVector& other) {
  if (vec_.empty()) vec_.assign(other.dim(), 0.0);
  assert(dim() == other.dim());
  if (n_ <= 0.0) {
    // An empty accumulator adopts the incoming representation; the
    // general paths below then reduce to an exact copy.
    rep_ = other.rep_;
  }
  assert(rep_ == other.rep_);
  AddInto(rep_, other, &n_, vec_.data(), 1, &scalar_);
}

void CfVector::AddInto(CfRepresentation rep, const CfVector& other,
                       double* n, double* vec, size_t stride,
                       double* scalar) {
  const size_t dim = other.dim();
  if (rep == CfRepresentation::kClassic) {
    *n += other.n_;
    for (size_t i = 0; i < dim; ++i) vec[i * stride] += other.vec_[i];
    *scalar += other.scalar_;
  } else if (other.n_ > 0.0) {
    // Chan-style merge. With na = n, nb = other.n_:
    //   mean' = mean + (nb/nm) * (mean_b - mean)
    //   S'    = S_a + S_b + (na*nb/nm) * ||mean_b - mean_a||^2
    // Every term is non-negative where it matters: no cancellation.
    // The operation ORDER here is a contract — the kernel's
    // MergedDiameter/MergedRadius and D3/D4 scans replicate it
    // exactly for bitwise scalar/batch equivalence.
    const double nm = *n + other.n_;
    const double f = other.n_ / nm;
    const double coef = *n * f;  // na*nb/nm
    double dsq = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      const double d = other.vec_[i] - vec[i * stride];
      vec[i * stride] += f * d;
      dsq += d * d;
    }
    *scalar += other.scalar_ + coef * dsq;
    *n = nm;
  }
}

void CfVector::AddPoint(std::span<const double> x, double weight) {
  if (vec_.empty()) vec_.assign(x.size(), 0.0);
  assert(dim() == x.size());
  if (rep_ == CfRepresentation::kClassic) {
    n_ += weight;
    double sq = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      vec_[i] += weight * x[i];
      sq += x[i] * x[i];
    }
    scalar_ += weight * sq;
  } else {
    // Weighted Welford update: delta against the old mean, deviation
    // product against the new one. Exact for the empty case (mean
    // becomes x, S stays 0).
    const double np = n_ + weight;
    const double f = weight / np;
    double s = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - vec_[i];
      vec_[i] += f * d;
      s += d * (x[i] - vec_[i]);
    }
    scalar_ += weight * s;
    n_ = np;
  }
}

CfVector CfVector::Merged(const CfVector& a, const CfVector& b) {
  CfVector out = a;
  out.Add(b);
  return out;
}

std::vector<double> CfVector::Centroid() const {
  std::vector<double> c;
  CentroidInto(&c);
  return c;
}

void CfVector::CentroidInto(std::vector<double>* out) const {
  out->assign(vec_.size(), 0.0);
  if (n_ <= 0.0) return;
  if (rep_ == CfRepresentation::kBetula) {
    std::copy(vec_.begin(), vec_.end(), out->begin());
    return;
  }
  for (size_t i = 0; i < vec_.size(); ++i) (*out)[i] = vec_[i] / n_;
}

double CfVector::SquaredRadius() const {
  if (n_ <= 0.0) return 0.0;
  if (rep_ == CfRepresentation::kBetula) {
    // S/N, a quotient of non-negatives: no cancellation to guard.
    return ClampNonNegative(scalar_ / n_);
  }
  // Far from the origin SS/N and ||LS/N||^2 are huge and nearly equal;
  // the guard zeroes results below the cancellation noise floor so a
  // tight distant cluster reports radius 0 instead of sqrt(garbage).
  return GuardedStat(scalar_ / n_ - SquaredNorm(vec_) / (n_ * n_),
                     scalar_ / n_);
}

double CfVector::Radius() const { return std::sqrt(SquaredRadius()); }

double CfVector::SquaredDiameter() const {
  if (n_ <= 1.0) return 0.0;
  if (rep_ == CfRepresentation::kBetula) {
    return ClampNonNegative(2.0 * scalar_ / (n_ - 1.0));
  }
  double num = 2.0 * (n_ * scalar_ - SquaredNorm(vec_));
  return GuardedStat(num / (n_ * (n_ - 1.0)), 2.0 * scalar_ / (n_ - 1.0));
}

double CfVector::Diameter() const { return std::sqrt(SquaredDiameter()); }

double CfVector::SumSquaredDeviation() const {
  return SumSquaredDeviationOf(rep_, n_, vec_.data(), vec_.size(), 1,
                               scalar_);
}

double CfVector::SumSquaredDeviationOf(CfRepresentation rep, double n,
                                       const double* vec, size_t dim,
                                       size_t stride, double scalar) {
  if (n <= 0.0) return 0.0;
  if (rep == CfRepresentation::kBetula) return scalar;
  double norm = 0.0;  // SquaredNorm's loop, `stride` apart
  for (size_t i = 0; i < dim; ++i) norm += vec[i * stride] * vec[i * stride];
  return GuardedStat(scalar - norm / n, scalar);
}

void CfVector::SerializeTo(std::vector<double>* out) const {
  out->push_back(n_);
  out->insert(out->end(), vec_.begin(), vec_.end());
  out->push_back(scalar_);
}

CfVector CfVector::Deserialize(std::span<const double> in, size_t dim,
                               CfRepresentation rep) {
  assert(in.size() >= dim + 2);
  CfVector cf(dim, rep);
  cf.n_ = in[0];
  for (size_t i = 0; i < dim; ++i) cf.vec_[i] = in[1 + i];
  cf.scalar_ = in[dim + 1];
  return cf;
}

}  // namespace birch
