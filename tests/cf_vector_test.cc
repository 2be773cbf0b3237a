// Unit and property tests for the CF vector algebra (paper Sec. 4.1):
// the Additivity Theorem, and exactness of centroid/radius/diameter
// against brute-force computation over the raw points.
#include "birch/cf_vector.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/math.h"
#include "util/random.h"

namespace birch {
namespace {

std::vector<std::vector<double>> RandomPoints(Rng* rng, size_t n,
                                              size_t dim) {
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& v : p) v = rng->Uniform(-10, 10);
  }
  return pts;
}

CfVector CfOf(const std::vector<std::vector<double>>& pts) {
  CfVector cf(pts.empty() ? 0 : pts[0].size());
  for (const auto& p : pts) cf.AddPoint(p);
  return cf;
}

TEST(CfVectorTest, EmptyCf) {
  CfVector cf(3);
  EXPECT_TRUE(cf.empty());
  EXPECT_EQ(cf.dim(), 3u);
  EXPECT_EQ(cf.n(), 0.0);
  EXPECT_EQ(cf.Radius(), 0.0);
  EXPECT_EQ(cf.Diameter(), 0.0);
}

TEST(CfVectorTest, SinglePoint) {
  std::vector<double> x = {1.0, -2.0, 3.0};
  CfVector cf = CfVector::FromPoint(x);
  EXPECT_DOUBLE_EQ(cf.n(), 1.0);
  EXPECT_DOUBLE_EQ(cf.ss(), 1.0 + 4.0 + 9.0);
  EXPECT_EQ(cf.Centroid(), x);
  EXPECT_NEAR(cf.Radius(), 0.0, 1e-12);
  EXPECT_NEAR(cf.Diameter(), 0.0, 1e-12);
}

TEST(CfVectorTest, WeightedPoint) {
  std::vector<double> x = {2.0, 4.0};
  CfVector cf = CfVector::FromPoint(x, 5.0);
  EXPECT_DOUBLE_EQ(cf.n(), 5.0);
  EXPECT_DOUBLE_EQ(cf.ls()[0], 10.0);
  EXPECT_DOUBLE_EQ(cf.ls()[1], 20.0);
  EXPECT_DOUBLE_EQ(cf.ss(), 5.0 * 20.0);
  EXPECT_EQ(cf.Centroid(), x);
}

TEST(CfVectorTest, CentroidOfTwoPoints) {
  CfVector cf(2);
  cf.AddPoint(std::vector<double>{0.0, 0.0});
  cf.AddPoint(std::vector<double>{2.0, 4.0});
  auto c = cf.Centroid();
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  // Two points distance 2*sqrt(5) apart: diameter is that distance,
  // radius is half of it.
  EXPECT_NEAR(cf.Diameter(), 2.0 * std::sqrt(5.0), 1e-12);
  EXPECT_NEAR(cf.Radius(), std::sqrt(5.0), 1e-12);
}

// --- Property tests: CF-derived statistics must match brute force. ---

class CfVectorPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(CfVectorPropertyTest, RadiusMatchesBruteForce) {
  auto [n, dim] = GetParam();
  Rng rng(1000 + n * 31 + dim);
  auto pts = RandomPoints(&rng, n, dim);
  CfVector cf = CfOf(pts);

  std::vector<double> c = cf.Centroid();
  double sum_sq = 0.0;
  for (const auto& p : pts) sum_sq += SquaredDistance(p, c);
  double brute_radius = std::sqrt(sum_sq / static_cast<double>(n));
  EXPECT_NEAR(cf.Radius(), brute_radius, 1e-8 * (1.0 + brute_radius));
}

TEST_P(CfVectorPropertyTest, DiameterMatchesBruteForce) {
  auto [n, dim] = GetParam();
  if (n < 2) GTEST_SKIP();
  Rng rng(2000 + n * 31 + dim);
  auto pts = RandomPoints(&rng, n, dim);
  CfVector cf = CfOf(pts);

  double sum_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) sum_sq += SquaredDistance(pts[i], pts[j]);
    }
  }
  double brute_diam =
      std::sqrt(sum_sq / (static_cast<double>(n) * (n - 1.0)));
  EXPECT_NEAR(cf.Diameter(), brute_diam, 1e-8 * (1.0 + brute_diam));
}

TEST_P(CfVectorPropertyTest, AdditivityTheorem) {
  auto [n, dim] = GetParam();
  Rng rng(3000 + n * 31 + dim);
  auto pts1 = RandomPoints(&rng, n, dim);
  auto pts2 = RandomPoints(&rng, n + 3, dim);
  CfVector cf1 = CfOf(pts1);
  CfVector cf2 = CfOf(pts2);

  // CF of union computed directly...
  auto all = pts1;
  all.insert(all.end(), pts2.begin(), pts2.end());
  CfVector direct = CfOf(all);
  // ...must equal CF1 + CF2 (Additivity Theorem).
  CfVector merged = CfVector::Merged(cf1, cf2);
  EXPECT_NEAR(merged.n(), direct.n(), 1e-9);
  EXPECT_NEAR(merged.ss(), direct.ss(), 1e-6 * (1.0 + direct.ss()));
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(merged.ls()[i], direct.ls()[i],
                1e-9 * (1.0 + std::fabs(direct.ls()[i])));
  }
}

TEST_P(CfVectorPropertyTest, SerializeRoundTrip) {
  auto [n, dim] = GetParam();
  Rng rng(5000 + n * 31 + dim);
  CfVector cf = CfOf(RandomPoints(&rng, n, dim));
  std::vector<double> buf;
  cf.SerializeTo(&buf);
  ASSERT_EQ(buf.size(), CfVector::SerializedDoubles(dim));
  CfVector back = CfVector::Deserialize(buf, dim);
  EXPECT_EQ(back, cf);
}

TEST_P(CfVectorPropertyTest, SumSquaredDeviationMatchesBruteForce) {
  auto [n, dim] = GetParam();
  Rng rng(6000 + n * 31 + dim);
  auto pts = RandomPoints(&rng, n, dim);
  CfVector cf = CfOf(pts);
  auto c = cf.Centroid();
  double sse = 0.0;
  for (const auto& p : pts) sse += SquaredDistance(p, c);
  EXPECT_NEAR(cf.SumSquaredDeviation(), sse, 1e-7 * (1.0 + sse));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CfVectorPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 7, 40, 200),
                       ::testing::Values<size_t>(1, 2, 3, 8, 16)));

TEST(CfVectorTest, WeightedEquivalentToRepeated) {
  // A point added with weight w behaves like w copies of the point.
  std::vector<double> x = {3.0, -1.0, 0.5};
  CfVector weighted = CfVector::FromPoint(x, 4.0);
  CfVector repeated(3);
  for (int i = 0; i < 4; ++i) repeated.AddPoint(x);
  EXPECT_NEAR(weighted.n(), repeated.n(), 1e-12);
  EXPECT_NEAR(weighted.ss(), repeated.ss(), 1e-9);
}

TEST(CfVectorTest, RadiusNeverNegativeUnderCancellation) {
  // Points far from the origin stress the SS - ||LS||^2/N cancellation.
  CfVector cf(2);
  for (int i = 0; i < 100; ++i) {
    cf.AddPoint(std::vector<double>{1e8 + i * 1e-6, -1e8});
  }
  EXPECT_GE(cf.SquaredRadius(), 0.0);
  EXPECT_GE(cf.SquaredDiameter(), 0.0);
}

TEST(CfVectorTest, FarFromOriginGuardClampsCancellationNoise) {
  // BETULA-style guard regression: a cluster of IDENTICAL points far
  // from the origin has radius and diameter exactly 0, but the raw
  // SS/N - ||LS/N||^2 cancellation yields noise of either sign — the
  // positive-garbage case used to survive the old max(x, 0) clamp and
  // propagate through sqrt as a plausible-looking nonzero radius.
  for (double c : {1e6, 1e7, 1e8, -1e8}) {
    CfVector cf(3);
    for (int i = 0; i < 1000; ++i) {
      cf.AddPoint(std::vector<double>{c, c * 0.5, -c});
    }
    EXPECT_EQ(cf.SquaredRadius(), 0.0) << "center " << c;
    EXPECT_EQ(cf.Radius(), 0.0) << "center " << c;
    EXPECT_EQ(cf.SquaredDiameter(), 0.0) << "center " << c;
    EXPECT_EQ(cf.Diameter(), 0.0) << "center " << c;
    EXPECT_EQ(cf.SumSquaredDeviation(), 0.0) << "center " << c;
    EXPECT_FALSE(std::isnan(cf.Radius()));
  }
}

// --- Representation property tests: classic (N, LS, SS) vs BETULA
// (N, mean, S) across conditioning regimes. Offsets 0 / 1e4 / 1e8
// sweep well-conditioned, transition, and catastrophic territory.

class CfRepresentationPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {
 protected:
  /// Gaussian cloud (unit sigma per dimension) centered `offset` from
  /// the origin on every axis.
  std::vector<std::vector<double>> Cloud(Rng* rng, size_t n, size_t dim,
                                         double offset) {
    std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
    for (auto& p : pts) {
      for (auto& v : p) v = rng->Gaussian(offset, 1.0);
    }
    return pts;
  }

  CfVector CfOfRep(const std::vector<std::vector<double>>& pts,
                   CfRepresentation rep) {
    CfVector cf(pts[0].size(), rep);
    for (const auto& p : pts) cf.AddPoint(p);
    return cf;
  }
};

TEST_P(CfRepresentationPropertyTest, BetulaMergeIsAssociative) {
  auto [offset, dim] = GetParam();
  Rng rng(7000 + dim);
  auto a = CfOfRep(Cloud(&rng, 50, dim, offset), CfRepresentation::kBetula);
  auto b = CfOfRep(Cloud(&rng, 31, dim, offset), CfRepresentation::kBetula);
  auto c = CfOfRep(Cloud(&rng, 77, dim, offset), CfRepresentation::kBetula);
  CfVector left = CfVector::Merged(CfVector::Merged(a, b), c);
  CfVector right = CfVector::Merged(a, CfVector::Merged(b, c));
  EXPECT_DOUBLE_EQ(left.n(), right.n());
  for (size_t t = 0; t < dim; ++t) {
    EXPECT_NEAR(left.mean()[t], right.mean()[t],
                1e-9 * (1.0 + std::fabs(right.mean()[t])));
  }
  EXPECT_NEAR(left.SumSquaredDeviation(), right.SumSquaredDeviation(),
              1e-9 * (1.0 + right.SumSquaredDeviation()));
}

TEST_P(CfRepresentationPropertyTest, BetulaRadiusPositiveWithoutClamping) {
  // The BETULA radius is S/N with S accumulated from non-negative
  // Welford increments: it needs no cancellation guard and must stay
  // strictly positive (and accurate) for spread-out data at ANY
  // offset — including 1e8, where the classic form clamps to zero.
  auto [offset, dim] = GetParam();
  Rng rng(7100 + dim);
  const size_t n = 2000;
  auto pts = Cloud(&rng, n, dim, offset);
  CfVector cf = CfOfRep(pts, CfRepresentation::kBetula);
  // Unit sigma per dimension: RMS distance to the centroid ~ sqrt(dim).
  double expected = std::sqrt(static_cast<double>(dim));
  EXPECT_GT(cf.SquaredRadius(), 0.0);
  EXPECT_NEAR(cf.Radius(), expected, 0.2 * expected);
  EXPECT_GT(cf.SquaredDiameter(), 0.0);
  // And it matches brute force over the raw points.
  auto c = cf.Centroid();
  double sse = 0.0;
  for (const auto& p : pts) sse += SquaredDistance(p, c);
  EXPECT_NEAR(cf.SumSquaredDeviation(), sse, 1e-6 * (1.0 + sse));
}

TEST_P(CfRepresentationPropertyTest, ClassicBetulaDivergenceBound) {
  // The two representations compute the same statistic; their
  // divergence is bounded by cancellation noise, which scales with the
  // squared magnitude of the data. At offset 0 / 1e4 the bound forces
  // near-agreement; at 1e8 it documents how the classic form drifts
  // (BETULA is the reference — its error does not grow with offset).
  auto [offset, dim] = GetParam();
  Rng rng(7200 + dim);
  auto pts = Cloud(&rng, 500, dim, offset);
  CfVector classic = CfOfRep(pts, CfRepresentation::kClassic);
  CfVector betula = CfOfRep(pts, CfRepresentation::kBetula);
  EXPECT_DOUBLE_EQ(classic.n(), betula.n());
  for (size_t t = 0; t < dim; ++t) {
    EXPECT_NEAR(classic.Centroid()[t], betula.Centroid()[t],
                1e-9 * (1.0 + std::fabs(offset)));
  }
  // Noise bound: ~1e3 ulps of the squared data magnitude.
  double magnitude = (1.0 + offset * offset) * static_cast<double>(dim);
  double bound = 1e-13 * magnitude + 1e-9;
  EXPECT_NEAR(classic.SquaredRadius(), betula.SquaredRadius(), bound);
  EXPECT_NEAR(classic.SquaredDiameter(), betula.SquaredDiameter(),
              2.5 * bound);
}

TEST_P(CfRepresentationPropertyTest, BetulaSerializeRoundTrip) {
  auto [offset, dim] = GetParam();
  Rng rng(7400 + dim);
  CfVector cf(dim, CfRepresentation::kBetula);
  for (const auto& p : Cloud(&rng, 40, dim, offset)) cf.AddPoint(p);
  std::vector<double> buf;
  cf.SerializeTo(&buf);
  CfVector back = CfVector::Deserialize(buf, dim, CfRepresentation::kBetula);
  EXPECT_EQ(back, cf);
}

INSTANTIATE_TEST_SUITE_P(
    ConditioningSweep, CfRepresentationPropertyTest,
    ::testing::Combine(::testing::Values(0.0, 1e4, 1e8),
                       ::testing::Values<size_t>(1, 64)));

TEST(CfVectorTest, CancellationClampCounterTicksOnVisibleLoss) {
  // Satellite observability contract: when the guard zeroes a value
  // that is ABOVE the visible tolerance (real structure, not few-ulp
  // dust), cf/cancellation_clamped must tick. A cluster with spread
  // ~200 centered at 3e7 lands inside the guard window (1e-12 of
  // ~1.8e15) but above the visible floor (1e-14 of it).
  auto& clamped =
      obs::Registry::Default().GetCounter("cf/cancellation_clamped");
  Rng rng(321);
  CfVector lossy(2, CfRepresentation::kClassic);
  for (int i = 0; i < 500; ++i) {
    lossy.AddPoint(std::vector<double>{rng.Gaussian(3e7, 10.0),
                                       rng.Gaussian(3e7, 10.0)});
  }
  uint64_t before = clamped.Value();
  EXPECT_EQ(lossy.SquaredRadius(), 0.0);  // guard destroyed the spread
  EXPECT_GT(clamped.Value(), before);

  // Benign clamp: identical points at 1e8 have TRUE spread 0 — the
  // guard fires on the ulp dust, but the loss is invisible-by-design
  // and must not tick the visible counter.
  CfVector benign(2, CfRepresentation::kClassic);
  for (int i = 0; i < 500; ++i) {
    benign.AddPoint(std::vector<double>{1e8, -1e8});
  }
  before = clamped.Value();
  EXPECT_EQ(benign.SquaredRadius(), 0.0);
  EXPECT_EQ(clamped.Value(), before);
}

TEST(CfVectorTest, GuardPreservesResolvableSpread) {
  // The guard must clamp only sub-noise-floor values: a genuine spread
  // well above the cancellation noise must come through accurately.
  Rng rng(123);
  CfVector cf(2);
  double c = 1e3;  // far enough to be interesting, near enough to resolve
  for (int i = 0; i < 2000; ++i) {
    cf.AddPoint(std::vector<double>{rng.Gaussian(c, 1.0),
                                    rng.Gaussian(-c, 1.0)});
  }
  // True RMS distance to the centroid is ~sqrt(2) for unit sigma in 2-d.
  EXPECT_NEAR(cf.Radius(), std::sqrt(2.0), 0.1);
  EXPECT_GT(cf.SquaredDiameter(), 0.0);
}

}  // namespace
}  // namespace birch
