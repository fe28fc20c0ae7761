// Polynomial preconditioner tests: Neumann series (§2.1.2), GLS (§2.1.3),
// the Stieltjes orthogonal basis, Θ validation, and the Eq. 24 stability
// bound behaviour behind Fig. 3.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/gls_poly.hpp"
#include "core/intervals.hpp"
#include "core/neumann.hpp"
#include "core/orthopoly.hpp"
#include "core/precond.hpp"
#include "sparse/generators.hpp"

namespace pfem::core {
namespace {

TEST(Intervals, ValidationRejectsBadThetas) {
  EXPECT_THROW(validate_theta({}), Error);
  EXPECT_THROW(validate_theta({{2.0, 1.0}}), Error);             // inverted
  EXPECT_THROW(validate_theta({{-1.0, 1.0}}), Error);            // contains 0
  EXPECT_THROW(validate_theta({{1.0, 2.0}, {1.5, 3.0}}), Error); // overlap
  EXPECT_THROW(validate_theta({{3.0, 4.0}, {1.0, 2.0}}), Error); // unordered
  EXPECT_NO_THROW(validate_theta({{-4.0, -1.0}, {7.0, 10.0}}));
  EXPECT_NO_THROW(validate_theta({{0.1, 2.5}}));
}

// Θ's intervals are CLOSED, so an endpoint at zero already puts 0 ∈ Θ:
// w(0) = 0 makes the GLS normal equations singular there (the quadrature
// weight 1/√((x−lo)(hi−x)) puts mass AT the endpoint).  Regression for
// the boundary cases the open-interval check used to wave through.
TEST(Intervals, ZeroEndpointsAreRejectedNotJustInteriorZeros) {
  EXPECT_THROW(validate_theta({{0.0, 1.0}}), Error);    // lo == 0
  EXPECT_THROW(validate_theta({{-1.0, 0.0}}), Error);   // hi == 0
  EXPECT_THROW(validate_theta({{0.0, 0.0}}), Error);    // degenerate at 0
  EXPECT_THROW(validate_theta({{-2.0, -1.0}, {0.0, 3.0}}), Error);
  EXPECT_THROW(validate_theta({{-3.0, 0.0}, {1.0, 2.0}}), Error);
  // Endpoints merely NEAR zero stay legal — the rule is 0 ∉ [lo, hi],
  // not a distance cutoff (default_theta_after_scaling relies on it).
  EXPECT_NO_THROW(validate_theta({{1e-300, 1.0}}));
  EXPECT_NO_THROW(validate_theta({{-1.0, -1e-300}}));
}

TEST(Intervals, Contains) {
  const Theta t{{-4.0, -1.0}, {7.0, 10.0}};
  EXPECT_TRUE(theta_contains(t, -2.0));
  EXPECT_TRUE(theta_contains(t, 7.0));
  EXPECT_FALSE(theta_contains(t, 0.0));
  EXPECT_FALSE(theta_contains(t, 5.0));
}

TEST(Intervals, DefaultThetaIsEpsilonToOne) {
  const Theta t = default_theta_after_scaling();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_GT(t[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(t[0].hi, 1.0);
}

TEST(OrthoBasis, OrthonormalUnderDiscreteMeasure) {
  const QuadratureRule rule = chebyshev_rule({{0.1, 2.5}}, 128);
  const OrthoBasis basis(rule, 8);
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; ++j) {
      real_t s = 0.0;
      const auto qi = basis.node_values(i);
      const auto qj = basis.node_values(j);
      for (std::size_t k = 0; k < rule.nodes.size(); ++k)
        s += rule.weights[k] * qi[k] * qj[k];
      EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-10)
          << "inner(" << i << "," << j << ")";
    }
  }
}

TEST(OrthoBasis, RecurrenceMatchesNodeValues) {
  // The φ recurrence the polynomial runs reproduces the basis values
  // stored at the construction nodes: P(λ_j) = Σ μ_i φ_i(λ_j).
  const GlsPolynomial p({{0.5, 1.5}}, 5);
  const OrthoBasis& basis = p.basis();
  for (const std::size_t j : {3, 10, 40}) {
    real_t expect = 0.0;
    for (int i = 0; i <= 5; ++i)
      expect += p.mu()[static_cast<std::size_t>(i)] * basis.node_values(i)[j];
    EXPECT_NEAR(p.eval(basis.nodes()[j]), expect,
                1e-12 * (1.0 + std::abs(expect)));
  }
}

TEST(OrthoBasis, ChebyshevRuleCoversIntervals) {
  const Theta theta{{-4.0, -1.0}, {7.0, 10.0}};
  const QuadratureRule rule = chebyshev_rule(theta, 32);
  ASSERT_EQ(rule.nodes.size(), 64u);
  for (real_t x : rule.nodes) EXPECT_TRUE(theta_contains(theta, x));
}

TEST(Neumann, EvalEqualsGeometricSum) {
  const NeumannPolynomial p(6, 0.8);
  const real_t lambda = 0.7;
  real_t direct = 0.0;
  for (int i = 0; i <= 6; ++i)
    direct += std::pow(1.0 - 0.8 * lambda, i);
  direct *= 0.8;
  EXPECT_NEAR(p.eval(lambda), direct, 1e-14);
}

TEST(Neumann, ResidualIsGPower) {
  // With ω = 1: 1 − λP_m(λ) = (1−λ)^{m+1}.
  const NeumannPolynomial p(4, 1.0);
  for (real_t lambda : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(p.residual(lambda), std::pow(1.0 - lambda, 5), 1e-14);
  }
}

TEST(Neumann, PowerCoeffsConsistentWithEval) {
  const NeumannPolynomial p(7, 0.9);
  const Vector c = p.power_coeffs();
  ASSERT_EQ(c.size(), 8u);
  for (real_t lambda : {0.2, 0.55, 1.1}) {
    real_t horner = 0.0;
    for (int k = 7; k >= 0; --k)
      horner = horner * lambda + c[static_cast<std::size_t>(k)];
    EXPECT_NEAR(horner, p.eval(lambda), 1e-12);
  }
}

TEST(Neumann, ApplyOnDiagonalMatrixMatchesScalarEval) {
  const Vector eigs{0.1, 0.3, 0.6, 0.95};
  const sparse::CsrMatrix a = sparse::diagonal_matrix(eigs);
  const NeumannPolynomial p(10, 1.0);
  PolyPrecond pc(LinearOp::from_csr(a),
                 PolySpec{.kind = PolyKind::Neumann, .degree = 10});
  Vector v(4, 1.0), z(4);
  pc.apply(v, z);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(z[i], p.eval(eigs[i]), 1e-12);
}

TEST(Neumann, ResidualShrinksWithDegreeInsideUnitDisc) {
  // Fig. 1 behaviour: higher m pushes 1 − λP(λ) toward 0 on (0, 1).
  real_t prev = 1.0;
  for (int m : {1, 3, 5, 9, 15}) {
    const NeumannPolynomial p(m, 1.0);
    const real_t r = std::abs(p.residual(0.5));
    EXPECT_LT(r, prev);
    prev = r;
  }
  EXPECT_LT(prev, 1e-4);
}

TEST(Gls, ResidualSupDecreasesWithDegree) {
  // Fig. 2(a): Θ = (0.1, 2.5), increasing m drives sup|1 − λP| down.
  const Theta theta{{0.1, 2.5}};
  const real_t sup2 = GlsPolynomial(theta, 2).residual_sup_on_theta();
  const real_t sup5 = GlsPolynomial(theta, 5).residual_sup_on_theta();
  const real_t sup10 = GlsPolynomial(theta, 10).residual_sup_on_theta();
  EXPECT_LT(sup5, sup2);
  EXPECT_LT(sup10, sup5);
  EXPECT_LT(sup10, 0.2);
}

TEST(Gls, WeightedL2ResidualMonotoneInDegree) {
  // ‖1 − λP_m‖_w is non-increasing in m (nested approximation spaces).
  const Theta theta{{-4.0, -1.0}, {7.0, 10.0}};
  const QuadratureRule rule = chebyshev_rule(theta, 256);
  real_t prev = 1e300;
  for (int m : {0, 1, 2, 4, 8, 12}) {
    const GlsPolynomial p(theta, m);
    real_t l2 = 0.0;
    for (std::size_t k = 0; k < rule.nodes.size(); ++k) {
      const real_t r = p.residual(rule.nodes[k]);
      l2 += rule.weights[k] * r * r;
    }
    EXPECT_LE(l2, prev * (1.0 + 1e-12)) << "degree " << m;
    prev = l2;
  }
}

TEST(Gls, ApplyOnDiagonalMatrixMatchesScalarEval) {
  const Vector eigs{0.15, 0.4, 1.1, 2.2};
  const sparse::CsrMatrix a = sparse::diagonal_matrix(eigs);
  const GlsPolynomial p({{0.1, 2.5}}, 7);
  PolyPrecond pc(
      LinearOp::from_csr(a),
      PolySpec{.kind = PolyKind::Gls, .degree = 7, .theta = {{0.1, 2.5}}});
  Vector v{1.0, -2.0, 0.5, 3.0}, z(4);
  pc.apply(v, z);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(z[i], p.eval(eigs[i]) * v[i], 1e-10);
}

TEST(Gls, HandlesIndefiniteMultiIntervalTheta) {
  // Fig. 2(b): Θ on both sides of 0 — symmetric indefinite systems.
  const Theta theta{{-4.0, -1.0}, {7.0, 10.0}};
  const GlsPolynomial p(theta, 12);
  EXPECT_LT(p.residual_sup_on_theta(), 0.65);
  // p must flip sign between the negative and positive intervals so that
  // λ·p(λ) > 0 on both: check 1 − λp < 1 at the interval centers.
  EXPECT_LT(std::abs(p.residual(-2.5)), 1.0);
  EXPECT_LT(std::abs(p.residual(8.5)), 1.0);
  EXPECT_GT(-2.5 * p.eval(-2.5), 0.0);
  EXPECT_GT(8.5 * p.eval(8.5), 0.0);
}

TEST(Gls, FourIntervalTheta) {
  // Fig. 2(c): four disjoint intervals.
  const Theta theta{{-6.0, -4.1}, {-3.9, -0.1}, {0.1, 5.9}, {6.1, 8.0}};
  const GlsPolynomial p(theta, 16);
  // The residual stays bounded by 1 on Θ (the LS fit drives it well
  // below 1 on most of Θ even with holes around 0).
  EXPECT_LT(p.residual_sup_on_theta(), 1.05);
}

TEST(Gls, PowerCoeffsConsistentWithEval) {
  const GlsPolynomial p({{0.1, 2.5}}, 6);
  const Vector c = p.power_coeffs();
  ASSERT_EQ(c.size(), 7u);
  for (real_t lambda : {0.2, 1.0, 2.3}) {
    real_t horner = 0.0;
    for (int k = 6; k >= 0; --k)
      horner = horner * lambda + c[static_cast<std::size_t>(k)];
    EXPECT_NEAR(horner, p.eval(lambda), 1e-9 * (1.0 + std::abs(horner)));
  }
}

TEST(Gls, StabilityBoundGrowsWithDegreeOnSplitTheta) {
  // Fig. 3: for Θ = (−4,−1) ∪ (7,10) the power-basis coefficient mass
  // Σ|a_i| explodes with the degree — the reason the paper restricts
  // m < 10 in practice.
  const Theta theta{{-4.0, -1.0}, {7.0, 10.0}};
  const real_t s4 = GlsPolynomial(theta, 4).coeff_abs_sum();
  const real_t s10 = GlsPolynomial(theta, 10).coeff_abs_sum();
  const real_t s16 = GlsPolynomial(theta, 16).coeff_abs_sum();
  const real_t s24 = GlsPolynomial(theta, 24).coeff_abs_sum();
  EXPECT_GT(s10, 2.0 * s4);
  EXPECT_GT(s16, 2.0 * s10);
  EXPECT_GT(s24, 2.0 * s16);
  EXPECT_GT(polynomial_stability_bound(16, s16),
            polynomial_stability_bound(4, s4));
}

TEST(Gls, StabilityBoundJustifiesDegreeBelowTen) {
  // Fig. 3(a) / §2.2 conclusion: on Θ = (ε, 1) the coefficient mass grows
  // like ~5.8^m, so the Eq. 24 error bound is still tiny at m = 10 but
  // useless past m ≈ 20 — "for all practical purposes the degree of the
  // polynomial should be restricted to less than 10."
  const Theta unit = default_theta_after_scaling();
  const real_t b10 = polynomial_stability_bound(
      10, GlsPolynomial(unit, 10).coeff_abs_sum());
  const real_t b24 = polynomial_stability_bound(
      24, GlsPolynomial(unit, 24).coeff_abs_sum());
  EXPECT_LT(b10, 1e-6);  // still far below the 1e-6 solver tolerance
  EXPECT_GT(b24, 1.0);   // complete loss of accuracy
}

TEST(Gls, Degree0IsBestConstant) {
  // m = 0: p = μ0·φ0 constant; the residual must still be a valid
  // least-squares fit (|1 − λp| <= 1 somewhere and p > 0 on a positive Θ).
  const GlsPolynomial p({{0.5, 1.5}}, 0);
  EXPECT_GT(p.eval(1.0), 0.0);
  EXPECT_LT(std::abs(p.residual(1.0)), 1.0);
}

TEST(Gls, RejectsThetaContainingZero) {
  EXPECT_THROW(GlsPolynomial({{-1.0, 1.0}}, 3), Error);
}

class GlsDegreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GlsDegreeSweep, PreconditionedSpectrumInsideUnitDisc) {
  // For λ ∈ Θ the GMRES-relevant quantity |1 − λP(λ)| must be < 1 so the
  // preconditioned spectrum clusters around 1 (Θ = (0.05, 1), the
  // post-scaling situation).
  const int m = GetParam();
  const GlsPolynomial p({{0.05, 1.0}}, m);
  EXPECT_LT(p.residual_sup_on_theta(), 1.0) << "degree " << m;
}

TEST_P(GlsDegreeSweep, ApplyIsLinear) {
  const int m = GetParam();
  const sparse::CsrMatrix a = sparse::tridiag(12, 0.6, -0.15);
  PolyPrecond p(
      LinearOp::from_csr(a),
      PolySpec{.kind = PolyKind::Gls, .degree = m, .theta = {{0.05, 1.0}}});
  Vector u(12), v(12), zu(12), zv(12), zsum(12), uv(12);
  for (std::size_t i = 0; i < 12; ++i) {
    u[i] = std::sin(double(i) + 1.0);
    v[i] = std::cos(2.0 * double(i));
    uv[i] = 2.0 * u[i] - 3.0 * v[i];
  }
  p.apply(u, zu);
  p.apply(v, zv);
  p.apply(uv, zsum);
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_NEAR(zsum[i], 2.0 * zu[i] - 3.0 * zv[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Degrees, GlsDegreeSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 10, 15, 20));

}  // namespace
}  // namespace pfem::core
