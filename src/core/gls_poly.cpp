#include "core/gls_poly.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pfem::core {

namespace {

/// The Chebyshev-weight quadrature on Θ; the default resolution scales
/// with the degree so all inner products are exact.
QuadratureRule w_rule(const Theta& theta, int degree, int points_per_interval) {
  validate_theta(theta);
  PFEM_CHECK(degree >= 0);
  return chebyshev_rule(theta, points_per_interval > 0
                                   ? points_per_interval
                                   : std::max(64, 8 * (degree + 1)));
}

/// The φ basis: orthonormal under the modified measure λ²·w, so that
/// {λφ_i} is orthonormal under w.
OrthoBasis modified_basis(QuadratureRule rule, int degree) {
  for (std::size_t j = 0; j < rule.nodes.size(); ++j)
    rule.weights[j] *= rule.nodes[j] * rule.nodes[j];
  return OrthoBasis(rule, degree);
}

/// μ_i = <1, λ φ_i>_w = Σ_j w_j λ_j φ_i(λ_j), with φ_i evaluated at the
/// shared node set (w-rule and modified rule share nodes).
Vector fit_mu(const OrthoBasis& basis, const QuadratureRule& w, int degree) {
  Vector mu(static_cast<std::size_t>(degree) + 1, 0.0);
  for (int i = 0; i <= degree; ++i) {
    const auto phi = basis.node_values(i);
    real_t s = 0.0;
    for (std::size_t j = 0; j < w.nodes.size(); ++j)
      s += w.weights[j] * w.nodes[j] * phi[j];
    mu[static_cast<std::size_t>(i)] = s;
  }
  return mu;
}

}  // namespace

GlsPolynomial::GlsPolynomial(Theta theta, int degree, int points_per_interval)
    : theta_(std::move(theta)),
      m_(degree),
      basis_(modified_basis(w_rule(theta_, degree, points_per_interval),
                            degree)),
      mu_(fit_mu(basis_, w_rule(theta_, degree, points_per_interval),
                 degree)),
      rec_(PolySpec{.kind = PolyKind::Gls, .degree = degree, .theta = theta_},
           this) {}

real_t GlsPolynomial::residual_sup_on_theta(int samples_per_interval) const {
  PFEM_CHECK(samples_per_interval >= 2);
  real_t sup = 0.0;
  for (const Interval& iv : theta_) {
    for (int k = 0; k < samples_per_interval; ++k) {
      const real_t lambda =
          iv.lo + (iv.hi - iv.lo) * static_cast<real_t>(k) /
                      static_cast<real_t>(samples_per_interval - 1);
      sup = std::max(sup, std::abs(residual(lambda)));
    }
  }
  return sup;
}

}  // namespace pfem::core
