#include "core/orthopoly.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace pfem::core {

QuadratureRule chebyshev_rule(const Theta& theta, int points_per_interval) {
  validate_theta(theta);
  PFEM_CHECK(points_per_interval >= 1);
  QuadratureRule rule;
  const auto k = static_cast<std::size_t>(points_per_interval);
  rule.nodes.reserve(theta.size() * k);
  rule.weights.reserve(theta.size() * k);
  for (const Interval& iv : theta) {
    const real_t c = 0.5 * (iv.lo + iv.hi);
    const real_t r = 0.5 * (iv.hi - iv.lo);
    const real_t w = std::numbers::pi_v<real_t> /
                     static_cast<real_t>(points_per_interval);
    for (int j = 0; j < points_per_interval; ++j) {
      const real_t t = (static_cast<real_t>(j) + 0.5) * w;
      rule.nodes.push_back(c + r * std::cos(t));
      rule.weights.push_back(w);
    }
  }
  return rule;
}

OrthoBasis::OrthoBasis(const QuadratureRule& rule, int max_degree)
    : m_(max_degree), nodes_(rule.nodes) {
  PFEM_CHECK(max_degree >= 0);
  PFEM_CHECK(rule.nodes.size() == rule.weights.size());
  PFEM_CHECK_MSG(rule.nodes.size() > static_cast<std::size_t>(max_degree),
                 "need more quadrature nodes than the polynomial degree");
  const std::size_t nq = nodes_.size();
  const Vector& w = rule.weights;

  auto inner = [&](const Vector& f, const Vector& g) {
    real_t s = 0.0;
    for (std::size_t j = 0; j < nq; ++j) s += w[j] * f[j] * g[j];
    return s;
  };

  alpha_.assign(static_cast<std::size_t>(m_), 0.0);
  sqrt_beta_.assign(static_cast<std::size_t>(m_) + 1, 0.0);
  phi_.assign(static_cast<std::size_t>(m_) + 1, Vector(nq, 0.0));

  // phi_0 = 1 / ||1||.
  Vector ones(nq, 1.0);
  const real_t norm0 = std::sqrt(inner(ones, ones));
  PFEM_CHECK_MSG(norm0 > 0.0, "measure has zero mass");
  sqrt_beta_[0] = norm0;
  for (std::size_t j = 0; j < nq; ++j) phi_[0][j] = 1.0 / norm0;

  Vector t(nq);
  for (int i = 0; i < m_; ++i) {
    const Vector& cur = phi_[static_cast<std::size_t>(i)];
    // alpha_i = <x phi_i, phi_i>.
    real_t a = 0.0;
    for (std::size_t j = 0; j < nq; ++j)
      a += w[j] * nodes_[j] * cur[j] * cur[j];
    alpha_[static_cast<std::size_t>(i)] = a;

    for (std::size_t j = 0; j < nq; ++j) {
      t[j] = (nodes_[j] - a) * cur[j];
      if (i > 0)
        t[j] -= sqrt_beta_[static_cast<std::size_t>(i)] *
                phi_[static_cast<std::size_t>(i) - 1][j];
    }
    const real_t nb = std::sqrt(inner(t, t));
    PFEM_CHECK_MSG(nb > 1e-300,
                   "Stieltjes breakdown at degree "
                       << i + 1 << " (measure supports fewer polynomials)");
    sqrt_beta_[static_cast<std::size_t>(i) + 1] = nb;
    for (std::size_t j = 0; j < nq; ++j)
      phi_[static_cast<std::size_t>(i) + 1][j] = t[j] / nb;
  }
}

real_t OrthoBasis::alpha(int i) const {
  PFEM_CHECK(i >= 0 && i < m_);
  return alpha_[static_cast<std::size_t>(i)];
}

real_t OrthoBasis::sqrt_beta(int i) const {
  PFEM_CHECK(i >= 0 && i <= m_);
  return sqrt_beta_[static_cast<std::size_t>(i)];
}

std::span<const real_t> OrthoBasis::node_values(int i) const {
  PFEM_CHECK(i >= 0 && i <= m_);
  return phi_[static_cast<std::size_t>(i)];
}

}  // namespace pfem::core
