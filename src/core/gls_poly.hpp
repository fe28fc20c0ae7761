// Generalized least-squares (GLS) polynomial preconditioner (§2.1.3).
//
// Given a spectrum estimate Θ = ∪(l_k, h_k), 0 ∉ Θ, construct
//   P_m = argmin_{p ∈ P_m[Θ]} ‖1 − λ p(λ)‖_w
// with w the per-interval Chebyshev weight, via the orthogonal sequence
// {λφ_i} built by the Stieltjes procedure (see orthopoly.hpp):
//   P_m(λ) = Σ_{i=0}^m μ_i φ_i(λ),   μ_i = ⟨1, λφ_i⟩_w    (Eqs. 20–21)
// Application P_m(A)v runs the φ recursion in vector space: m mat-vecs,
// no factorization, no assembled matrix — the property that makes this
// the preconditioner of choice for the EDD solver.  That vector
// recursion is core::Polynomial (built from basis() and mu()); this
// class is the fit and its scalar side (Figs. 2 and 3).
#pragma once

#include <span>

#include "common/types.hpp"
#include "core/intervals.hpp"
#include "core/orthopoly.hpp"
#include "core/polynomial.hpp"

namespace pfem::core {

class GlsPolynomial {
 public:
  /// @param theta   spectrum estimate (validated per Eq. 18)
  /// @param degree  m >= 0
  /// @param points_per_interval quadrature resolution; default scales
  ///        with the degree so all inner products are exact.
  GlsPolynomial(Theta theta, int degree, int points_per_interval = 0);

  [[nodiscard]] int degree() const noexcept { return m_; }
  [[nodiscard]] const Theta& theta() const noexcept { return theta_; }

  /// Scalar P_m(λ) (Fig. 2 residual plots).
  [[nodiscard]] real_t eval(real_t lambda) const { return rec_.eval(lambda); }

  /// Residual polynomial 1 − λ P_m(λ).
  [[nodiscard]] real_t residual(real_t lambda) const {
    return 1.0 - lambda * eval(lambda);
  }

  /// max |1 − λP_m(λ)| sampled over Θ (convergence-quality metric).
  [[nodiscard]] real_t residual_sup_on_theta(int samples_per_interval = 512)
      const;

  /// Power-basis coefficients a_0..a_m of P_m (Eq. 23, Fig. 3 input).
  [[nodiscard]] Vector power_coeffs() const { return rec_.power_coeffs(); }

  /// Σ|a_i| over the power basis.
  [[nodiscard]] real_t coeff_abs_sum() const { return rec_.coeff_abs_sum(); }

  /// Recursion data of the φ recurrence (run by core::Polynomial).
  [[nodiscard]] const OrthoBasis& basis() const noexcept { return basis_; }
  [[nodiscard]] std::span<const real_t> mu() const noexcept { return mu_; }

 private:
  Theta theta_;
  int m_;
  OrthoBasis basis_;   // orthonormal under λ²w
  Vector mu_;          // μ_0..μ_m
  Polynomial rec_;     // the recurrence over basis_ and mu_
};

}  // namespace pfem::core
