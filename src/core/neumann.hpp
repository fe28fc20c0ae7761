// Neumann-series polynomial preconditioner (§2.1.2, Algorithm 7).
//
// P_m(A) = ω (I + G + G² + ... + G^m),  G = I − ωA,
// valid whenever ρ(G) < 1 (Theorem 2) — guaranteed with ω = 1 after the
// norm-1 diagonal scaling maps σ(A) into (0,1).  This class is the
// scalar side (Figs. 1 and 3).  The recurrence itself — w_0 = v,
// w_k = v + G w_{k-1}, z = ω w_m, m mat-vecs — is core::Polynomial's,
// which the sequential, EDD and RDD solvers share (in the distributed
// ones each mat-vec embeds one nearest-neighbor exchange, giving the
// paper's per-iteration exchange count); eval and power_coeffs run it
// on a scalar and on power-basis coefficients.
#pragma once

#include "common/types.hpp"
#include "core/polynomial.hpp"

namespace pfem::core {

class NeumannPolynomial {
 public:
  /// @param degree m >= 0; degree 0 is ω·I.
  /// @param omega  series scaling; must satisfy ρ(I − ωA) < 1.
  explicit NeumannPolynomial(int degree, real_t omega = 1.0);

  [[nodiscard]] int degree() const noexcept { return rec_.spec().degree; }
  [[nodiscard]] real_t omega() const noexcept { return rec_.spec().omega; }

  /// Scalar evaluation P_m(λ) (for the Fig. 1 residual plots).
  [[nodiscard]] real_t eval(real_t lambda) const { return rec_.eval(lambda); }

  /// Residual polynomial 1 − λ P_m(λ).
  [[nodiscard]] real_t residual(real_t lambda) const {
    return 1.0 - lambda * eval(lambda);
  }

  /// Coefficients a_0..a_m of P_m in the power basis (Eq. 23) — input to
  /// the Fig. 3 stability bound m·ε·Σ|a_i| (Eq. 24).
  [[nodiscard]] Vector power_coeffs() const { return rec_.power_coeffs(); }

  /// Σ|a_i| of the power-basis coefficients.
  [[nodiscard]] real_t coeff_abs_sum() const { return rec_.coeff_abs_sum(); }

 private:
  Polynomial rec_;
};

/// Eq. 24: upper bound on the floating-point error of P_m(A)v.
[[nodiscard]] real_t polynomial_stability_bound(int degree,
                                                real_t coeff_abs_sum);

}  // namespace pfem::core
