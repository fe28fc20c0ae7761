// Chebyshev polynomial preconditioner — the classical min-max member of
// the polynomial family the paper surveys ("Neumann series,
// least-squares, Chebyshev etc.", §2.1.3).
//
// For SPD systems with σ(A) ⊂ [a, b], 0 < a < b, the degree-m polynomial
// minimizing max_{λ∈[a,b]} |1 − λp(λ)| satisfies
//   1 − λ p_m(λ) = T_{m+1}(t(λ)) / T_{m+1}(t(0)),
//   t(λ) = (b + a − 2λ)/(b − a),
// and p_m(A)v is exactly m steps of the Chebyshev semi-iteration
// (Golub–Varga three-term recurrence) applied to A z = v from z = 0 —
// i.e. m mat-vecs through the shared recurrence the other polynomials
// use (core::Polynomial; this class is the scalar side).  Unlike GLS it
// requires a single positive interval; its min-max (∞-norm) optimality
// makes it the natural cross-check for the GLS least-squares (w-norm)
// fit on Θ = (ε, 1).
#pragma once

#include "common/types.hpp"
#include "core/intervals.hpp"
#include "core/polynomial.hpp"

namespace pfem::core {

class ChebyshevPolynomial {
 public:
  /// @param interval spectrum bound [a, b] with 0 < a < b
  /// @param degree   m >= 0 (degree 0 is the optimal constant 2/(a+b))
  ChebyshevPolynomial(Interval interval, int degree);

  [[nodiscard]] int degree() const noexcept { return rec_.spec().degree; }
  [[nodiscard]] const Interval& interval() const noexcept {
    return rec_.spec().theta.front();
  }

  /// Scalar p_m(λ).
  [[nodiscard]] real_t eval(real_t lambda) const { return rec_.eval(lambda); }

  /// Residual 1 − λ p_m(λ) = T_{m+1}(t(λ))/T_{m+1}(t0).
  [[nodiscard]] real_t residual(real_t lambda) const {
    return 1.0 - lambda * eval(lambda);
  }

  /// The min-max value on [a,b]: 1/T_{m+1}(t0) (all |residual| <= this).
  [[nodiscard]] real_t minimax_bound() const;

  /// Power-basis coefficients a_0..a_m (Eq. 23 / Fig. 3 input).
  [[nodiscard]] Vector power_coeffs() const { return rec_.power_coeffs(); }

  [[nodiscard]] real_t coeff_abs_sum() const { return rec_.coeff_abs_sum(); }

 private:
  Polynomial rec_;
};

}  // namespace pfem::core
