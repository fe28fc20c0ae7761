// Orthogonal polynomial machinery for the GLS preconditioner (§2.1.3).
//
// The GLS least-squares problem min ‖1 − λP_m(λ)‖_w over Θ is solved, as
// in the paper (via Saad [15]), by constructing an orthogonal sequence
// {λφ_i(λ)} with the Stieltjes procedure and expanding
// P_m = Σ μ_i φ_i with μ_i = ⟨1, λφ_i⟩_w (Eqs. 20–21).
//
// Concretely: {λφ_i} orthonormal under w  ⇔  {φ_i} orthonormal under the
// modified weight λ²w(λ).  So we
//   1. lay a composite Gauss–Chebyshev rule over Θ (w = the Chebyshev
//      weight of each interval — the classical choice, [15]);
//   2. run Stieltjes three-term recursion on the *discrete* measure with
//      weights λ_j² w_j to get orthonormal φ_0..φ_m
//      (φ_{i+1} = ((λ−α_i)φ_i − √β_i φ_{i−1}) / √β_{i+1});
//   3. compute μ_i = Σ_j w_j λ_j φ_i(λ_j).
// The recursion coefficients are exactly what the vector-space
// application P_m(A)v runs on — m SpMVs, nothing else.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/intervals.hpp"

namespace pfem::core {

/// Discrete quadrature measure: Σ_j weights[j] · δ(nodes[j]).
struct QuadratureRule {
  Vector nodes;
  Vector weights;
};

/// Composite Gauss–Chebyshev rule over Θ: per interval (a,b), nodes
/// c + r·cos((j+½)π/K) with uniform weights π/K (exact for polynomial
/// integrands of degree ≤ 2K−1 against the interval's Chebyshev weight).
[[nodiscard]] QuadratureRule chebyshev_rule(const Theta& theta,
                                            int points_per_interval);

/// Orthonormal polynomials of a discrete measure via the Stieltjes
/// procedure.  Stores recursion coefficients and node values.
class OrthoBasis {
 public:
  /// Build φ_0..φ_max_degree orthonormal w.r.t. Σ w_j δ(x_j).
  /// Requires enough distinct nodes (> max_degree) and positive weights.
  OrthoBasis(const QuadratureRule& rule, int max_degree);

  [[nodiscard]] int max_degree() const noexcept { return m_; }

  /// Recursion coefficients: α_i (i = 0..m−1), √β_i (i = 1..m), and
  /// √β_0 = ‖1‖ so that φ_0 = 1/√β_0.
  [[nodiscard]] real_t alpha(int i) const;
  [[nodiscard]] real_t sqrt_beta(int i) const;  // i = 0..m

  /// Values of φ_i at the construction nodes (for computing inner
  /// products of the fit).
  [[nodiscard]] std::span<const real_t> node_values(int i) const;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::span<const real_t> nodes() const { return nodes_; }

 private:
  int m_;
  Vector nodes_;
  Vector alpha_;      // m entries
  Vector sqrt_beta_;  // m+1 entries: [0] = ||1||, [i>=1] from recursion
  std::vector<Vector> phi_;  // (m+1) x nodes
};

}  // namespace pfem::core
