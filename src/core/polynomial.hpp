// The polynomial preconditioner every solver applies (§2.1, Algorithm 7).
//
// Applying P_m(Â)v is m mat-vecs through whatever operator the caller
// has, so one recurrence per polynomial serves the sequential solvers (a
// LinearOp), EDD (a kernel apply fused with the nearest-neighbor
// exchange, in either vector format) and RDD (the Eq.-48 mat-vec).  A
// Polynomial is built once from a validated PolySpec, with the GLS
// basis/μ or the Chebyshev step coefficients precomputed; apply() runs
// the Neumann, GLS or Chebyshev recurrence on a set of lanes in lockstep
// and calls the caller's `step(in, out)` (out_i = Â in_i for every lane)
// exactly steps() times.  The step is the only callback: the per-element
// loops are plain loops.  The scalar side of Figs. 1–3 (P(λ) and the
// power-basis coefficients) runs the same recurrence with λ·x, resp. a
// shift of the coefficient vector, as the step.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/intervals.hpp"

namespace pfem::core {

class GlsPolynomial;

enum class PolyKind { None, Neumann, Gls, Chebyshev };

/// Which polynomial preconditioner to build (each rank of a distributed
/// solver builds it redundantly — no communication, the paper's point).
struct PolySpec {
  PolyKind kind = PolyKind::Gls;
  int degree = 7;
  real_t omega = 1.0;  ///< Neumann scaling (1 is valid after norm-1 scaling)
  /// GLS spectrum estimate; Chebyshev uses theta.front() (single positive
  /// interval required).
  Theta theta = default_theta_after_scaling();

  [[nodiscard]] std::string name() const;
};

/// Validate a PolySpec, throwing pfem::Error with a clear message instead
/// of letting a bad spec silently misbuild:
///   - any polynomial kind needs degree >= 1 (None ignores the degree);
///   - GLS needs a valid Eq.-18 Theta (non-empty, ordered, 0 excluded);
///   - Chebyshev needs exactly one strictly positive interval (the
///     semi-iteration has no multi-interval form).
void validate_poly_spec(const PolySpec& spec);

/// Per-lane recursion vectors of Polynomial::apply, for up to `width`
/// lanes of length n.  `x` is the step input, `ax` the step output; `in`
/// and `out` point into them, so a copy would alias (moves keep them).
struct PolyScratch {
  PolyScratch(std::size_t width, std::size_t n);
  PolyScratch(const PolyScratch&) = delete;
  PolyScratch& operator=(const PolyScratch&) = delete;
  PolyScratch(PolyScratch&&) = default;
  PolyScratch& operator=(PolyScratch&&) = default;

  std::vector<Vector> p, x, ax;  ///< p: GLS u_{k-1}, Chebyshev residual
  std::vector<const Vector*> in;
  std::vector<Vector*> out;
};

class Polynomial {
 public:
  /// Validates `spec` (validate_poly_spec) and builds its recursion data.
  explicit Polynomial(const PolySpec& spec);

  [[nodiscard]] const PolySpec& spec() const noexcept { return spec_; }

  /// Mat-vecs per apply: the degree, 0 for PolyKind::None.
  [[nodiscard]] int steps() const noexcept {
    return spec_.kind == PolyKind::None ? 0 : spec_.degree;
  }

  /// Vector flops of one apply per lane of length n (mat-vecs excluded),
  /// and its vector updates (one per step).
  [[nodiscard]] std::uint64_t flops_per_lane(std::size_t n) const;
  [[nodiscard]] std::uint64_t updates_per_lane() const {
    return static_cast<std::uint64_t>(steps());
  }

  /// Flop estimate of the build: the GLS Stieltjes recursion and μ fit,
  /// ~10 flops per quadrature node and basis degree (0 for other kinds).
  [[nodiscard]] std::uint64_t build_flops() const noexcept {
    return build_flops_;
  }

  /// Scalar P(λ): the recurrence on one scalar lane, step x -> λx.
  [[nodiscard]] real_t eval(real_t lambda) const;

  /// Power-basis coefficients a_0..a_m of P (Eq. 23): the recurrence on
  /// coefficient vectors, step = multiplication by λ (a shift).
  [[nodiscard]] Vector power_coeffs() const;

  /// Σ|a_i| over the power basis (the Eq.-24 stability bound's input).
  [[nodiscard]] real_t coeff_abs_sum() const;

  /// z_i <- P(Â) v_i for every lane i; `step(in, out)` must set
  /// *out[k] = Â *in[k] for every k.  v and z must not alias.
  template <class Step>
  void apply(std::span<const Vector* const> v, std::span<Vector* const> z,
             PolyScratch& work, Step&& step) const {
    const std::size_t nb = v.size();
    stage(-1, v, z, work);
    for (int k = 0; k < steps(); ++k) {
      step(std::span<const Vector* const>(work.in).first(nb),
           std::span<Vector* const>(work.out).first(nb));
      stage(k, v, z, work);
    }
  }

 private:
  friend class NeumannPolynomial;
  friend class GlsPolynomial;
  friend class ChebyshevPolynomial;

  /// Unvalidated build for the scalar classes, which also allow degree 0;
  /// `fit` supplies the GLS basis and μ (fitted here when null).
  Polynomial(const PolySpec& spec, const GlsPolynomial* fit);

  /// The per-lane vector work before the first step (k = -1) and after
  /// step k.
  void stage(int k, std::span<const Vector* const> v,
             std::span<Vector* const> z, PolyScratch& w) const;

  /// Scalars of step k: GLS {α_k, √β_k, √β_{k+1}, μ_{k+1}}, Chebyshev
  /// {c1, c2}.
  struct StepCoef {
    real_t a = 0.0, b = 0.0, c = 0.0, d = 0.0;
  };

  PolySpec spec_;
  std::uint64_t build_flops_ = 0;
  real_t init_ = 0.0;  ///< GLS 1/√β_0, Chebyshev θ = (a+b)/2
  real_t mu0_ = 0.0;   ///< GLS μ_0
  std::vector<StepCoef> coef_;
};

}  // namespace pfem::core
