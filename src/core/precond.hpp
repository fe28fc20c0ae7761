// Preconditioner interface and the standard implementations.
//
// FGMRES (flexible GMRES) only requires z = C v at each inner step and
// allows C to change between steps — which is what lets one interface
// cover identity/Jacobi, ILU(0) triangular solves, and the polynomial
// preconditioners whose application is a sequence of mat-vecs.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "core/operator.hpp"
#include "core/polynomial.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/iluk.hpp"

namespace pfem::core {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z <- C v.  v and z must not alias.
  virtual void apply(std::span<const real_t> v, std::span<real_t> z) = 0;

  /// Human-readable name for experiment tables ("GLS(7)", "ILU(0)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Mat-vec-equivalent applications of A per apply() (0 when none),
  /// used by the complexity accounting.
  [[nodiscard]] virtual int matvecs_per_apply() const { return 0; }
};

/// C = I.
class IdentityPrecond final : public Preconditioner {
 public:
  void apply(std::span<const real_t> v, std::span<real_t> z) override;
  [[nodiscard]] std::string name() const override { return "none"; }
};

/// C = diag(A)^{-1} (Jacobi).
class JacobiPrecond final : public Preconditioner {
 public:
  explicit JacobiPrecond(const sparse::CsrMatrix& a);
  void apply(std::span<const real_t> v, std::span<real_t> z) override;
  [[nodiscard]] std::string name() const override { return "Jacobi"; }

 private:
  Vector inv_diag_;
};

/// C ≈ A^{-1} by ILU(0) triangular solves.
class Ilu0Precond final : public Preconditioner {
 public:
  explicit Ilu0Precond(const sparse::CsrMatrix& a);
  void apply(std::span<const real_t> v, std::span<real_t> z) override;
  [[nodiscard]] std::string name() const override { return "ILU(0)"; }

 private:
  sparse::Ilu0 ilu_;
};

/// C ≈ A^{-1} by level-k incomplete factorization (the paper's ILU(k)).
class IlukPrecond final : public Preconditioner {
 public:
  IlukPrecond(const sparse::CsrMatrix& a, int level);
  void apply(std::span<const real_t> v, std::span<real_t> z) override;
  [[nodiscard]] std::string name() const override {
    return "ILU(" + std::to_string(iluk_.level()) + ")";
  }
  [[nodiscard]] const sparse::IluK& factorization() const noexcept {
    return iluk_;
  }

 private:
  sparse::IluK iluk_;
};

/// C = P_m(A) for any PolySpec (Neumann, GLS, Chebyshev; None is C = I):
/// the shared Polynomial recurrence, stepping through `a`.
class PolyPrecond final : public Preconditioner {
 public:
  PolyPrecond(LinearOp a, const PolySpec& spec);
  void apply(std::span<const real_t> v, std::span<real_t> z) override;
  [[nodiscard]] std::string name() const override {
    return poly_.spec().name();
  }
  [[nodiscard]] int matvecs_per_apply() const override {
    return poly_.steps();
  }

 private:
  LinearOp a_;
  Polynomial poly_;
  PolyScratch work_;
  Vector v_, z_;  ///< the single lane's input and output
};

/// Adapter for ad-hoc preconditioners (distributed closures, tests).
class FunctionPrecond final : public Preconditioner {
 public:
  using Fn = std::function<void(std::span<const real_t>, std::span<real_t>)>;
  FunctionPrecond(std::string name, Fn fn, int matvecs = 0)
      : name_(std::move(name)), fn_(std::move(fn)), matvecs_(matvecs) {}
  void apply(std::span<const real_t> v, std::span<real_t> z) override {
    fn_(v, z);
  }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int matvecs_per_apply() const override { return matvecs_; }

 private:
  std::string name_;
  Fn fn_;
  int matvecs_;
};

}  // namespace pfem::core
