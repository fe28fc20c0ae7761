// Abstract linear operator of the sequential solvers (fgmres, pcg,
// bicgstab) and of the sequential polynomial preconditioner PolyPrecond.
//
// A polynomial preconditioner needs nothing but mat-vec products, so
// core::Polynomial runs its recurrence over a caller-supplied step: here
// a LinearOp apply (usually a CSR SpMV); in the EDD/RDD solvers the
// *distributed* mat-vec (local SpMV + nearest-neighbor exchange), which
// is precisely how the paper parallelizes preconditioning at zero extra
// machinery.  The distributed solvers pass their step directly rather
// than wrapping it in a LinearOp.
#pragma once

#include <functional>
#include <span>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace pfem::core {

class LinearOp {
 public:
  using ApplyFn =
      std::function<void(std::span<const real_t>, std::span<real_t>)>;

  LinearOp() = default;
  LinearOp(index_t n, ApplyFn fn) : n_(n), fn_(std::move(fn)) {}

  [[nodiscard]] index_t size() const noexcept { return n_; }

  /// y <- A x.  x and y must not alias.
  void apply(std::span<const real_t> x, std::span<real_t> y) const {
    PFEM_DEBUG_CHECK(fn_ != nullptr);
    PFEM_DEBUG_CHECK(x.size() == static_cast<std::size_t>(n_));
    PFEM_DEBUG_CHECK(y.size() == static_cast<std::size_t>(n_));
    fn_(x, y);
  }

  /// Wrap a CSR matrix (no counters).
  [[nodiscard]] static LinearOp from_csr(const sparse::CsrMatrix& a) {
    PFEM_CHECK(a.rows() == a.cols());
    return LinearOp(a.rows(),
                    [&a](std::span<const real_t> x, std::span<real_t> y) {
                      a.spmv(x, y);
                    });
  }

 private:
  index_t n_ = 0;
  ApplyFn fn_;
};

}  // namespace pfem::core
