#include "core/chebyshev.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pfem::core {

ChebyshevPolynomial::ChebyshevPolynomial(Interval interval, int degree)
    : rec_(PolySpec{.kind = PolyKind::Chebyshev,
                    .degree = degree,
                    .theta = {interval}},
           nullptr) {
  PFEM_CHECK_MSG(interval.lo > 0.0 && interval.lo < interval.hi,
                 "Chebyshev preconditioner needs 0 < a < b");
  PFEM_CHECK(degree >= 0);
}

real_t ChebyshevPolynomial::minimax_bound() const {
  // 1 / T_{m+1}(t0), t0 = theta/delta > 1, via the stable cosh form.
  const Interval& iv = interval();
  const real_t t0 = (0.5 * (iv.lo + iv.hi)) / (0.5 * (iv.hi - iv.lo));
  const real_t acosh_t0 = std::log(t0 + std::sqrt(t0 * t0 - 1.0));
  return 1.0 / std::cosh(static_cast<real_t>(degree() + 1) * acosh_t0);
}

}  // namespace pfem::core
