#include "core/neumann.hpp"

#include <limits>

#include "common/error.hpp"

namespace pfem::core {

NeumannPolynomial::NeumannPolynomial(int degree, real_t omega)
    : rec_(PolySpec{.kind = PolyKind::Neumann,
                    .degree = degree,
                    .omega = omega},
           nullptr) {
  PFEM_CHECK(degree >= 0);
  PFEM_CHECK(omega != 0.0);
}

real_t polynomial_stability_bound(int degree, real_t coeff_abs_sum) {
  return static_cast<real_t>(degree) *
         std::numeric_limits<real_t>::epsilon() * coeff_abs_sum;
}

}  // namespace pfem::core
