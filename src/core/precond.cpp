#include "core/precond.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pfem::core {

void IdentityPrecond::apply(std::span<const real_t> v, std::span<real_t> z) {
  PFEM_CHECK(v.size() == z.size());
  std::copy(v.begin(), v.end(), z.begin());
}

JacobiPrecond::JacobiPrecond(const sparse::CsrMatrix& a)
    : inv_diag_(a.diagonal()) {
  for (real_t& d : inv_diag_) {
    PFEM_CHECK_MSG(d != 0.0, "Jacobi: zero diagonal entry");
    d = 1.0 / d;
  }
}

void JacobiPrecond::apply(std::span<const real_t> v, std::span<real_t> z) {
  PFEM_CHECK(v.size() == inv_diag_.size() && z.size() == inv_diag_.size());
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) z[i] = inv_diag_[i] * v[i];
}

Ilu0Precond::Ilu0Precond(const sparse::CsrMatrix& a) : ilu_(a) {}

void Ilu0Precond::apply(std::span<const real_t> v, std::span<real_t> z) {
  ilu_.solve(v, z);
}

IlukPrecond::IlukPrecond(const sparse::CsrMatrix& a, int level)
    : iluk_(a, level) {}

void IlukPrecond::apply(std::span<const real_t> v, std::span<real_t> z) {
  iluk_.solve(v, z);
}

PolyPrecond::PolyPrecond(LinearOp a, const PolySpec& spec)
    : a_(std::move(a)),
      poly_(spec),
      work_(1, static_cast<std::size_t>(a_.size())),
      v_(static_cast<std::size_t>(a_.size())),
      z_(v_.size()) {}

void PolyPrecond::apply(std::span<const real_t> v, std::span<real_t> z) {
  PFEM_CHECK(v.size() == v_.size() && z.size() == z_.size());
  std::copy(v.begin(), v.end(), v_.begin());
  const Vector* const vin[1] = {&v_};
  Vector* const zout[1] = {&z_};
  poly_.apply(vin, zout, work_,
              [this](std::span<const Vector* const> in,
                     std::span<Vector* const> out) {
                a_.apply(*in[0], *out[0]);
              });
  std::copy(z_.begin(), z_.end(), z.begin());
}

}  // namespace pfem::core
