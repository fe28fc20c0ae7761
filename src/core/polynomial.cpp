#include "core/polynomial.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "core/gls_poly.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

std::string PolySpec::name() const {
  switch (kind) {
    case PolyKind::None: return "none";
    case PolyKind::Neumann: return "Neumann(" + std::to_string(degree) + ")";
    case PolyKind::Gls: return "GLS(" + std::to_string(degree) + ")";
    case PolyKind::Chebyshev: return "Cheb(" + std::to_string(degree) + ")";
  }
  return "?";
}

void validate_poly_spec(const PolySpec& spec) {
  if (spec.kind == PolyKind::None) return;
  PFEM_CHECK_MSG(spec.degree >= 1,
                 "polynomial preconditioner " << spec.name()
                 << ": degree must be >= 1");
  if (spec.kind == PolyKind::Gls) validate_theta(spec.theta);
  if (spec.kind == PolyKind::Chebyshev) {
    PFEM_CHECK_MSG(!spec.theta.empty(),
                   "Chebyshev preconditioner needs a spectrum interval "
                   "(theta is empty)");
    PFEM_CHECK_MSG(spec.theta.size() == 1,
                   "Chebyshev preconditioner needs a single interval, got "
                   << spec.theta.size()
                   << " (the semi-iteration has no multi-interval form; "
                      "use GLS for indefinite spectra)");
    PFEM_CHECK_MSG(spec.theta.front().lo < spec.theta.front().hi,
                   "Chebyshev interval is empty or inverted");
    PFEM_CHECK_MSG(spec.theta.front().lo > 0.0,
                   "Chebyshev preconditioner needs a strictly positive "
                   "interval (lo > 0)");
  }
}

PolyScratch::PolyScratch(std::size_t width, std::size_t n)
    : p(width, Vector(n)), x(width, Vector(n)), ax(width, Vector(n)) {
  for (std::size_t i = 0; i < width; ++i) {
    in.push_back(&x[i]);
    out.push_back(&ax[i]);
  }
}

Polynomial::Polynomial(const PolySpec& spec)
    : Polynomial((validate_poly_spec(spec), spec), nullptr) {}

Polynomial::Polynomial(const PolySpec& spec, const GlsPolynomial* fit)
    : spec_(spec) {
  if (spec_.kind == PolyKind::Gls) {
    std::optional<GlsPolynomial> own;
    if (fit == nullptr) fit = &own.emplace(spec_.theta, spec_.degree);
    const OrthoBasis& basis = fit->basis();
    const auto mu = fit->mu();
    build_flops_ = 10ull * static_cast<std::uint64_t>(spec_.degree + 1) *
                   static_cast<std::uint64_t>(basis.num_nodes());
    init_ = 1.0 / basis.sqrt_beta(0);
    mu0_ = mu[0];
    for (int k = 0; k < spec_.degree; ++k)
      coef_.push_back({basis.alpha(k), basis.sqrt_beta(k),
                       basis.sqrt_beta(k + 1),
                       mu[static_cast<std::size_t>(k) + 1]});
  } else if (spec_.kind == PolyKind::Chebyshev) {
    // Chebyshev semi-iteration on Â z = v from z = 0 (Saad Alg. 12.1):
    // the step coefficients depend only on the interval.
    const Interval iv = spec_.theta.front();
    const real_t theta = 0.5 * (iv.lo + iv.hi);
    const real_t delta = 0.5 * (iv.hi - iv.lo);
    const real_t sigma1 = theta / delta;
    init_ = theta;
    real_t rho = 1.0 / sigma1;
    for (int k = 0; k < spec_.degree; ++k) {
      const real_t rho_next = 1.0 / (2.0 * sigma1 - rho);
      coef_.push_back({rho_next * rho, 2.0 * rho_next / delta});
      rho = rho_next;
    }
  }
}

std::uint64_t Polynomial::flops_per_lane(std::size_t n) const {
  const auto m = static_cast<std::uint64_t>(steps());
  switch (spec_.kind) {
    case PolyKind::None: return 0;
    case PolyKind::Neumann: return (3 * m + 1) * n;
    case PolyKind::Gls: return (2 + 7 * m) * n;
    case PolyKind::Chebyshev: return (2 + 6 * m) * n;
  }
  return 0;
}

real_t Polynomial::eval(real_t lambda) const {
  const Vector one{1.0};
  Vector z(1);
  const Vector* const v[1] = {&one};
  Vector* const out[1] = {&z};
  PolyScratch work(1, 1);
  apply(v, out, work,
        [lambda](std::span<const Vector* const> x,
                 std::span<Vector* const> ax) {
          (*ax[0])[0] = lambda * (*x[0])[0];
        });
  return z[0];
}

Vector Polynomial::power_coeffs() const {
  const std::size_t n = static_cast<std::size_t>(std::max(steps(), 0)) + 1;
  Vector one(n, 0.0), z(n);
  one[0] = 1.0;
  const Vector* const v[1] = {&one};
  Vector* const out[1] = {&z};
  PolyScratch work(1, n);
  // Degree k in, degree k+1 out, k < steps(): the top slot is never lost.
  apply(v, out, work,
        [n](std::span<const Vector* const> x, std::span<Vector* const> ax) {
          Vector& y = *ax[0];
          y[0] = 0.0;
          for (std::size_t k = 1; k < n; ++k) y[k] = (*x[0])[k - 1];
        });
  return z;
}

real_t Polynomial::coeff_abs_sum() const {
  real_t s = 0.0;
  for (const real_t c : power_coeffs()) s += std::abs(c);
  return s;
}

void Polynomial::stage(int k, std::span<const Vector* const> v,
                       std::span<Vector* const> z, PolyScratch& w) const {
  PFEM_CHECK(z.size() == v.size() &&
             (steps() == 0 || v.size() <= w.x.size()));
  // Scalars held in locals: stores through the lanes cannot alias them.
  const real_t omega = spec_.omega, init = init_, mu0 = mu0_;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Vector& vi = *v[i];
    Vector& zi = *z[i];
    const std::size_t n = vi.size();
    switch (spec_.kind) {
      case PolyKind::None:
        la::copy(vi, zi);
        break;
      case PolyKind::Neumann: {
        // w_0 = v;  w_k = v + (I − ωÂ) w_{k-1};  z = ω w_m.
        Vector& x = w.x[i];
        if (k < 0) {
          la::copy(vi, x);
        } else {
          const Vector& ax = w.ax[i];
          for (std::size_t l = 0; l < n; ++l)
            x[l] = vi[l] + x[l] - omega * ax[l];
        }
        if (k + 1 == steps())
          for (std::size_t l = 0; l < n; ++l) zi[l] = omega * x[l];
        break;
      }
      case PolyKind::Gls: {
        // u_{-1} = 0, u_0 = v/√β_0, z = μ_0 u_0;  u_{k+1} = (Âu_k − α_k u_k
        // − √β_k u_{k-1}) / √β_{k+1},  z += μ_{k+1} u_{k+1}.
        Vector& u_prev = w.p[i];
        Vector& u = w.x[i];
        if (k < 0) {
          la::fill(u_prev, 0.0);
          for (std::size_t l = 0; l < n; ++l) {
            u[l] = init * vi[l];
            zi[l] = mu0 * u[l];
          }
          break;
        }
        const Vector& au = w.ax[i];
        const StepCoef c = coef_[static_cast<std::size_t>(k)];
        for (std::size_t l = 0; l < n; ++l) {
          const real_t t =
              (au[l] - c.a * u[l] - (k > 0 ? c.b * u_prev[l] : 0.0)) / c.c;
          u_prev[l] = u[l];
          u[l] = t;
          zi[l] += c.d * t;
        }
        break;
      }
      case PolyKind::Chebyshev: {
        // r = v, d = r/θ, z = d;  r -= Âd, d = c1 d + c2 r, z += d.
        Vector& res = w.p[i];
        Vector& d = w.x[i];
        if (k < 0) {
          la::copy(vi, res);
          for (std::size_t l = 0; l < n; ++l) {
            d[l] = res[l] / init;
            zi[l] = d[l];
          }
          break;
        }
        const Vector& ad = w.ax[i];
        const StepCoef c = coef_[static_cast<std::size_t>(k)];
        for (std::size_t l = 0; l < n; ++l) {
          res[l] -= ad[l];
          d[l] = c.a * d[l] + c.b * res[l];
          zi[l] += d[l];
        }
        break;
      }
    }
  }
}

}  // namespace pfem::core
