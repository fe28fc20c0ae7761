#include "core/bicgstab.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace {

/// The BiCGSTAB iteration of both forms: from x and its residual r
/// (‖r‖ = beta0 > 0) until the recursive residual meets opts.tol or
/// max_iters is reached.  A breakdown — ⟨r̂,r⟩ ≈ 0, ⟨r̂,v⟩ ≈ 0, ‖t‖ = 0 or
/// ω ≈ 0 — stops it and returns true.  Either way the caller's final
/// true residual decides convergence.
bool bicgstab_iterate(const detail::ShortOps& ops, std::span<real_t> x,
                      Vector& r, real_t beta0, const SolveOptions& opts,
                      index_t& iterations) {
  const std::size_t n = r.size();
  Vector rhat(r), p(n, 0.0), v(n, 0.0), phat(n), shat(n), s(n), t(n);
  real_t rho = 1.0, alpha = 1.0, omega = 1.0;
  const real_t tiny = 1e-300 * beta0 * beta0;
  while (iterations < opts.max_iters) {
    const real_t rho_new = ops.dot(rhat, r);
    if (!(std::abs(rho_new) > tiny)) return true;  // no further direction
    const real_t beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i)
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    ops.charge(4 * n, 1);

    ops.precond(p, phat);
    ops.matvec(phat, v);
    const real_t rv = ops.dot(rhat, v);
    if (!(std::abs(rv) > tiny)) return true;  // alpha is undefined
    alpha = rho / rv;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    ops.charge(2 * n, 0);
    ++iterations;

    const real_t s_relres = ops.norm(s) / beta0;
    if (s_relres <= opts.tol) {
      la::axpy(alpha, phat, x);
      ops.record(iterations, s_relres);
      return false;
    }

    ops.precond(s, shat);
    ops.matvec(shat, t);
    const real_t tt = ops.dot(t, t);
    if (!(tt > 0.0)) {
      // t = 0: no stabilizing step; keep the BiCG half step (residual s).
      la::axpy(alpha, phat, x);
      ops.record(iterations, s_relres);
      return true;
    }
    omega = ops.dot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    ops.charge(6 * n, 2);
    const real_t relres = ops.norm(r) / beta0;
    ops.record(iterations, relres);
    if (relres <= opts.tol) return false;
    if (!(std::abs(omega) > 1e-300)) return true;  // next beta undefined
  }
  return false;
}

}  // namespace

SolveReport bicgstab(const LinearOp& a, std::span<const real_t> b,
                     std::span<real_t> x, Preconditioner& precond,
                     const SolveOptions& opts) {
  return detail::solve_sequential(a, b, x, precond, opts, bicgstab_iterate);
}

SolveReport bicgstab(const sparse::CsrMatrix& a, std::span<const real_t> b,
                     std::span<real_t> x, Preconditioner& precond,
                     const SolveOptions& opts) {
  return bicgstab(LinearOp::from_csr(a), b, x, precond, opts);
}

namespace {

using detail::DistPoly;
using detail::EddRank;
using detail::sqrt_nonneg;
using partition::EddPartition;
using partition::EddSubdomain;

void edd_bicgstab_rank(const EddPartition& part, const EddOperatorState& op,
                       std::span<const real_t> f_global,
                       const SolveOptions& opts, par::Comm& comm, Vector& u,
                       SolveReport& report) {
  const auto s = static_cast<std::size_t>(comm.rank());
  EddRank r(part.subs[s], comm);
  const std::size_t nl = r.nl();
  const RankKernel& a = op.kern[s];
  DistPoly poly(op, nl, 1, /*local=*/false);

  // Distributed mat-vec: global -> global (one exchange, overlapped with
  // the interior block when the kernel is split).
  auto matvec = [&](const Vector& in, Vector& res) {
    const Vector* const xs[1] = {&in};
    Vector* const ys[1] = {&res};
    detail::spmv_exchange(r, a, xs, ys);
  };

  // All vectors in global distributed format, b = ⊕Σ D̂ (f_loc / mult)
  // once and for all.
  Vector b_glob = detail::scaled_local_rhs(part.subs[s], op.d[s], f_global);
  r.exchange(b_glob);
  const auto residual = [&](const Vector& x, Vector& res) {
    matvec(x, res);
    for (std::size_t l = 0; l < nl; ++l) res[l] = b_glob[l] - res[l];
  };
  Vector rr(nl);
  residual(Vector(nl, 0.0), rr);
  const detail::ShortOps ops{
      .matvec = matvec,
      .precond = [&](const Vector& in, Vector& out) {
        poly.apply(r, a, in, out);
      },
      .dot = [&](const Vector& p, const Vector& q) { return r.dot_gg(p, q); },
      .norm = [&](const Vector& p) {
        return sqrt_nonneg(r.norm2_sq_global(p));
      }};
  detail::short_rank_solve(r, op.d[s], ops, bicgstab_iterate, rr, residual,
                           opts, u, report);
}

}  // namespace

DistSolve solve_edd_bicgstab(
    const EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& spec, const SolveOptions& opts,
    const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  require_finite_rhs(f_global, "solve_edd_bicgstab");
  PFEM_CHECK_MSG(opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd_bicgstab: need max_iters >= 1 and tol > 0");
  return detail::solve_one_shot(
      part, spec, opts, local_matrices,
      [&](par::Comm& comm, const EddOperatorState& op, Vector& u,
          SolveReport& report) {
        edd_bicgstab_rank(part, op, f_global, opts, comm, u, report);
      });
}

}  // namespace pfem::core
