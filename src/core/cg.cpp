#include "core/cg.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace {

/// The PCG iteration of both forms: from x and its residual r (‖r‖ =
/// beta0 > 0, just taken by ops.norm) until the recursive residual meets
/// opts.tol, ⟨r,z⟩ underflows to zero or max_iters is reached.  The
/// caller's final true residual decides convergence; PCG reports no
/// breakdown (a non-SPD operator throws).
bool pcg_iterate(const detail::ShortOps& ops, std::span<real_t> x, Vector& r,
                 real_t beta0, const SolveOptions& opts, index_t& iterations) {
  const std::size_t n = r.size();
  Vector z(n), p(n), ap(n);
  ops.precond(r, z);
  la::copy(z, p);
  real_t rho = ops.dot(r, z);
  while (iterations < opts.max_iters) {
    ops.matvec(p, ap);
    const real_t pap = ops.dot(ap, p);
    PFEM_CHECK_MSG(pap > 0.0, "PCG: operator not positive definite "
                              "(p^T A p <= 0)");
    const real_t alpha = rho / pap;
    la::axpy(alpha, p, x);
    la::axpy(-alpha, ap, r);
    ops.charge(4 * n, 2);
    ++iterations;

    const real_t relres = ops.norm(r) / beta0;
    ops.record(iterations, relres);
    if (relres <= opts.tol) return false;

    ops.precond(r, z);
    const real_t rho_new = ops.dot(r, z);
    if (rho == 0.0) return false;  // <r,z> underflowed: stagnated search
    const real_t beta = rho_new / rho;
    rho = rho_new;
    la::axpby(1.0, z, beta, p);  // p = z + beta p
    ops.charge(2 * n, 1);
  }
  return false;
}

}  // namespace

SolveReport pcg(const LinearOp& a, std::span<const real_t> b,
                std::span<real_t> x, Preconditioner& precond,
                const SolveOptions& opts) {
  return detail::solve_sequential(a, b, x, precond, opts, pcg_iterate);
}

SolveReport pcg(const sparse::CsrMatrix& a, std::span<const real_t> b,
                std::span<real_t> x, Preconditioner& precond,
                const SolveOptions& opts) {
  return pcg(LinearOp::from_csr(a), b, x, precond, opts);
}

namespace {

using detail::DistPoly;
using detail::EddRank;
using detail::sqrt_nonneg;
using partition::EddPartition;
using partition::EddSubdomain;

void edd_cg_rank(const EddPartition& part, const EddOperatorState& op,
                 std::span<const real_t> f_global, const SolveOptions& opts,
                 par::Comm& comm, Vector& u, SolveReport& report) {
  const auto s = static_cast<std::size_t>(comm.rank());
  EddRank r(part.subs[s], comm);
  const std::size_t nl = r.nl();
  const RankKernel& a = op.kern[s];
  DistPoly poly(op, nl, 1, /*local=*/false);
  const Vector b_loc =
      detail::scaled_local_rhs(part.subs[s], op.d[s], f_global);

  // x, p, z in global format; r and Ap in local format, r with a global
  // shadow that norm() refreshes (the (+1) exchange of an iteration).
  Vector r_glob(nl), r_loc(b_loc);  // r = b - A*0
  const detail::ShortOps ops{
      .matvec = [&](const Vector& in, Vector& out) { r.spmv(a, in, out); },
      .precond = [&](const Vector&, Vector& out) {
        poly.apply(r, a, r_glob, out);  // m exchanges
      },
      .dot = [&](const Vector& u_loc,
                 const Vector& v_glob) { return r.dot_lg(u_loc, v_glob); },
      .norm = [&](const Vector& u_loc) {
        la::copy(u_loc, r_glob);
        r.exchange(r_glob);
        return sqrt_nonneg(r.dot_lg(u_loc, r_glob));
      }};
  detail::short_rank_solve(
      r, op.d[s], ops, pcg_iterate, r_loc,
      [&](const Vector& x, Vector& res) {
        r.spmv(a, x, res);
        for (std::size_t l = 0; l < nl; ++l) res[l] = b_loc[l] - res[l];
      },
      opts, u, report);
}

}  // namespace

DistSolve solve_edd_cg(const EddPartition& part,
                       std::span<const real_t> f_global, const PolySpec& spec,
                       const SolveOptions& opts,
                       const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  require_finite_rhs(f_global, "solve_edd_cg");
  PFEM_CHECK_MSG(opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd_cg: max_iters must be >= 1 and tol > 0");
  return detail::solve_one_shot(
      part, spec, opts, local_matrices,
      [&](par::Comm& comm, const EddOperatorState& op, Vector& u,
          SolveReport& report) {
        edd_cg_rank(part, op, f_global, opts, comm, u, report);
      });
}

}  // namespace pfem::core
