#include "core/bicgstab.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

SolveReport bicgstab(const LinearOp& a, std::span<const real_t> b,
                     std::span<real_t> x, Preconditioner& precond,
                     const SolveOptions& opts) {
  const std::size_t n = b.size();
  PFEM_CHECK(x.size() == n);
  PFEM_CHECK(a.size() == as_index(n));

  SolveReport result;
  // ‖b‖ = 0: x = 0 solves exactly and any relative residual is 0/0 —
  // return it in 0 iterations instead of iterating on NaNs.
  if (la::nrm2(b) == 0.0) {
    la::fill(x, 0.0);
    result.converged = true;
    return result;
  }

  Vector r(n), rhat(n), p(n, 0.0), v(n, 0.0), phat(n), shat(n), s(n), t(n);
  a.apply(x, r);
  la::sub(b, r, r);
  const real_t beta0 = la::nrm2(r);
  if (beta0 == 0.0) {
    result.converged = true;
    return result;
  }
  la::copy(r, rhat);
  real_t rho = 1.0, alpha = 1.0, omega = 1.0;

  while (result.iterations < opts.max_iters) {
    const real_t rho_new = la::dot(rhat, r);
    if (!(std::abs(rho_new) > 1e-300 * beta0 * beta0)) {
      result.breakdown = true;  // <rhat, r> ~ 0: no further direction
      break;
    }
    const real_t beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i)
      p[i] = r[i] + beta * (p[i] - omega * v[i]);

    precond.apply(p, phat);
    a.apply(phat, v);
    alpha = rho / la::dot(rhat, v);
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    ++result.iterations;

    if (la::nrm2(s) / beta0 <= opts.tol) {
      la::axpy(alpha, phat, x);
      result.history.push_back(la::nrm2(s) / beta0);
      break;
    }

    precond.apply(s, shat);
    a.apply(shat, t);
    const real_t tt = la::dot(t, t);
    PFEM_CHECK_MSG(tt > 0.0, "BiCGSTAB breakdown: ||t|| = 0");
    omega = la::dot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    const real_t relres = la::nrm2(r) / beta0;
    result.history.push_back(relres);
    if (relres <= opts.tol) break;
    PFEM_CHECK_MSG(std::abs(omega) > 1e-300, "BiCGSTAB breakdown: omega ~ 0");
  }

  a.apply(x, r);
  la::sub(b, r, r);
  result.final_relres = la::nrm2(r) / beta0;
  // The recursive residual only proposes convergence; the final TRUE
  // residual decides it.
  result.converged = result.final_relres <= opts.tol;
  return result;
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
  const int rank = comm.rank();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(rank)];
  EddRank r(sub, comm);
  const std::size_t nl = r.nl();
  const Vector& d = op.d[static_cast<std::size_t>(rank)];
  const RankKernel& a = op.kern[static_cast<std::size_t>(rank)];
  DistPoly poly(op, nl, 1, /*local=*/false);

  // Distributed mat-vec: global -> global (one exchange, overlapped with
  // the interior block when the kernel is split).
  auto matvec = [&](const Vector& in, Vector& res) {
    const Vector* const xs[1] = {&in};
    Vector* const ys[1] = {&res};
    detail::spmv_exchange(r, a, xs, ys);
  };

  // RHS in global format once and for all: b = ⊕Σ D̂ (f_loc / mult).
  Vector b_glob(nl);
  for (std::size_t l = 0; l < nl; ++l)
    b_glob[l] = d[l] * (f_global[static_cast<std::size_t>(
                            sub.local_to_global[l])] /
                        static_cast<real_t>(sub.multiplicity[l]));
  r.exchange(b_glob);

  // All vectors in global distributed format.
  Vector x(nl, 0.0), rr(nl), rhat(nl), p(nl, 0.0), v(nl, 0.0);
  Vector phat(nl), shat(nl), s(nl), t(nl);
  matvec(x, rr);
  for (std::size_t l = 0; l < nl; ++l) rr[l] = b_glob[l] - rr[l];
  const real_t beta0 = sqrt_nonneg(r.norm2_sq_global(rr));

  index_t iterations = 0;
  std::vector<real_t> history;
  if (beta0 > 0.0) {
    la::copy(rr, rhat);
    real_t rho = 1.0, alpha = 1.0, omega = 1.0;
    while (iterations < opts.max_iters) {
      const real_t rho_new = r.dot_gg(rhat, rr);
      PFEM_CHECK_MSG(std::abs(rho_new) > 1e-300 * beta0 * beta0,
                     "EDD-BiCGSTAB breakdown: <rhat, r> ~ 0");
      const real_t beta = (rho_new / rho) * (alpha / omega);
      rho = rho_new;
      for (std::size_t l = 0; l < nl; ++l)
        p[l] = rr[l] + beta * (p[l] - omega * v[l]);
      r.counters().flops += 4 * nl;
      r.counters().vector_updates += 1;

      poly.apply(r, a, p, phat);
      matvec(phat, v);
      alpha = rho / r.dot_gg(rhat, v);
      for (std::size_t l = 0; l < nl; ++l) s[l] = rr[l] - alpha * v[l];
      r.counters().flops += 2 * nl;
      ++iterations;

      const real_t s_relres = sqrt_nonneg(r.norm2_sq_global(s)) / beta0;
      if (s_relres <= opts.tol) {
        la::axpy(alpha, phat, x);
        history.push_back(s_relres);
        break;
      }

      poly.apply(r, a, s, shat);
      matvec(shat, t);
      const real_t tt = r.norm2_sq_global(t);
      PFEM_CHECK_MSG(tt > 0.0, "EDD-BiCGSTAB breakdown: ||t|| = 0");
      omega = r.dot_gg(t, s) / tt;
      for (std::size_t l = 0; l < nl; ++l) {
        x[l] += alpha * phat[l] + omega * shat[l];
        rr[l] = s[l] - omega * t[l];
      }
      r.counters().flops += 6 * nl;
      r.counters().vector_updates += 2;
      const real_t relres = sqrt_nonneg(r.norm2_sq_global(rr)) / beta0;
      history.push_back(relres);
      if (relres <= opts.tol) break;
    }
  }

  // Final true residual, physical solution.
  matvec(x, rr);
  for (std::size_t l = 0; l < nl; ++l) rr[l] = b_glob[l] - rr[l];
  const real_t final_relres =
      beta0 > 0.0 ? sqrt_nonneg(r.norm2_sq_global(rr)) / beta0 : 0.0;
  u.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * x[l];

  if (rank == 0) {
    // The recursive residual only proposes convergence; the final TRUE
    // residual decides it.
    report.final_relres = final_relres;
    report.converged = final_relres <= opts.tol;
    report.iterations = iterations;
    report.history = std::move(history);
  }
}

}  // namespace

DistSolve solve_edd_bicgstab(
    const EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& spec, const SolveOptions& opts,
    const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
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
