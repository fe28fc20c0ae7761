#include "core/bicgstab.hpp"

#include <cmath>
#include <cstdint>
#include <functional>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace {

/// The vector operations one BiCGSTAB form supplies: the operator, the
/// preconditioner, their inner product and norm, vector-work accounting
/// and the per-iteration report.
struct BicgstabOps {
  std::function<void(const Vector&, Vector&)> matvec, precond;
  std::function<real_t(const Vector&, const Vector&)> dot;
  std::function<real_t(const Vector&)> norm;
  std::function<void(std::uint64_t flops, std::uint64_t updates)> charge;
  std::function<void(index_t iterations, real_t relres)> record;
};

/// The BiCGSTAB iteration of both forms: from x and its residual r
/// (‖r‖ = beta0 > 0) until the recursive residual meets opts.tol or
/// max_iters is reached.  A breakdown — ⟨r̂,r⟩ ≈ 0, ⟨r̂,v⟩ ≈ 0, ‖t‖ = 0 or
/// ω ≈ 0 — stops it and returns true.  Either way the caller's final
/// true residual decides convergence.
bool bicgstab_iterate(const BicgstabOps& ops, std::span<real_t> x, Vector& r,
                      real_t beta0, const SolveOptions& opts,
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

  Vector r(n);
  a.apply(x, r);
  la::sub(b, r, r);
  const real_t beta0 = la::nrm2(r);
  if (beta0 == 0.0) {
    result.converged = true;
    return result;
  }
  const BicgstabOps ops{
      .matvec = [&](const Vector& in, Vector& out) { a.apply(in, out); },
      .precond = [&](const Vector& in, Vector& out) { precond.apply(in, out); },
      .dot = [](const Vector& u, const Vector& w) { return la::dot(u, w); },
      .norm = [](const Vector& u) { return la::nrm2(u); },
      .charge = [](std::uint64_t, std::uint64_t) {},
      .record = [&](index_t, real_t relres) {
        result.history.push_back(relres);
      }};
  result.breakdown =
      bicgstab_iterate(ops, x, r, beta0, opts, result.iterations);

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
  Vector b_glob = detail::scaled_local_rhs(sub, d, f_global);
  r.exchange(b_glob);

  // All vectors in global distributed format.
  Vector x(nl, 0.0), rr(nl);
  matvec(x, rr);
  for (std::size_t l = 0; l < nl; ++l) rr[l] = b_glob[l] - rr[l];
  const real_t beta0 = sqrt_nonneg(r.norm2_sq_global(rr));

  // Every scalar the iteration branches on is allreduced, so all ranks
  // stop together.  Rank 0's report grows per iteration, so a comm
  // failure still leaves a truthful partial report.
  const BicgstabOps ops{
      .matvec = matvec,
      .precond = [&](const Vector& in, Vector& out) {
        poly.apply(r, a, in, out);
      },
      .dot = [&](const Vector& p, const Vector& q) { return r.dot_gg(p, q); },
      .norm = [&](const Vector& p) {
        return sqrt_nonneg(r.norm2_sq_global(p));
      },
      .charge =
          [&](std::uint64_t flops, std::uint64_t updates) {
            r.counters().flops += flops;
            r.counters().vector_updates += updates;
          },
      .record =
          [&](index_t iterations, real_t relres) {
            if (rank != 0) return;
            report.history.push_back(relres);
            report.iterations = iterations;
          }};
  index_t iterations = 0;
  const bool breakdown =
      beta0 > 0.0 && bicgstab_iterate(ops, x, rr, beta0, opts, iterations);

  // Final true residual, physical solution.
  matvec(x, rr);
  for (std::size_t l = 0; l < nl; ++l) rr[l] = b_glob[l] - rr[l];
  const real_t final_relres =
      relative_residual(sqrt_nonneg(r.norm2_sq_global(rr)), beta0);
  u.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * x[l];

  if (rank == 0) {
    // The recursive residual only proposes convergence; the final TRUE
    // residual decides it.
    report.final_relres = final_relres;
    report.converged = final_relres <= opts.tol;
    report.breakdown = breakdown;
    report.iterations = iterations;
  }
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
