// BiCGSTAB — the short-recurrence companion to GMRES for unsymmetric
// systems (the problem class the paper motivates GMRES with, §1).
// Right-preconditioned, so the same polynomial preconditioners plug in
// unchanged; the EDD variant keeps every vector in the global
// distributed format (weighted inner products, one exchange per
// mat-vec) — no recursive local-format residual to drift.
#pragma once

#include <span>

#include "core/edd_solver.hpp"
#include "core/fgmres.hpp"
#include "core/operator.hpp"
#include "core/precond.hpp"

namespace pfem::core {

/// Sequential right-preconditioned BiCGSTAB.  SolveOptions::restart is
/// ignored (short recurrence).  `iterations` counts full BiCGSTAB steps
/// (two mat-vecs and two preconditioner applications each).
[[nodiscard]] SolveReport bicgstab(const LinearOp& a,
                                   std::span<const real_t> b,
                                   std::span<real_t> x,
                                   Preconditioner& precond,
                                   const SolveOptions& opts = {});

[[nodiscard]] SolveReport bicgstab(const sparse::CsrMatrix& a,
                                   std::span<const real_t> b,
                                   std::span<real_t> x,
                                   Preconditioner& precond,
                                   const SolveOptions& opts = {});

/// EDD-distributed BiCGSTAB with polynomial preconditioning, on the same
/// operator build (build_edd_operator: norm-1 scaling, kernels,
/// polynomial) as solve_edd().  `converged` is decided by the final true
/// residual; a zero row of the assembled operator throws
/// BadOperatorError.
[[nodiscard]] DistSolve solve_edd_bicgstab(
    const partition::EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& poly, const SolveOptions& opts = {},
    const std::vector<sparse::CsrMatrix>* local_matrices = nullptr);

}  // namespace pfem::core
