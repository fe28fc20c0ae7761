// Preconditioned conjugate gradients — sequential and EDD-distributed.
//
// The paper's framework (EDD data formats + polynomial preconditioning)
// is solver-agnostic for SPD systems; CG is the natural companion to
// FGMRES there (the paper positions GMRES as the general tool because
// FETI-class solvers are "mainly restricted to symmetric systems").
// The polynomial preconditioners are SPD on the scaled system
// (λP_m(λ) ∈ (0,2) on Θ ⊇ σ(A) ⟹ P_m(A) ≻ 0), so PCG is well posed.
//
// Per CG iteration the EDD variant needs m+1 nearest-neighbor exchanges
// (m inside the polynomial, 1 to globalize the updated residual) and
// 3 global reductions (ρ, pᵀAp, ‖r‖).
#pragma once

#include <span>

#include "core/edd_solver.hpp"
#include "core/fgmres.hpp"
#include "core/operator.hpp"
#include "core/precond.hpp"

namespace pfem::core {

/// Sequential PCG on A x = b (A SPD, C SPD).  The SolveOptions restart
/// field is ignored (CG does not restart).
[[nodiscard]] SolveReport pcg(const LinearOp& a, std::span<const real_t> b,
                              std::span<real_t> x, Preconditioner& precond,
                              const SolveOptions& opts = {});

[[nodiscard]] SolveReport pcg(const sparse::CsrMatrix& a,
                              std::span<const real_t> b, std::span<real_t> x,
                              Preconditioner& precond,
                              const SolveOptions& opts = {});

/// EDD-distributed PCG with polynomial preconditioning, on the same
/// operator build (build_edd_operator: norm-1 scaling, kernels,
/// polynomial) as solve_edd().  `converged` is decided by the final true
/// residual; a zero row of the assembled operator throws
/// BadOperatorError.
[[nodiscard]] DistSolve solve_edd_cg(
    const partition::EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& poly, const SolveOptions& opts = {},
    const std::vector<sparse::CsrMatrix>* local_matrices = nullptr);

}  // namespace pfem::core
