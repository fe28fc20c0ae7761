// Sequential flexible GMRES with restart (Algorithm 1).
//
// Right-preconditioned flavour: the solution update uses the
// preconditioned vectors z_j = C v_j instead of the basis v_j, which is
// what allows the preconditioner to vary between iterations ("flexible").
// Classical Gram–Schmidt orthogonalization (as in the paper's
// Algorithms 5/6/8), Givens-rotation incremental least squares, restart
// at m̃, convergence on ‖r_i‖₂/‖r₀‖₂ ≤ tol (§6.1).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/deflation.hpp"
#include "core/kernels.hpp"
#include "core/operator.hpp"
#include "core/precond.hpp"
#include "core/solve_report.hpp"
#include "obs/trace.hpp"

namespace pfem::core {

/// Per-RHS warm-start / subspace-recycling input.  Vectors are in the
/// PHYSICAL global format — exactly the shape solvers return in
/// DistSolve::x / BatchSolveResult::x — so a caller can feed one solve's
/// output straight into the next solve's RecycleIn.
struct RecycleIn {
  /// Warm-start guess x₀ (empty = start cold from zero).
  Vector x0;
  /// Recycled search directions: the residual is projected out of
  /// span(directions) before iterating (small dense normal-equations
  /// solve, replicated on every rank).  Typically previous solves'
  /// solution increments / Arnoldi-cycle updates.
  std::vector<Vector> directions;

  [[nodiscard]] bool empty() const noexcept {
    return x0.empty() && directions.empty();
  }
};

/// Krylov recycling across solves (solve sessions).  Off by default;
/// when off, every solver path is bit-identical to the pre-session code
/// (same exchange counts, same reductions — the Table-1 contract).
///
/// When enabled, a solve (a) starts from RecycleIn::x0 instead of zero,
/// (b) projects the initial residual onto RecycleIn::directions (one
/// extra fused exchange + one allreduce for the whole batch), (c)
/// measures convergence against ‖b̂‖ instead of ‖r₀‖ so warm and cold
/// solves chase the SAME absolute target (a cold start has r₀ = b̂, so
/// the reference is unchanged there), and (d) when `harvest` is set,
/// returns the restart-cycle solution increments in
/// BatchSolveResult::recycled for the caller to feed forward.
struct RecycleOptions {
  bool enabled = false;

  /// Cap on directions used per RHS (oldest dropped first) and on
  /// directions harvested per RHS (most recent cycles kept).
  index_t max_directions = 8;

  /// Per-RHS input state, index-aligned with the solve's RHS batch;
  /// null, or a missing/empty entry, means that RHS starts cold.
  /// Shared (read-only) so a service can hand session state to a fused
  /// batch without copying.  The sequential fgmres() path uses entry 0.
  std::shared_ptr<const std::vector<RecycleIn>> in;

  /// Harvest this solve's cycle updates into BatchSolveResult::recycled
  /// (physical global format, ready to become the next RecycleIn).
  bool harvest = false;
};

/// The ONE canonical solver-option shape, used identically by the
/// library API (fgmres / solve_edd / solve_edd_batch), the solve
/// service (svc::SolveRequest::opts), and the wire protocol
/// (net::proto::SolveRequestMsg carries the convergence + session
/// fields; kernel/deflation/observe stay server-side policy):
///
///   convergence   restart, max_iters, tol, reorthogonalize,
///                 batched_reductions   — must match for requests to
///                 coalesce into one fused service batch;
///   kernels       KernelOptions        — bit-neutral storage/overlap;
///   deflation     DeflationOptions     — two-level coarse correction;
///   observe       obs::ObserveOptions  — tracing + progress callbacks;
///   recycle       RecycleOptions       — sessions: warm starts and
///                 subspace recycling (in/out hooks).
struct SolveOptions {
  index_t restart = 25;     ///< m̃, the Krylov subspace dimension (paper: 25)
  index_t max_iters = 10000;  ///< cap on total inner iterations
  real_t tol = 1e-6;        ///< relative residual target (paper: 1e-6)

  /// Run classical Gram-Schmidt twice (CGS2).  The paper uses plain CGS;
  /// CGS2 restores orthogonality at tight tolerances for ~2x the
  /// inner-product cost.  Off by default (paper-faithful).
  bool reorthogonalize = false;

  /// Batch the j+1 Gram-Schmidt coefficients of an iteration into one
  /// allreduce instead of the paper's one-reduction-per-coefficient
  /// (distributed solvers only).  Off by default (paper-faithful); the
  /// ablation bench quantifies what this modern optimization buys.
  bool batched_reductions = false;

  /// Subdomain-operator kernel selection for the distributed solvers:
  /// storage format (vectorized SELL-C-σ with fused scaling vs the
  /// scalar-CSR fallback) and interior/interface exchange overlap.  Both
  /// choices are bit-neutral — results are identical across settings.
  KernelOptions kernels;

  /// Two-level subdomain deflation around the polynomial preconditioner
  /// (EDD-FGMRES only; the sequential path, EDD-CG and EDD-BiCGSTAB
  /// ignore it).
  /// Off by default — enabling it adds one small allreduce and one
  /// mat-vec per preconditioner application and keeps iteration counts
  /// flat under weak scaling.  The warm batch path takes its deflation
  /// setup from build_edd_operator instead (state cached with the
  /// operator).
  DeflationOptions deflation;

  /// Observability: span tracing and per-iteration progress callbacks.
  /// One knob struct shared by every solver entry point and the solve
  /// service, replacing per-tool flag plumbing.
  obs::ObserveOptions observe;

  /// Solve sessions: warm-start x₀ and recycled-subspace in/out hooks.
  /// Off by default (every path bit-identical to stateless solves).
  RecycleOptions recycle;
};

/// Solve A x = b with initial guess x (overwritten by the solution).
[[nodiscard]] SolveReport fgmres(const LinearOp& a, std::span<const real_t> b,
                                 std::span<real_t> x, Preconditioner& precond,
                                 const SolveOptions& opts = {});

/// Convenience overload for CSR systems.
[[nodiscard]] SolveReport fgmres(const sparse::CsrMatrix& a,
                                 std::span<const real_t> b,
                                 std::span<real_t> x, Preconditioner& precond,
                                 const SolveOptions& opts = {});

}  // namespace pfem::core
