// EDD-FGMRES's public face: an explicit setup/apply split and multi-RHS
// batching on a persistent rank team.
//
//   par::Team team(P);                                   // threads parked
//   EddOperatorState op = build_edd_operator(team, part, spec);  // once
//   BatchSolveResult r = solve_edd_batch(team, part, op, rhs_batch);
//
// build_edd_operator runs the Algorithms-3/4 norm-1 scaling, the rank
// kernels, the polynomial build and (optionally) the deflation coarse
// operator once; every later solve reuses that state.  Every EDD-FGMRES
// solve is the one FGMRES engine (core/fgmres.hpp) over the EDD space:
// solve_edd() is a one-shot team, one build and a width-1 run of the
// same loop in the caller's variant and reduction discipline.
//
// solve_edd_batch runs a loop-fused enhanced EDD-FGMRES (Algorithm 6)
// over all right-hand sides at once: each Arnoldi step still performs m
// polynomial-recursion exchanges plus 1 basis exchange *in total* — each
// fused message carries every RHS's shared-dof section — and the
// Gram-Schmidt coefficients and norms of the whole batch fold into one
// allreduce each.  Against B independent solves this divides the
// per-step message and reduction count (the alpha term of the cost
// model) by B, while the mat-vec flops stay the same.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/deflation.hpp"
#include "core/edd_solver.hpp"
#include "core/kernels.hpp"
#include "core/polynomial.hpp"
#include "par/comm.hpp"

namespace pfem::core {

/// Prebuilt per-operator state: everything a solve needs that only
/// depends on (matrix, PolySpec, kernel and deflation options).  Build
/// once, solve many.
struct EddOperatorState {
  std::vector<Vector> d;             ///< per-rank scaling 1/sqrt(d_i) (Eq. 43)
  KernelOptions kernels;             ///< format/overlap the kernels were built for
  /// Per-rank apply kernels for Â = D̂ K̂ D̂ (Eq. 44): SELL-C-σ or
  /// scalar CSR blocks, each holding its own scaled copy of the entries,
  /// interior/interface split per `kernels`.
  std::vector<RankKernel> kern;
  /// The built polynomial preconditioner (shared read-only by all ranks;
  /// its spec() is the PolySpec the operator was built for).
  std::shared_ptr<const Polynomial> poly;
  /// Deflation knobs the operator was built with, and the replicated
  /// factorized coarse operator E = ZᵀÂZ (null when deflation is off).
  /// Cached alongside the operator — a service cache hit reuses the
  /// coarse factorization together with the scaling and kernels.  The
  /// engine takes its deflation setup from HERE, not from SolveOptions
  /// (the correction is operator state, like the polynomial).
  DeflationOptions deflation;
  std::shared_ptr<const CoarseOperator> coarse;
  std::vector<par::PerfCounters> setup_counters;  ///< scaling exchange/flops
  double setup_seconds = 0.0;  ///< wall time of the whole build
};

/// Run the distributed norm-1 scaling, the kernel build and the
/// polynomial build once on a warm team.  A globally zero row of the
/// assembled operator throws BadOperatorError.  @param local_matrices optional override of
/// part.subs[s].k_loc (same dof layout), e.g. a dynamic effective
/// stiffness — passing an updated set is how time stepping refreshes the
/// operator without repartitioning.
/// @param trace optional span trace (lanes == team size) for the build,
///        e.g. the solve service's long-lived trace.
/// @param deflation when enabled, additionally assembles and factorizes
///        the deflation coarse operator (one allreduce of the dense E
///        buffer on the team) so every later batch solve applies the
///        two-level correction with no extra setup.
[[nodiscard]] EddOperatorState build_edd_operator(
    par::Team& team, const partition::EddPartition& part,
    const PolySpec& spec,
    const std::vector<sparse::CsrMatrix>* local_matrices = nullptr,
    obs::Trace* trace = nullptr, const KernelOptions& kernels = {},
    const DeflationOptions& deflation = {});

/// Per-RHS outcome of a batch solve — the same unified report shape as
/// every other solver path (with per-iteration residual history, written
/// by rank 0).
using BatchItemResult = SolveReport;

struct BatchSolveResult {
  std::vector<Vector> x;  ///< per-RHS global solutions (scaling undone)
  std::vector<BatchItemResult> items;
  /// Per-RHS harvested recycle directions (physical global format,
  /// oldest → newest, at most opts.recycle.max_directions each): the
  /// restart-cycle solution increments Δx of this solve, ready to be fed
  /// into the next solve's RecycleIn::directions.  Empty unless
  /// opts.recycle.enabled && opts.recycle.harvest.
  std::vector<std::vector<Vector>> recycled;
  std::vector<par::PerfCounters> rank_counters;
  double wall_seconds = 0.0;
  /// Per-call trace when opts.observe.trace requested one (and no
  /// external trace was supplied); null otherwise.
  std::shared_ptr<const obs::Trace> trace;
  /// Non-empty when the batch died on a typed communication failure
  /// (channel timeout / injected crash): x is empty and every item
  /// carries the error plus whatever history it accumulated (its
  /// iterations and restarts count exactly that history).  The
  /// service's retry policy keys off this field.
  std::string comm_error;

  [[nodiscard]] bool comm_failed() const noexcept {
    return !comm_error.empty();
  }
};

/// Solve K u = f_b for every RHS in `rhs` (each a full global vector) in
/// one loop-fused enhanced EDD-FGMRES sweep on the prebuilt operator.
/// Each RHS converges (or hits max_iters) independently; finished systems
/// drop out of the fused exchanges.  Team size must equal part.nparts().
///
/// Observability: opts.observe.progress is called per iteration per live
/// RHS with that RHS's batch index.  When `trace` is non-null the ranks
/// record spans into it (a service passes its own long-lived trace);
/// otherwise, when opts.observe.trace is set, a per-call trace is
/// created and returned in BatchSolveResult::trace.
[[nodiscard]] BatchSolveResult solve_edd_batch(
    par::Team& team, const partition::EddPartition& part,
    const EddOperatorState& op, std::span<const Vector> rhs,
    const SolveOptions& opts = {}, obs::Trace* trace = nullptr);

}  // namespace pfem::core
