// The unified solver report (api_redesign of ISSUE 3).
//
// Before this header, the repo had four divergent result shapes:
// sequential `SolveReport`, distributed `DistSolve`, the batch
// path's per-RHS `BatchItemResult`, and whatever svc::Completed carried.
// Every consumer (benches, the convergence tables, the service) had to
// know which one it was holding.  Now there is one `SolveReport` with
// the convergence story every solve can tell — including the
// per-iteration residual history the sequential path always recorded —
// and one solution-carrying extension `DistSolve` for distributed
// solves.  The old names remain as aliases so existing call sites
// compile unchanged.
#pragma once

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "par/counters.hpp"

namespace pfem::core {

/// What every solve reports: convergence verdict, iteration counts, and
/// the per-iteration relative-residual history.
struct SolveReport {
  /// True only when the final TRUE relative residual met the tolerance.
  /// An Arnoldi breakdown no longer masquerades as convergence: a solve
  /// that broke down short of the tolerance reports converged = false
  /// with breakdown = true.
  bool converged = false;
  /// The Arnoldi recursion hit a (near-)zero next basis vector and the
  /// solve stopped early.  For a consistent system this means the exact
  /// solution was found in the Krylov space (converged will also be
  /// true); for a rank-deficient operator it is a genuine failure and
  /// converged stays false.
  bool breakdown = false;
  /// ‖b‖ = 0: x = 0 is exact and final_relres is reported as 0 by
  /// convention.  Stamped so svc/loadgen statistics can keep trivial
  /// solves out of iteration/latency percentiles.
  bool trivial_rhs = false;
  index_t iterations = 0;     ///< total inner (Arnoldi) iterations
  index_t restarts = 0;       ///< cycles that RE-started (0 if one cycle)
  real_t final_relres = 0.0;  ///< ‖r‖/‖r₀‖ at exit
  std::vector<real_t> history;  ///< rel. residual after each inner iteration
  /// Non-empty when the distributed run died on a typed communication
  /// failure (channel timeout or injected crash): the par::CommError
  /// message.  converged is false, history holds the iterations that
  /// completed before the failure, and any solution fields are empty —
  /// a typed partial report, never corrupt results.
  std::string comm_error;

  [[nodiscard]] bool comm_failed() const noexcept {
    return !comm_error.empty();
  }
};

/// A distributed solve's report: the convergence story plus the global
/// solution and the per-rank cost evidence.
struct DistSolve : SolveReport {
  Vector x;  ///< global solution u (scaling undone)
  std::vector<par::PerfCounters> rank_counters;  ///< full run
  /// Setup-phase slice of the counters: rhs localization, norm-1 scaling
  /// (Algorithms 3/4) *and* polynomial preconditioner construction —
  /// everything a warm-cache solve skips.  total_seconds here is the
  /// setup wall time of the rank, so cache-hit savings are measurable
  /// from counters alone.
  std::vector<par::PerfCounters> setup_counters;
  double wall_seconds = 0.0;
  /// Harvested recycle directions (physical global format, oldest →
  /// newest) when opts.recycle.enabled && opts.recycle.harvest: the
  /// restart-cycle solution increments, ready to feed the next solve's
  /// RecycleIn::directions.  Empty otherwise.
  std::vector<Vector> recycled;
  /// Span trace of the run when ObserveOptions::trace was set (one lane
  /// per rank); null otherwise.  Shared so reports stay copyable.
  std::shared_ptr<const obs::Trace> trace;
};

/// True when every entry of v is finite (no NaN, no ±inf).
[[nodiscard]] inline bool all_finite(std::span<const real_t> v) {
  for (const real_t x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Entry check of the distributed solvers: a non-finite RHS entry has no
/// meaningful solve (and would read as a zero residual downstream), so it
/// is refused with a pfem::Error naming the solver.
inline void require_finite_rhs(std::span<const real_t> f, const char* solver) {
  PFEM_CHECK_MSG(all_finite(f), solver << ": the right-hand side has a "
                                          "non-finite (NaN or inf) entry");
}

namespace detail {

/// sqrt clamped at zero: distributed ⟨x_loc, x_glob⟩ equals ‖x‖² only in
/// exact arithmetic — near convergence the cross-format partial sums can
/// round to a tiny negative value.  Callers must treat an exactly-zero
/// result as a zero vector (happy breakdown), never divide by it.  A NaN
/// propagates: it must never read as a zero residual.
inline real_t sqrt_nonneg(real_t v) {
  return v > 0.0 || std::isnan(v) ? std::sqrt(v) : 0.0;
}

}  // namespace detail

/// ‖r‖/‖r₀‖ at exit: 0 for a trivial RHS (‖r₀‖ = 0) by convention; a NaN
/// in either norm propagates, so it can never read as convergence.
[[nodiscard]] inline real_t relative_residual(real_t res, real_t beta0) {
  return beta0 == 0.0 ? 0.0 : res / beta0;
}

}  // namespace pfem::core
