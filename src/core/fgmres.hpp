// Restarted flexible GMRES (Algorithm 1), written once.
//
// Right-preconditioned flavour: the solution update uses the
// preconditioned vectors z_j = C v_j instead of the basis v_j, which is
// what allows the preconditioner to vary between iterations ("flexible").
// Classical Gram–Schmidt orthogonalization (as in the paper's
// Algorithms 5/6/8), Givens-rotation incremental least squares, restart
// at m̃, convergence on ‖r_i‖₂/‖r₀‖₂ ≤ tol (§6.1).
//
// One engine (detail::run_fgmres) runs every FGMRES solve in the repo
// over a KrylovSpace: the sequential fgmres() below is its one-rank
// space, EDD Basic/Enhanced (Algorithms 5/6, core/edd_batch.cpp) and RDD
// (Algorithm 8, core/rdd_solver.cpp) are the distributed ones.  The
// engine owns the lanes, the Hessenberg least squares, Gram–Schmidt, the
// decisions and the report; a space owns where vectors live, how an
// inner product is reduced, and the operator/preconditioner step.
// detail::solve_sequential is the sequential form of the short-recurrence
// solvers (PCG, BiCGSTAB), whose iterations run over detail::ShortOps.
#pragma once

#include <cstdint>
#include <functional>
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
  /// batch without copying.
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
  /// (EDD-FGMRES only; the sequential path, solve_rdd, EDD-CG and
  /// EDD-BiCGSTAB ignore it).
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

  /// Solve sessions: warm-start x₀ and recycled-subspace in/out hooks
  /// (EDD-FGMRES only; the sequential fgmres() warm-starts from the
  /// caller's x, and the other solvers ignore it).  Off by default (every
  /// path bit-identical to stateless solves).
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

namespace detail {

/// One lane's Krylov vectors, each in its space's basis format.
struct KrylovLane {
  Vector x;               ///< the iterate
  std::vector<Vector> v;  ///< Arnoldi basis v_0..v_m̃ (v_0 receives r)
  std::vector<Vector> z;  ///< flexible directions z_j = B v_j
  Vector w;               ///< A z_j, orthogonalized in place
};

/// Where the FGMRES engine runs: one discipline's vector formats,
/// operator, preconditioner and reduction.  Every call covers a set of
/// lanes (indices into the engine's lane array), so a distributed space
/// fuses its exchanges and reductions across them; `red` entries are
/// this rank's partial sums until reduce().
class KrylovSpace {
 public:
  using Lanes = std::span<const std::size_t>;
  using State = std::span<KrylovLane>;
  virtual ~KrylovSpace() = default;

  /// Length of every lane vector on this rank.
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Whether this rank writes the shared reports (one per process).
  [[nodiscard]] virtual bool leader() const { return true; }
  [[nodiscard]] virtual obs::Tracer* tracer() { return nullptr; }

  /// Every lane's x₀ and convergence reference β₀: > 0 a fixed ‖b‖, 0 a
  /// trivial RHS (x₀ = 0 is exact), left < 0 for the first residual norm.
  virtual void start(State ln, std::span<real_t> beta0) = 0;
  /// r = b − A x of each lane into its v_0; red[i] = ‖r‖².
  virtual void residual(Lanes lanes, State ln, std::span<real_t> red) = 0;
  /// z_j = B v_j and w = A z_j of each lane.
  virtual void step(Lanes lanes, std::size_t j, State ln) = 0;
  /// red[k·|lanes| + i] = ⟨w, v_k⟩ for k < nk.  The engine then subtracts
  /// Σ h_k v_k from w, so any other-format copy of w is stale until the
  /// next step().
  virtual void dots(Lanes lanes, std::size_t nk, State ln,
                    std::span<real_t> red) = 0;
  /// red[i] = ‖w‖² of each lane.
  virtual void norms(Lanes lanes, State ln, std::span<real_t> red) = 0;
  /// Sum the partials across ranks.
  virtual void reduce(std::span<real_t> /*red*/) {}
  /// Charge the engine's vector work: `axpys` length-size() axpys and
  /// `scalings` length-size() scalings.
  virtual void charge(std::uint64_t /*axpys*/, std::uint64_t /*scalings*/) {}
  /// Lane b's x just advanced by Σ_k y_k z_k at the end of a cycle.
  virtual void cycle_update(std::size_t /*b*/, std::span<const real_t> /*y*/,
                            const KrylovLane& /*ln*/) {}
  /// After the final residual: hand the solutions out.
  virtual void finish(State ln) = 0;
};

/// The vector operations one form of a short-recurrence solver (PCG,
/// BiCGSTAB) supplies: the operator, the preconditioner, their inner
/// product and norm, vector-work accounting and the per-iteration
/// report.  A form may keep r in two formats: norm(r) refreshes the
/// second one, which precond may read — the iterations always take ‖r‖
/// before they precondition r.
struct ShortOps {
  std::function<void(const Vector&, Vector&)> matvec, precond;
  std::function<real_t(const Vector&, const Vector&)> dot;
  std::function<real_t(const Vector&)> norm;
  std::function<void(std::uint64_t flops, std::uint64_t updates)> charge;
  std::function<void(index_t iterations, real_t relres)> record;
};

/// A short-recurrence iteration from x and its residual r (‖r‖ = beta0 >
/// 0) until the recursive residual meets opts.tol or max_iters is
/// reached; true when it stopped on a breakdown.
using ShortIterate = bool (*)(const ShortOps& ops, std::span<real_t> x,
                              Vector& r, real_t beta0,
                              const SolveOptions& opts, index_t& iterations);

/// The sequential form of a short-recurrence solver, from the caller's x:
/// b = 0 is answered by x = 0, and the final true residual decides
/// `converged`.
[[nodiscard]] SolveReport solve_sequential(const LinearOp& a,
                                           std::span<const real_t> b,
                                           std::span<real_t> x,
                                           Preconditioner& precond,
                                           const SolveOptions& opts,
                                           ShortIterate iterate);

/// Restarted FGMRES over `space` for items.size() lanes in lockstep.  The
/// leader writes items as the solve goes (history, iterations, restarts,
/// breakdown), so a communication failure leaves a truthful partial
/// report; the final true residual alone decides `converged`.  The
/// Gram–Schmidt coefficients reduce one per allreduce, or one per pass
/// with opts.batched_reductions.
void run_fgmres(KrylovSpace& space, const SolveOptions& opts,
                std::span<SolveReport> items);

}  // namespace detail

}  // namespace pfem::core
