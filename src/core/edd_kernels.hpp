// Internal rank-local kernels shared by the EDD solvers (FGMRES, CG and
// BiCGSTAB): the nearest-neighbor exchange (monolithic and split into
// start/finish halves for compute overlap, single and fused over lanes),
// distributed inner products in the two vector formats, the fused
// mat-vec + exchange steps of both disciplines, and the distributed
// polynomial application (Algorithm 7 generalized to Neumann, GLS and
// Chebyshev, in both the local- and global-format disciplines).  Not
// part of the public API.
#pragma once

#include <cmath>
#include <functional>
#include <span>

#include "common/error.hpp"
#include "core/edd_batch.hpp"
#include "core/kernels.hpp"
#include "la/vector_ops.hpp"
#include "par/comm.hpp"
#include "partition/edd.hpp"

namespace pfem::core::detail {

using partition::EddPartition;
using partition::EddSubdomain;

inline constexpr int kExchangeTag = 0;

/// sqrt clamped at zero: distributed ⟨x_loc, x_glob⟩ equals ‖x‖² only in
/// exact arithmetic — near convergence the cross-format partial sums can
/// round to a tiny negative value.  Callers must treat an exactly-zero
/// result as a zero vector (happy breakdown), never divide by it.  A NaN
/// propagates: it must never read as a zero residual.
inline real_t sqrt_nonneg(real_t v) {
  return v > 0.0 || std::isnan(v) ? std::sqrt(v) : 0.0;
}

/// Rank-local helper: exchange, distributed inner products, counting.
class EddRank {
 public:
  /// `max_batch` is the widest fused exchange this rank will run (the
  /// solver's RHS batch width); buffers are preposted for it so the
  /// per-iteration resizes below never allocate.
  EddRank(const EddSubdomain& sub, par::Comm& comm, std::size_t max_batch = 1)
      : sub_(sub),
        comm_(comm),
        nl_(static_cast<std::size_t>(sub.n_local())),
        max_batch_(std::max<std::size_t>(max_batch, 1)) {
    // Prepost the exchange buffers: capacities are fixed by the neighbor
    // lists TIMES the configured batch width, so neither the single-RHS
    // nor the fused multi-RHS exchange ever allocates per iteration.
    std::size_t max_shared = 0;
    for (const auto& nb : sub_.neighbors)
      max_shared = std::max(max_shared, nb.shared_local_dofs.size());
    send_buf_.reserve(max_shared * max_batch_);
    recv_buf_.reserve(max_shared * max_batch_);
    fused_buf_.reserve(sub_.interface_local_dofs.size() * max_batch_);
  }

  [[nodiscard]] std::size_t nl() const noexcept { return nl_; }
  [[nodiscard]] par::Comm& comm() noexcept { return comm_; }
  [[nodiscard]] par::PerfCounters& counters() noexcept {
    return comm_.counters();
  }

  /// û_glob = ⊕Σ_{∂Ω_s} û_loc (Eq. 28): in-place sum of neighbors'
  /// shared-dof contributions.  One logical nearest-neighbor exchange.
  ///
  /// Determinism: contributions are folded in ascending *rank* order
  /// (own contribution inserted at this rank's position), so every
  /// sharer of a dof computes the bit-identical sum even when three or
  /// more subdomains meet at a point.  Without this, the per-rank
  /// "global format" copies drift apart by ulps — harmless for restarted
  /// FGMRES but fatal for CG's recursively updated residual.
  void exchange(Vector& v) {
    Vector* const vs[1] = {&v};
    exchange_many(vs);
  }

  /// Fused form of exchange(): one ⊕Σ round for `vs.size()` vectors at
  /// once — each neighbor gets ONE message carrying every vector's
  /// shared-dof section, so the per-message latency (the cost model's
  /// alpha term) is amortized across the batch.  Counted as one logical
  /// neighbor exchange.  The per-dof fold order is the same for every
  /// vector, so each result is bit-identical to a standalone exchange.
  void exchange_many(std::span<Vector* const> vs) {
    if (vs.empty()) return;
    // The "exchange" span and neighbor_exchanges count the same logical
    // event, so a trace is an exact cross-check of the counters (and of
    // the paper's Table 1 per-iteration exchange counts).
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(vs.size()));
    exchange_many_start(vs);
    fold_many(vs);
  }

  /// First half of exchange_many(): post the sends and stash-and-zero the
  /// interface entries of every vector, then return with the messages in
  /// flight.  The caller may do any work that neither reads nor writes
  /// the interface entries — in particular the interior-row block of the
  /// split operator — before calling exchange_many_finish(vs).  The
  /// neighbor_exchanges counter is charged here (the exchange logically
  /// begins now); the matching "exchange" span is emitted by the finish
  /// half, so a trace still carries exactly one per logical exchange.
  void exchange_many_start(std::span<Vector* const> vs) {
    if (vs.empty()) return;
    counters().neighbor_exchanges += 1;
    post_sends_many(vs);
    stash_and_zero_many(vs);
  }

  /// Second half: drain the receives and fold all contributions in the
  /// same ascending-rank order as the monolithic exchange — the result
  /// is bit-identical regardless of how much compute ran in between.
  void exchange_many_finish(std::span<Vector* const> vs) {
    if (vs.empty()) return;
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(vs.size()));
    fold_many(vs);
  }

  /// ⟨x, y⟩ with x local-distributed and y global-distributed (Eq. 33):
  /// local partial + allreduce.
  [[nodiscard]] real_t dot_lg(std::span<const real_t> x_loc,
                              std::span<const real_t> y_glob) {
    counters().inner_products += 1;
    counters().flops += 2 * nl_;
    return comm_.allreduce_sum(la::dot(x_loc, y_glob));
  }

  /// Local partial of ⟨x_loc, y_glob⟩ without the reduction — used when
  /// the caller batches several coefficients into one allreduce.
  [[nodiscard]] real_t dot_lg_partial(std::span<const real_t> x_loc,
                                      std::span<const real_t> y_glob) {
    counters().inner_products += 1;
    counters().flops += 2 * nl_;
    return la::dot(x_loc, y_glob);
  }

  /// ‖x‖² for a global-distributed x via the partition-of-unity weights
  /// 1/mult (each global dof counted exactly once across ranks).
  [[nodiscard]] real_t norm2_sq_global(std::span<const real_t> x_glob) {
    return comm_.allreduce_sum(dot_gg_partial(x_glob, x_glob));
  }

  /// ⟨x, y⟩ with both operands in global-distributed format (weighted by
  /// 1/mult), allreduced.
  [[nodiscard]] real_t dot_gg(std::span<const real_t> x_glob,
                              std::span<const real_t> y_glob) {
    return comm_.allreduce_sum(dot_gg_partial(x_glob, y_glob));
  }

  /// Local partial of the weighted global-format inner product.
  [[nodiscard]] real_t dot_gg_partial(std::span<const real_t> x_glob,
                                      std::span<const real_t> y_glob) {
    counters().inner_products += 1;
    counters().flops += 3 * nl_;
    real_t s = 0.0;
    for (std::size_t l = 0; l < nl_; ++l)
      s += x_glob[l] * y_glob[l] /
           static_cast<real_t>(sub_.multiplicity[l]);
    return s;
  }

  /// Local SpMV ŷ_loc = Â x̂_glob (Eq. 37) through the kernel layer
  /// (format chosen by KernelOptions), with counting.
  void spmv(const RankKernel& a, std::span<const real_t> x_glob,
            std::span<real_t> y_loc) {
    OBS_SPAN(comm_.tracer(), "spmv", obs::Cat::Matvec);
    a.apply(x_glob, y_loc);
    counters().matvecs += 1;
    counters().flops += a.apply_flops();
  }

  const EddSubdomain& sub() const noexcept { return sub_; }

 private:
  // The exchange decomposed into its three phases, shared by the
  // monolithic and the split form so the message pattern, the stash/fold
  // arithmetic and the deterministic ordering cannot drift apart.

  void post_sends_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    PFEM_DEBUG_CHECK(nb <= max_batch_);
    for (const auto& nb_it : sub_.neighbors) {
      const std::size_t ns = nb_it.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(nb * ns <= send_buf_.capacity());
      send_buf_.resize(nb * ns);
      for (std::size_t b = 0; b < nb; ++b) {
        const Vector& v = *vs[b];
        for (std::size_t k = 0; k < ns; ++k)
          send_buf_[b * ns + k] =
              v[static_cast<std::size_t>(nb_it.shared_local_dofs[k])];
      }
      comm_.exchange_start(nb_it.rank, kExchangeTag, send_buf_);
    }
  }

  void stash_and_zero_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    const std::size_t ni = sub_.interface_local_dofs.size();
    PFEM_DEBUG_CHECK(nb * ni <= fused_buf_.capacity());
    fused_buf_.resize(nb * ni);
    for (std::size_t b = 0; b < nb; ++b) {
      Vector& v = *vs[b];
      for (std::size_t k = 0; k < ni; ++k) {
        const auto l = static_cast<std::size_t>(sub_.interface_local_dofs[k]);
        fused_buf_[b * ni + k] = v[l];
        v[l] = 0.0;
      }
    }
  }

  void fold_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    const std::size_t ni = sub_.interface_local_dofs.size();
    bool own_added = sub_.neighbors.empty();
    auto add_own = [&] {
      for (std::size_t b = 0; b < nb; ++b) {
        Vector& v = *vs[b];
        for (std::size_t k = 0; k < ni; ++k)
          v[static_cast<std::size_t>(sub_.interface_local_dofs[k])] +=
              fused_buf_[b * ni + k];
      }
      counters().flops += nb * ni;
      own_added = true;
    };
    if (own_added) add_own();
    for (const auto& nb_it : sub_.neighbors) {  // sorted by rank
      if (!own_added && nb_it.rank > comm_.rank()) add_own();
      const std::size_t ns = nb_it.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(nb * ns <= recv_buf_.capacity());
      recv_buf_.resize(nb * ns);
      comm_.exchange_finish(nb_it.rank, kExchangeTag,
                            std::span<real_t>(recv_buf_.data(), nb * ns));
      for (std::size_t b = 0; b < nb; ++b) {
        Vector& v = *vs[b];
        for (std::size_t k = 0; k < ns; ++k)
          v[static_cast<std::size_t>(nb_it.shared_local_dofs[k])] +=
              recv_buf_[b * ns + k];
      }
      counters().flops += nb * ns;
    }
    if (!own_added) add_own();
  }

  const EddSubdomain& sub_;
  par::Comm& comm_;
  std::size_t nl_;
  std::size_t max_batch_;  ///< widest fused exchange ever issued
  Vector send_buf_, recv_buf_;
  Vector fused_buf_;  ///< interface stash of exchange_many (nb x ni)
};

/// Read-only view of a set of lane pointers.
inline std::span<const Vector* const> as_inputs(std::span<Vector* const> vs) {
  return {const_cast<const Vector* const*>(vs.data()), vs.size()};
}

/// A global RHS f in this rank's local distributed, scaled format:
/// b̂ = D̂ (f_loc / mult).
inline Vector scaled_local_rhs(const EddSubdomain& sub, const Vector& d,
                               std::span<const real_t> f) {
  Vector b(d.size());
  for (std::size_t l = 0; l < b.size(); ++l)
    b[l] = d[l] * (f[static_cast<std::size_t>(sub.local_to_global[l])] /
                   static_cast<real_t>(sub.multiplicity[l]));
  return b;
}

/// Charge `nb` kernel applies to the rank's counters.
inline void charge_matvecs(EddRank& r, const RankKernel& a, std::size_t nb) {
  r.counters().matvecs += nb;
  r.counters().flops += nb * a.apply_flops();
}

/// One Enhanced-discipline recursion step for every lane: ŷ_i = Â x̂_i,
/// then ONE fused exchange globalizing the outputs.  With a split kernel
/// the exchange overlaps the interior block: the interface-coupled rows
/// of every lane are computed first, the fused sends go out while the
/// interior rows (disjoint from every stashed interface dof) fill in,
/// and the folds land last.  Exactly one matvec per lane and one logical
/// exchange either way; at width 1 the roundings are those of a plain
/// apply followed by exchange().
inline void spmv_exchange(EddRank& r, const RankKernel& a,
                          std::span<const Vector* const> xs,
                          std::span<Vector* const> ys) {
  const std::size_t nb = xs.size();
  if (!a.split()) {
    {
      OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
               static_cast<std::uint32_t>(nb));
      a.apply_many(xs, ys);
      charge_matvecs(r, a, nb);
    }
    r.exchange_many(ys);
    return;
  }
  a.apply_coupled_many(xs, ys);
  r.exchange_many_start(ys);
  {
    OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
             static_cast<std::uint32_t>(nb));
    a.apply_interior_many(xs, ys);
    charge_matvecs(r, a, nb);
  }
  r.exchange_many_finish(ys);
}

/// One Basic-discipline recursion step for every lane: globalize ŵ_i in
/// place with ONE fused exchange (the caller passes copies it can
/// spare), then ŷ_i,loc = Â ŵ_i,glob.  With a split kernel the sends go
/// out first; the interior rows — which read no interface column, so the
/// mid-flight zeroed entries of ŵ are invisible to them — compute while
/// messages fly; the folds land; the coupled rows finish against the
/// fully globalized ŵ.
inline void exchange_spmv(EddRank& r, const RankKernel& a,
                          std::span<Vector* const> ws,
                          std::span<Vector* const> ys) {
  const std::size_t nb = ws.size();
  const std::span<const Vector* const> in = as_inputs(ws);
  if (!a.split()) {
    r.exchange_many(ws);
    OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
             static_cast<std::uint32_t>(nb));
    a.apply_many(in, ys);
    charge_matvecs(r, a, nb);
    return;
  }
  r.exchange_many_start(ws);
  OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
           static_cast<std::uint32_t>(nb));
  a.apply_interior_many(in, ys);
  r.exchange_many_finish(ws);
  a.apply_coupled_many(in, ys);
  charge_matvecs(r, a, nb);
}

/// Distributed polynomial preconditioner z_i = P_m(Â) v_i for a set of
/// lanes advancing in lockstep: the operator's shared Polynomial
/// recurrence (Algorithm 7 generalized to Neumann, GLS and Chebyshev)
/// over this rank's vector-format step.  Each of the m steps does one
/// mat-vec per lane and ONE fused exchange, so a step costs the same
/// number of messages at any width.
///
/// Two forms, fixed at construction, with identical arithmetic:
///   global (Enhanced, Algorithm 6 line 10): v, z and the recursion
///     vectors in global format; each step's mat-vec output is
///     globalized (spmv_exchange);
///   local (Basic, Algorithm 5 line 12): v, z and the recursion vectors
///     in local format; each step globalizes a copy of the recursion
///     vector before the mat-vec (exchange_spmv), so the result needs no
///     final exchange.
class DistPoly {
 public:
  DistPoly(const EddOperatorState& op, std::size_t nl, std::size_t width,
           bool local)
      : poly_(op.poly.get()), work_(width, nl), local_(local) {
    PFEM_CHECK_MSG(poly_ != nullptr,
                   "EDD operator state without a built polynomial "
                   "(use build_edd_operator)");
    if (local_) wd_.assign(width, Vector(nl));
    for (Vector& w : wd_) wdp_.push_back(&w);
  }

  /// vin[i] -> zout[i]; scratch lane i serves input i.
  void apply(EddRank& r, const RankKernel& a,
             std::span<const Vector* const> vin,
             std::span<Vector* const> zout) {
    // The step: out_i = Â in_i for every lane, in the form's discipline.
    poly_->apply(vin, zout, work_,
                 [&](std::span<const Vector* const> in,
                     std::span<Vector* const> out) {
                   if (!local_) return spmv_exchange(r, a, in, out);
                   for (std::size_t i = 0; i < in.size(); ++i)
                     la::copy(*in[i], wd_[i]);  // the copies to globalize
                   exchange_spmv(r, a, std::span(wdp_).first(in.size()), out);
                 });
    const std::size_t nb = vin.size();
    r.counters().flops += nb * poly_->flops_per_lane(r.nl());
    r.counters().vector_updates += nb * poly_->updates_per_lane();
  }

  /// Single-lane form, for the short-recurrence solvers.
  void apply(EddRank& r, const RankKernel& a, const Vector& v, Vector& z) {
    const Vector* const vin[1] = {&v};
    Vector* const zout[1] = {&z};
    apply(r, a, vin, zout);
  }

 private:
  const Polynomial* poly_;
  PolyScratch work_;
  bool local_;
  std::vector<Vector> wd_;     // local form: globalized copies
  std::vector<Vector*> wdp_;   // ... and their lane views
};

/// The EDD-FGMRES engine behind solve_edd and solve_edd_batch: restarted
/// FGMRES with the operator's polynomial (and optional coarse
/// correction) on every RHS of `rhs` at once, on a team whose size is
/// part.nparts().  `variant` picks the vector-format discipline
/// (Algorithm 5 or 6); `batched_reductions` folds each Gram–Schmidt
/// pass into one allreduce instead of one per coefficient.  A typed
/// communication failure comes back as a partial report (see
/// BatchSolveResult::comm_error).  With a null `trace`, a per-call trace
/// is created when opts.observe.trace asks for one.
[[nodiscard]] BatchSolveResult run_edd_fgmres(
    par::Team& team, const EddPartition& part, const EddOperatorState& op,
    std::span<const Vector> rhs, const SolveOptions& opts, EddVariant variant,
    bool batched_reductions, obs::Trace* trace);

/// The solve half of a one-shot EDD solve: runs on the built operator,
/// records spans into `trace` (may be null), and fills the report, x and
/// the solve's rank_counters — or, on a typed communication failure,
/// only comm_error and the partial report.
using OneShotRun = std::function<void(par::Team& team,
                                      const EddOperatorState& op,
                                      obs::Trace* trace, DistSolve& result)>;

/// Rank body of a short-recurrence EDD solver (CG, BiCGSTAB): writes
/// this rank's physical solution piece `u` (global format) and, on rank
/// 0, the report (history growing per iteration, so a comm failure
/// leaves a truthful partial report).
using RankSolveFn = std::function<void(par::Comm& comm,
                                       const EddOperatorState& op, Vector& u,
                                       SolveReport& report)>;

/// The one-shot setup every EDD solver shares: a fresh team armed with
/// opts.observe's fault injector and comm timeout, a per-call trace when
/// opts.observe.trace asks for one, build_edd_operator (norm-1 scaling,
/// kernels, polynomial and — with `deflation` enabled — the coarse
/// operator), then `run`.  A communication failure in the build or in
/// `run` comes back as a typed comm-failed report.  rank_counters cover
/// build + solve; setup_counters are the build's slice.
[[nodiscard]] DistSolve solve_one_shot(
    const EddPartition& part, const PolySpec& spec, const SolveOptions& opts,
    const std::vector<sparse::CsrMatrix>* local_matrices,
    const DeflationOptions& deflation, const OneShotRun& run);

/// solve_one_shot for a short-recurrence solver: no coarse operator,
/// `rank_solve` on every rank.
[[nodiscard]] DistSolve solve_one_shot(
    const EddPartition& part, const PolySpec& spec, const SolveOptions& opts,
    const std::vector<sparse::CsrMatrix>* local_matrices,
    const RankSolveFn& rank_solve);

}  // namespace pfem::core::detail
