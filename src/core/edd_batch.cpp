#include "core/edd_batch.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/edd_kernels.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace {

using partition::EddPartition;
using partition::EddSubdomain;
using sparse::CsrMatrix;
using detail::DistPoly;
using detail::EddRank;
using detail::sqrt_nonneg;

/// Shared output of a solve, written per rank / by the local leader.
struct BatchShared {
  std::vector<std::vector<Vector>> sol;  ///< [rhs][rank] u in global format
  std::vector<BatchItemResult> items;    ///< written by the local leader
  /// Harvested recycle directions, [rhs][ring slot][rank] pieces of the
  /// physical (scaling undone) cycle updates Δu, in the discipline's
  /// basis format.  Ring-bounded to max_directions slots; dir_count says
  /// how many cycles actually deposited (so the gather can order oldest
  /// → newest).  The slot index is a pure function of allreduced state,
  /// so every rank writes its own [rank] piece of the same slot.
  std::vector<std::vector<std::vector<Vector>>> dirs;
  std::vector<std::size_t> dir_count;  ///< written by the local leader
};

/// RHS b's session input, or null when it starts cold.  run_edd_fgmres
/// has checked that every x0 and direction is a physical global vector.
const RecycleIn* recycle_in(const SolveOptions& opts, std::size_t b) {
  if (!opts.recycle.enabled || opts.recycle.in == nullptr ||
      b >= opts.recycle.in->size())
    return nullptr;
  const RecycleIn& rin = (*opts.recycle.in)[b];
  return rin.empty() ? nullptr : &rin;
}

/// The recycled directions a session input contributes: the most recent
/// max_directions.
std::span<const Vector> kept_directions(const SolveOptions& opts,
                                        const RecycleIn& rin) {
  const auto k = std::min(rin.directions.size(),
                          static_cast<std::size_t>(std::max<index_t>(
                              opts.recycle.max_directions, 0)));
  return std::span(rin.directions).last(k);
}

/// Width of the session warm setup's ONE fused exchange: per warm RHS the
/// globalized b̂ (for ‖b̂‖), one Âp_j per kept direction, and Âx̂₀ when a
/// projection needs the warm residual.  0 = every RHS starts cold.
std::size_t warm_width(const SolveOptions& opts, std::size_t nb) {
  std::size_t w = 0;
  for (std::size_t b = 0; b < nb; ++b)
    if (const RecycleIn* rin = recycle_in(opts, b)) {
      const std::size_t k = kept_directions(opts, *rin).size();
      w += 1 + k + (k > 0 && !rin->x0.empty() ? 1 : 0);
    }
  return w;
}

/// The EDD space of the FGMRES engine on one rank (Algorithm 5 when
/// `basic`, Algorithm 6 otherwise).  Basic keeps x, the Arnoldi basis and
/// the preconditioned vectors in local format; Enhanced keeps them in
/// global format.  r and w have an other-format shadow here (loc/glob
/// below), and each exchange and reduction is ONE fused operation for all
/// lanes it covers, so at width 1 the message and reduction sequence is
/// the plain single-RHS algorithm's.
class EddSpace final : public detail::KrylovSpace {
 public:
  EddSpace(const EddPartition& part, const EddOperatorState& op,
           std::span<const Vector> rhs, const SolveOptions& opts, bool basic,
           par::Comm& comm, BatchShared& out)
      : opts_(opts),
        basic_(basic),
        comm_(comm),
        out_(out),
        s_(comm.rank()),
        sub_(part.subs[static_cast<std::size_t>(s_)]),
        nb_(rhs.size()),
        prewidth_(warm_width(opts, nb_)),
        r_(sub_, comm, std::max(nb_, prewidth_)),
        nl_(r_.nl()),
        d_(op.d[static_cast<std::size_t>(s_)]),
        a_(op.kern[static_cast<std::size_t>(s_)]),
        poly_(op, nl_, nb_, /*local=*/basic),
        coarse_(op.coarse.get()),
        kmax_(static_cast<std::size_t>(
            std::max<index_t>(opts.recycle.max_directions, 0))),
        harvest_(opts.recycle.enabled && opts.recycle.harvest && kmax_ > 0),
        harvested_(nb_, 0),
        rs_(nb_, Vector(nl_)),
        ws_(nb_, Vector(nl_)) {
    // RHS in local distributed, scaled format: b = D̂ (f_loc / mult).
    for (const Vector& f : rhs)
      b_loc_.push_back(detail::scaled_local_rhs(sub_, d_, f));
    r_.counters().flops += nb_ * nl_;
    // Two-level deflation, prebuilt by build_edd_operator and cached with
    // the operator: the A-DEF1 correction costs the whole batch ONE small
    // allreduce (every live RHS's coarse residual in one buffer) per
    // preconditioner application, plus — Enhanced only — ONE fused
    // exchange globalizing the ÂZy corrections.
    if (coarse_ != nullptr) {
      Vector w(nl_);  // Z weights 1/d̂: the scaled operator's near-null basis
      for (std::size_t l = 0; l < nl_; ++l) w[l] = 1.0 / d_[l];
      defl_.emplace(sub_, s_, part.nparts(), op.deflation, w);
      zy_.assign(nb_, Vector(nl_));
      vdef_.assign(nb_, Vector(nl_));
    }
  }

  [[nodiscard]] std::size_t size() const override { return nl_; }
  [[nodiscard]] bool leader() const override {
    // Shared per-process result state is written by the LOCAL leader
    // (rank 0 in-process; each process's lowest rank on a multi-process
    // transport).  Every value it writes derives from allreduced scalars,
    // so all leaders write bit-identical results.
    return s_ == comm_.local_leader();
  }
  [[nodiscard]] obs::Tracer* tracer() override { return comm_.tracer(); }

  void start(State ln, std::span<real_t> beta0) override;

  // r = b − Â x in both formats: one fused exchange (Basic first
  // globalizes a copy of its local-format x with one more).
  void residual(Lanes lanes, State ln, std::span<real_t> red) override {
    const auto r = [&](std::size_t b) -> Vector& { return ln[b].v[0]; };
    spmv_lanes(lanes, [&](std::size_t b) -> Vector& { return ln[b].x; }, r,
               rs_);
    for (const std::size_t b : lanes) {
      Vector& rl = loc(r(b), rs_[b]);
      for (std::size_t l = 0; l < nl_; ++l) rl[l] = b_loc_[b][l] - rl[l];
      r_.counters().flops += nl_;
    }
    globalize(lanes, r, rs_);
    for (std::size_t i = 0; i < lanes.size(); ++i)
      red[i] = r_.dot_lg_partial(rs_[lanes[i]], r(lanes[i]));
  }

  // z = B v, then w = Â z in both formats.  Basic globalizes z first (+1)
  // and then w (+1); Enhanced, whose z is global, only w (+1).
  void step(Lanes lanes, std::size_t j, State ln) override {
    precondition(lanes, j, ln);
    const auto w = [&](std::size_t b) -> Vector& { return ln[b].w; };
    spmv_lanes(lanes, [&](std::size_t b) -> Vector& { return ln[b].z[j]; },
               w, ws_);
    globalize(lanes, w, ws_);
    stale_ = false;
  }

  // h_k = ⊕Σ <ŵ_loc, v̂_k,glob> (Eq. 33; Eq. 34 with the formats swapped
  // for Basic).  Basic subtracts from its local-format w, so it refreshes
  // a stale global shadow with one more exchange; Enhanced uses its local
  // shadow while fresh, the 1/mult-weighted dot on its global w after.
  void dots(Lanes lanes, std::size_t nk, State ln,
            std::span<real_t> red) override {
    refresh(lanes, ln);
    for (std::size_t i = 0; i < lanes.size(); ++i)  // lane-major: w stays hot
      for (std::size_t k = 0; k < nk; ++k) {
        const std::size_t b = lanes[i];
        const Vector& v = ln[b].v[k];
        red[k * lanes.size() + i] =
            basic_   ? r_.dot_lg_partial(v, ws_[b])
            : stale_ ? r_.dot_gg_partial(ln[b].w, v)
                     : r_.dot_lg_partial(ws_[b], v);
      }
    stale_ = true;
  }

  void norms(Lanes lanes, State ln, std::span<real_t> red) override {
    refresh(lanes, ln);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const Vector& w = ln[lanes[i]].w;
      red[i] = basic_ ? r_.dot_lg_partial(w, ws_[lanes[i]])
                      : r_.dot_gg_partial(w, w);
    }
  }

  void reduce(std::span<real_t> red) override { comm_.allreduce_sum(red); }

  void charge(std::uint64_t axpys, std::uint64_t scalings) override {
    r_.counters().flops += (2 * axpys + scalings) * nl_;
    r_.counters().vector_updates += axpys + scalings;
  }

  // Deposit this cycle's physical update Δu = D̂·Z y into the harvest
  // ring.  The slot index derives from the deterministic cycle count, so
  // every rank writes its own piece of the SAME slot and the ring keeps
  // the most recent kmax cycles.
  void cycle_update(std::size_t b, std::span<const real_t> y,
                    const detail::KrylovLane& ln) override {
    if (!harvest_) return;
    Vector du(nl_, 0.0);
    for (std::size_t k = 0; k < y.size(); ++k) la::axpy(y[k], ln.z[k], du);
    for (std::size_t l = 0; l < nl_; ++l) du[l] *= d_[l];
    out_.dirs[b][harvested_[b]++ % kmax_][static_cast<std::size_t>(s_)] =
        std::move(du);
  }

  // Solutions in physical variables u = D x (Basic globalizes its
  // local-format x with one exchange).
  void finish(State ln) override {
    const auto x = [&](std::size_t b) -> Vector& { return ln[b].x; };
    std::vector<std::size_t> all(nb_);
    for (std::size_t b = 0; b < nb_; ++b) all[b] = b;
    if (basic_) globalize(all, x, ws_);
    for (std::size_t b = 0; b < nb_; ++b) {
      const Vector& xg = glob(x(b), ws_[b]);
      Vector u(nl_);
      for (std::size_t l = 0; l < nl_; ++l) u[l] = d_[l] * xg[l];
      out_.sol[b][static_cast<std::size_t>(s_)] = std::move(u);
    }
    if (harvest_ && leader())
      for (std::size_t b = 0; b < nb_; ++b) out_.dir_count[b] = harvested_[b];
  }

 private:
  // The local- and global-format copies of an engine vector e (in the
  // basis format) and its shadow s.
  Vector& loc(Vector& e, Vector& s) const { return basic_ ? e : s; }
  Vector& glob(Vector& e, Vector& s) const { return basic_ ? s : e; }

  // loc(e, s) = Â u for the lanes, u in the basis format: Enhanced's
  // global u goes straight into the kernel; Basic globalizes a copy of
  // its local u in the shadow first (+1 exchange).
  void spmv_lanes(Lanes lanes, const auto& u, const auto& e,
                  std::vector<Vector>& s) {
    ex_.clear();
    ey_.clear();
    for (const std::size_t b : lanes) {
      if (!basic_) {
        r_.spmv(a_, u(b), s[b]);
        continue;
      }
      la::copy(u(b), s[b]);
      ex_.push_back(&s[b]);
      ey_.push_back(&e(b));
    }
    if (basic_) detail::exchange_spmv(r_, a_, ex_, ey_);
  }

  // glob(e, s) = ⊕Σ loc(e, s) for the lanes: one fused exchange.
  void globalize(Lanes lanes, const auto& e, std::vector<Vector>& s) {
    ex_.clear();
    for (const std::size_t b : lanes) {
      la::copy(loc(e(b), s[b]), glob(e(b), s[b]));
      ex_.push_back(&glob(e(b), s[b]));
    }
    r_.exchange_many(ex_);
  }

  // Basic's global shadow of w after the engine changed w.
  void refresh(Lanes lanes, State ln) {
    if (!basic_ || !stale_) return;
    globalize(lanes, [&](std::size_t b) -> Vector& { return ln[b].w; }, ws_);
    stale_ = false;
  }

  void precondition(Lanes lanes, std::size_t j, State ln);

  const SolveOptions& opts_;
  const bool basic_;
  par::Comm& comm_;
  BatchShared& out_;
  const int s_;
  const EddSubdomain& sub_;
  const std::size_t nb_, prewidth_;
  EddRank r_;
  const std::size_t nl_;
  const Vector& d_;
  const RankKernel& a_;
  DistPoly poly_;
  const CoarseOperator* const coarse_;
  std::optional<DeflationRank> defl_;
  const std::size_t kmax_;
  const bool harvest_;
  std::vector<std::size_t> harvested_;
  std::vector<Vector> b_loc_;
  std::vector<Vector> rs_, ws_;  ///< other-format shadows of r and w
  bool stale_ = false;           ///< the engine changed w since step()
  std::vector<Vector> zy_, vdef_;
  Vector cbuf_;
  std::vector<Vector*> ex_, ey_;   // fused-exchange / mat-vec output views
  std::vector<const Vector*> pv_;  // preconditioner inputs
  std::vector<Vector*> pz_;        // preconditioner outputs
};

// z = B v for the lanes: the polynomial, wrapped in the A-DEF1 coarse
// correction B v = M (v − ÂQv) + Qv (Q = ZE⁻¹Zᵀ) when deflating.  Zy is
// globally consistent by construction, so ÂZy comes out in local format:
// Basic subtracts it from its local-format v as is, Enhanced globalizes
// it first.
void EddSpace::precondition(Lanes lanes, std::size_t j, State ln) {
  obs::Tracer* const tr = comm_.tracer();
  pv_.clear();
  pz_.clear();
  for (const std::size_t b : lanes) {
    pv_.push_back(&ln[b].v[j]);
    pz_.push_back(&ln[b].z[j]);
  }
  const auto nc = defl_ ? static_cast<std::size_t>(defl_->ncoarse()) : 0;
  if (defl_) {
    OBS_SPAN(tr, "coarse_correct", obs::Cat::Precond,
             static_cast<std::uint32_t>(lanes.size()));
    cbuf_.assign(lanes.size() * nc, 0.0);
    const std::span<real_t> call(cbuf_);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (basic_)
        defl_->restrict_local(*pv_[i], call.subspan(i * nc, nc));
      else
        defl_->restrict_global(*pv_[i], call.subspan(i * nc, nc));
      r_.counters().flops += 2 * nl_;
    }
    comm_.allreduce_sum(call);
    ex_.clear();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const std::size_t b = lanes[i];
      const auto c = call.subspan(i * nc, nc);
      coarse_->solve(c);  // y = E⁻¹Zᵀv, bit-identical on every rank
      r_.counters().coarse_solves += 1;
      r_.counters().flops += coarse_->solve_flops();
      defl_->prolong_global(c, zy_[b]);
      r_.counters().flops += nl_;
      r_.spmv(a_, zy_[b], vdef_[b]);
      if (!basic_) ex_.push_back(&vdef_[b]);
    }
    r_.exchange_many(ex_);  // no-op for Basic: ex stays empty
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const std::size_t b = lanes[i];
      const Vector& vin = *pv_[i];
      for (std::size_t l = 0; l < nl_; ++l) vdef_[b][l] = vin[l] - vdef_[b][l];
      r_.counters().flops += nl_;
      r_.counters().vector_updates += 1;
      pv_[i] = &vdef_[b];
    }
  }
  {
    OBS_SPAN(tr, "poly_apply", obs::Cat::Precond);
    poly_.apply(r_, a_, pv_, pz_);
  }
  if (!defl_) return;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::size_t b = lanes[i];
    if (basic_) {
      // Zy once more, in local format this time.
      defl_->prolong_local(
          std::span<const real_t>(cbuf_).subspan(i * nc, nc), zy_[b]);
      r_.counters().flops += nl_;
    }
    Vector& zout = *pz_[i];
    for (std::size_t l = 0; l < nl_; ++l) zout[l] += zy_[b][l];
    r_.counters().flops += nl_;
    r_.counters().vector_updates += 1;
  }
}

// Solve-session warm setup (opts.recycle): warm-start guesses, recycled-
// direction projection, and the ‖b̂‖ convergence reference.  ALL the
// extra session traffic is ONE fused exchange plus ONE allreduce for the
// whole batch; stateless solves (no warm width) skip this entirely —
// exchange count for exchange count (the Table-1 contract).
void EddSpace::start(State ln, std::span<real_t> beta0) {
  if (prewidth_ == 0) return;
  OBS_SPAN(comm_.tracer(), "recycle_setup", obs::Cat::Setup,
           static_cast<std::uint32_t>(prewidth_));
  // x̂ = D̂⁻¹u for a physical global u: globally consistent because d̂ is
  // consistent on shared dofs.
  const auto scaled = [&](const Vector& u, Vector& xs) {
    xs.resize(nl_);
    for (std::size_t l = 0; l < nl_; ++l)
      xs[l] = u[static_cast<std::size_t>(sub_.local_to_global[l])] / d_[l];
    r_.counters().flops += nl_;
  };
  std::vector<std::vector<Vector>> pd(nb_);  // scaled directions p̂_j
  std::vector<std::vector<Vector>> cd(nb_);  // Â p̂_j, globalized
  std::vector<Vector> bg(nb_), ax0(nb_);
  ex_.clear();
  for (std::size_t b = 0; b < nb_; ++b) {
    const RecycleIn* rin = recycle_in(opts_, b);
    if (rin == nullptr) continue;
    if (!rin->x0.empty()) scaled(rin->x0, ln[b].x);  // the warm start
    bg[b] = b_loc_[b];  // globalized below, for ‖b̂‖ and r̂₀
    ex_.push_back(&bg[b]);
    for (const Vector& dir : kept_directions(opts_, *rin))
      scaled(dir, pd[b].emplace_back());
    cd[b].assign(pd[b].size(), Vector(nl_));
    for (std::size_t j = 0; j < pd[b].size(); ++j) {
      r_.spmv(a_, pd[b][j], cd[b][j]);
      ex_.push_back(&cd[b][j]);
    }
    if (!pd[b].empty() && !rin->x0.empty()) {
      ax0[b].resize(nl_);
      r_.spmv(a_, ln[b].x, ax0[b]);
      ex_.push_back(&ax0[b]);
    }
  }
  r_.exchange_many(ex_);  // the session's one fused exchange

  // Partial sums — ‖b̂‖² per warm RHS, then the normal-equation blocks
  // M = CᵀC and g = Cᵀr̂₀ per projecting RHS — fold into ONE allreduce.
  Vector red;
  for (std::size_t b = 0; b < nb_; ++b) {
    if (bg[b].empty()) continue;
    red.push_back(r_.dot_lg_partial(b_loc_[b], bg[b]));
    const std::size_t k = pd[b].size();
    if (k == 0) continue;
    Vector r0(nl_);
    for (std::size_t l = 0; l < nl_; ++l)
      r0[l] = bg[b][l] - (ax0[b].empty() ? 0.0 : ax0[b][l]);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        red.push_back(r_.dot_gg_partial(cd[b][i], cd[b][j]));
    for (std::size_t i = 0; i < k; ++i)
      red.push_back(r_.dot_gg_partial(cd[b][i], r0));
    r_.counters().flops += 2 * nl_ * (k * k + 2 * k);
  }
  comm_.allreduce_sum(red);

  // Consume the allreduced scalars: every decision below (trivial RHS,
  // projection coefficients, singular skip) is identical on all ranks.
  std::size_t off = 0;
  for (std::size_t b = 0; b < nb_; ++b) {
    if (bg[b].empty()) continue;
    Vector& x = ln[b].x;
    beta0[b] = sqrt_nonneg(red[off++]);
    const std::size_t k = pd[b].size();
    if (beta0[b] == 0.0) {
      // Trivial RHS: x = 0 is exact — same report as the cold path, warm
      // start discarded (the cold answer IS the answer).
      la::fill(x, 0.0);
      off += k * k + k;
      continue;
    }
    if (k > 0) {
      la::DenseMatrix nm(as_index(k), as_index(k));
      for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j)
          nm(as_index(i), as_index(j)) = red[off++];
      Vector g(red.begin() + static_cast<std::ptrdiff_t>(off),
               red.begin() + static_cast<std::ptrdiff_t>(off + k));
      off += k;
      // Mild Tikhonov floor so near-parallel recycled directions cannot
      // break the factorization; a singular system skips the projection
      // (the solve just starts less warm) — identically on every rank.
      real_t trace = 0.0;
      for (std::size_t i = 0; i < k; ++i) trace += nm(as_index(i), as_index(i));
      const real_t eps = 1e-12 * (trace / static_cast<real_t>(k));
      for (std::size_t i = 0; i < k; ++i) nm(as_index(i), as_index(i)) += eps;
      try {
        la::lu_solve(nm, g);
        for (std::size_t j = 0; j < k; ++j) la::axpy(g[j], pd[b][j], x);
        r_.counters().flops += 2 * nl_ * k;
        r_.counters().vector_updates += k;
      } catch (const Error&) {
      }
    }
    // The warm guess was assembled in global format; Basic iterates on a
    // local-format x (the cross-rank sum of the pieces).
    if (basic_)
      for (std::size_t l = 0; l < nl_; ++l)
        x[l] /= static_cast<real_t>(sub_.multiplicity[l]);
  }
}

/// One rank of an EDD-FGMRES solve: the engine over this rank's space.
void rank_solve(const EddPartition& part, const EddOperatorState& op,
                std::span<const Vector> rhs, const SolveOptions& opts,
                bool basic, par::Comm& comm, BatchShared& out) {
  OBS_SPAN(comm.tracer(), "solve_batch", obs::Cat::Solve,
           static_cast<std::uint32_t>(rhs.size()));
  EddSpace space(part, op, rhs, opts, basic, comm, out);
  detail::run_fgmres(space, opts, out.items);
}

/// Assemble per-rank pieces into one global vector.  Pieces of ranks
/// hosted by another process were never deposited here; they zero-fill,
/// so the gather assembles the dofs this process's ranks own (each
/// process holds its piece of the solution, as a distributed-memory run
/// would).
Vector gather(const EddPartition& part, std::vector<Vector>& pieces,
              bool local_format) {
  for (std::size_t q = 0; q < pieces.size(); ++q) {
    const std::size_t want = part.subs[q].local_to_global.size();
    if (pieces[q].size() != want) pieces[q].assign(want, 0.0);
  }
  return local_format ? partition::edd_gather_local(part, pieces)
                      : partition::edd_gather_global(part, pieces);
}

}  // namespace

namespace detail {

BatchSolveResult run_edd_fgmres(par::Team& team, const EddPartition& part,
                                const EddOperatorState& op,
                                std::span<const Vector> rhs,
                                const SolveOptions& opts, EddVariant variant,
                                obs::Trace* trace) {
  PFEM_CHECK_MSG(!rhs.empty(), "EDD-FGMRES: empty RHS batch");
  PFEM_CHECK_MSG(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0,
                 "EDD-FGMRES: restart/max_iters must be >= 1 and tol > 0");
  PFEM_CHECK_MSG(team.size() == part.nparts(),
                 "EDD-FGMRES: team size " << team.size()
                 << " != partition parts " << part.nparts());
  PFEM_CHECK_MSG(op.kern.size() == part.subs.size() &&
                     op.d.size() == part.subs.size(),
                 "EDD-FGMRES: operator state was not built for this "
                 "partition (use build_edd_operator)");
  PFEM_CHECK_MSG(op.poly != nullptr,
                 "EDD-FGMRES: operator state without a built polynomial "
                 "(use build_edd_operator)");
  for (const Vector& f : rhs) {
    PFEM_CHECK(f.size() == static_cast<std::size_t>(part.n_global));
    require_finite_rhs(f, "EDD-FGMRES");
  }
  const auto p = static_cast<std::size_t>(part.nparts());
  const std::size_t nb = rhs.size();
  if (opts.recycle.enabled && opts.recycle.in != nullptr) {
    // Session inputs are physical global vectors, same shape as the
    // solutions this solver returns; anything else is a caller bug.
    const auto& in = *opts.recycle.in;
    for (std::size_t b = 0; b < std::min(in.size(), nb); ++b) {
      PFEM_CHECK_MSG(
          in[b].x0.empty() ||
              in[b].x0.size() == static_cast<std::size_t>(part.n_global),
          "EDD-FGMRES: recycle x0 length mismatch for RHS " << b);
      for (const Vector& dir : in[b].directions)
        PFEM_CHECK_MSG(
            dir.size() == static_cast<std::size_t>(part.n_global),
            "EDD-FGMRES: recycle direction length mismatch for RHS " << b);
    }
  }
  const bool basic = variant == EddVariant::Basic;
  const auto kmax = static_cast<std::size_t>(
      std::max<index_t>(opts.recycle.max_directions, 0));
  const bool harvest =
      opts.recycle.enabled && opts.recycle.harvest && kmax > 0;

  BatchShared out;
  out.sol.assign(nb, std::vector<Vector>(p));
  out.items.assign(nb, BatchItemResult{});
  if (harvest) {
    out.dirs.assign(
        nb, std::vector<std::vector<Vector>>(kmax, std::vector<Vector>(p)));
    out.dir_count.assign(nb, 0);
  }

  // An external trace (the service's) wins; otherwise honor the per-call
  // observe knob with a trace owned by this result.
  std::shared_ptr<obs::Trace> own_trace;
  if (trace == nullptr && opts.observe.trace) {
    own_trace = std::make_shared<obs::Trace>(static_cast<int>(p),
                                             opts.observe.ring_capacity);
    trace = own_trace.get();
  }

  WallTimer timer;
  std::vector<par::PerfCounters> counters;
  std::string comm_error;
  try {
    counters = team.run(
        [&](par::Comm& comm) {
          rank_solve(part, op, rhs, opts, basic, comm, out);
        },
        trace);
  } catch (const par::CommError& e) {
    // Typed communication failure: all ranks have joined, so the partial
    // per-RHS reports the leader wrote incrementally are intact.  Return
    // a typed failed report; Cancelled and rank errors still propagate.
    comm_error = e.what();
  }

  BatchSolveResult result;
  result.wall_seconds = timer.seconds();
  result.trace = std::move(own_trace);
  result.items = std::move(out.items);
  if (!comm_error.empty()) {
    for (BatchItemResult& item : result.items) {
      item.converged = false;
      item.comm_error = comm_error;
    }
    result.comm_error = std::move(comm_error);
    return result;  // x stays empty: no corrupt solutions
  }
  result.x.reserve(nb);
  for (std::size_t b = 0; b < nb; ++b)
    result.x.push_back(gather(part, out.sol[b], /*local_format=*/false));
  if (harvest) {
    // Assemble the harvested ring slots oldest → newest.
    result.recycled.resize(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t cnt = out.dir_count[b];
      const std::size_t kept = std::min(cnt, kmax);
      for (std::size_t i = 0; i < kept; ++i)
        result.recycled[b].push_back(
            gather(part, out.dirs[b][(cnt - kept + i) % kmax], basic));
    }
  }
  result.rank_counters = std::move(counters);
  return result;
}

DistSolve solve_one_shot(const EddPartition& part, const PolySpec& spec,
                         const SolveOptions& opts,
                         const std::vector<sparse::CsrMatrix>* local_matrices,
                         const DeflationOptions& deflation,
                         const OneShotRun& run) {
  WallTimer timer;
  const int p = part.nparts();
  par::Team team(p);
  if (opts.observe.fault_injector != nullptr)
    team.set_fault_injector(opts.observe.fault_injector);
  if (opts.observe.comm_timeout_seconds > 0.0)
    team.set_comm_timeout(opts.observe.comm_timeout_seconds);
  // The trace (if any) spans both jobs, like the counters below.
  std::shared_ptr<obs::Trace> trace;
  if (opts.observe.trace)
    trace = std::make_shared<obs::Trace>(p, opts.observe.ring_capacity);

  DistSolve result;
  result.trace = trace;
  EddOperatorState op;
  try {
    op = build_edd_operator(team, part, spec, local_matrices, trace.get(),
                            opts.kernels, deflation);
  } catch (const par::CommError& e) {
    // The setup exchange (or the coarse allreduce) died on the wire:
    // every rank has joined, so this is a typed failed report with no
    // history, never an escaping exception.
    result.comm_error = e.what();
    result.wall_seconds = timer.seconds();
    return result;
  }
  run(team, op, trace.get(), result);
  result.wall_seconds = timer.seconds();
  result.setup_counters = op.setup_counters;
  if (result.comm_failed()) {
    result.converged = false;
    return result;  // partial report, no x
  }
  // rank_counters cover the whole call: the setup slice plus the solve.
  std::vector<par::PerfCounters> solve = std::move(result.rank_counters);
  result.rank_counters = std::move(op.setup_counters);
  for (std::size_t s = 0; s < result.rank_counters.size(); ++s)
    result.rank_counters[s] += solve[s];
  return result;
}

DistSolve solve_one_shot(const EddPartition& part, const PolySpec& spec,
                         const SolveOptions& opts,
                         const std::vector<sparse::CsrMatrix>* local_matrices,
                         const RankSolveFn& rank_solve) {
  return solve_one_shot(
      part, spec, opts, local_matrices, DeflationOptions{},
      [&](par::Team& team, const EddOperatorState& op, obs::Trace* trace,
          DistSolve& result) {
        std::vector<Vector> sol(part.subs.size());
        try {
          result.rank_counters = team.run(
              [&](par::Comm& comm) {
                rank_solve(comm, op,
                           sol[static_cast<std::size_t>(comm.rank())], result);
              },
              trace);
        } catch (const par::CommError& e) {
          result.comm_error = e.what();
          return;
        }
        result.x = partition::edd_gather_global(part, sol);
      });
}

}  // namespace detail

EddOperatorState build_edd_operator(
    par::Team& team, const partition::EddPartition& part, const PolySpec& spec,
    const std::vector<sparse::CsrMatrix>* local_matrices, obs::Trace* trace,
    const KernelOptions& kernels, const DeflationOptions& deflation) {
  WallTimer timer;
  // The polynomial recursion data depends only on the spec (the paper
  // builds it redundantly per rank with zero communication); one shared
  // read-only build serves every rank of every later solve.  Building it
  // first validates the spec on the calling thread.
  auto poly = std::make_shared<const Polynomial>(spec);
  // Fail a mismatched coarse-space configuration HERE, on the calling
  // thread, as a typed BadOperatorError — not as a per-rank surprise
  // halfway through the team's build.
  validate_deflation(deflation, part.n_global);
  PFEM_CHECK_MSG(team.size() == part.nparts(),
                 "build_edd_operator: team size " << team.size()
                 << " != partition parts " << part.nparts());
  if (local_matrices != nullptr)
    PFEM_CHECK(local_matrices->size() == part.subs.size());
  const auto p = static_cast<std::size_t>(part.nparts());

  EddOperatorState op;
  op.poly = std::move(poly);
  op.kernels = kernels;
  op.deflation = deflation;
  op.d.resize(p);
  op.kern.resize(p);
  la::DenseMatrix e_shared;  // allreduced E, identical bits on every rank
  op.setup_counters = team.run(
      [&](par::Comm& comm) {
        const auto s = static_cast<std::size_t>(comm.rank());
        const EddSubdomain& sub = part.subs[s];
        EddRank r(sub, comm);
        OBS_SPAN(comm.tracer(), "build_operator", obs::Cat::Setup);
        const std::size_t nl = r.nl();
        const CsrMatrix& k = local_matrices ? (*local_matrices)[s] : sub.k_loc;
        Vector d = k.row_norms1();  // partial row norms d_i^(s) (Eq. 43)
        r.counters().flops += static_cast<std::uint64_t>(k.nnz());
        r.exchange(d);              // d_i = Σ_s d_i^(s) (Eq. 42)
        for (std::size_t l = 0; l < nl; ++l) {
          // The exchange made d globally consistent, so a zero sum is a
          // degenerate ROW OF THE ASSEMBLED OPERATOR, not a partition
          // artifact — typed so the service maps it to
          // Failed{BadOperator} (request-scoped, the build is never
          // cached) instead of a generic failure.
          if (!(d[l] > 0.0))
            throw BadOperatorError(
                "norm-1 scaling: zero/degenerate row at global dof " +
                std::to_string(sub.local_to_global[l]));
          d[l] = 1.0 / std::sqrt(d[l]);
        }
        // Â = D̂ K̂ D̂ (Eq. 44): every kernel format folds D into its own
        // copy of the entries at build time; the 2*nnz scaling work is
        // charged here so setup/iteration flop accounting stays
        // comparable across formats.
        op.kern[s] =
            RankKernel(k, Vector(d), sub.interface_local_dofs, kernels);
        r.counters().flops += 2ull * static_cast<std::uint64_t>(k.nnz());
        if (deflation.enabled) {
          // E = ZᵀÂZ from the local-format sum identity: one sweep over
          // the local nnz per rank (Â applied on the fly), ONE allreduce
          // of the dense buffer.
          OBS_SPAN(comm.tracer(), "build_coarse", obs::Cat::Setup);
          Vector w(nl);  // Z weights 1/d̂ (see core/deflation.hpp)
          for (std::size_t l = 0; l < nl; ++l) w[l] = 1.0 / d[l];
          DeflationRank dr(sub, static_cast<int>(s), part.nparts(),
                           deflation, w);
          la::DenseMatrix ep(dr.ncoarse(), dr.ncoarse());
          dr.accumulate_e(k, d, ep);
          r.counters().flops += 3ull * static_cast<std::uint64_t>(k.nnz());
          comm.allreduce_sum(ep.data());
          // Local-leader guard (not rank 0): on a multi-process team
          // every process needs its own copy, and the allreduce made
          // ep bit-identical on every rank.
          if (static_cast<int>(s) == comm.local_leader())
            e_shared = std::move(ep);
        }
        op.d[s] = std::move(d);
      },
      trace);
  if (deflation.enabled) {
    // One shared read-only factorization serves every rank (the
    // allreduce already replicated E bit-identically); the flops are
    // charged per rank, matching the redundant factorization a
    // distributed-memory run performs in place of a broadcast.
    op.coarse = std::make_shared<const CoarseOperator>(std::move(e_shared));
    const auto nc = static_cast<std::uint64_t>(op.coarse->n());
    for (auto& c : op.setup_counters) c.flops += 2 * nc * nc * nc / 3;
  }

  // Each rank is charged the polynomial build it would run redundantly.
  for (auto& c : op.setup_counters) c.flops += op.poly->build_flops();
  op.setup_seconds = timer.seconds();
  for (auto& c : op.setup_counters) c.total_seconds = op.setup_seconds;
  return op;
}

DistSolve solve_edd(const partition::EddPartition& part,
                    std::span<const real_t> f_global, const PolySpec& spec,
                    const SolveOptions& opts, EddVariant variant,
                    const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  require_finite_rhs(f_global, "solve_edd");
  PFEM_CHECK_MSG(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd: restart/max_iters must be >= 1 and tol > 0");
  // One-shot: a fresh team, one operator build, one width-1 run of the
  // EDD-FGMRES engine in the caller's variant and reduction discipline.
  const std::vector<Vector> rhs{Vector(f_global.begin(), f_global.end())};
  return detail::solve_one_shot(
      part, spec, opts, local_matrices, opts.deflation,
      [&](par::Team& team, const EddOperatorState& op, obs::Trace* trace,
          DistSolve& result) {
        BatchSolveResult run =
            detail::run_edd_fgmres(team, part, op, rhs, opts, variant, trace);
        static_cast<SolveReport&>(result) = std::move(run.items.front());
        if (run.comm_failed()) return;  // partial report, no x
        result.x = std::move(run.x.front());
        if (!run.recycled.empty())
          result.recycled = std::move(run.recycled.front());
        result.rank_counters = std::move(run.rank_counters);
      });
}

BatchSolveResult solve_edd_batch(par::Team& team, const EddPartition& part,
                                 const EddOperatorState& op,
                                 std::span<const Vector> rhs,
                                 const SolveOptions& opts, obs::Trace* trace) {
  // The warm path always folds each Gram–Schmidt pass into one allreduce.
  SolveOptions batched = opts;
  batched.batched_reductions = true;
  return detail::run_edd_fgmres(team, part, op, rhs, batched,
                                EddVariant::Enhanced, trace);
}

}  // namespace pfem::core
