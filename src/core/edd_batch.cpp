#include "core/edd_batch.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/edd_kernels.hpp"
#include "la/dense.hpp"
#include "la/hessenberg_lsq.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace {

using partition::EddPartition;
using partition::EddSubdomain;
using sparse::CsrMatrix;
using detail::DistPoly;
using detail::EddRank;
using detail::sqrt_nonneg;

/// Flop estimate of a GLS build: the Stieltjes three-term recursion and
/// the mu fit each sweep every quadrature node per basis degree (~10
/// flops per node-degree pair, counting the alpha/beta inner products).
std::uint64_t gls_build_flops(const GlsPolynomial& g) {
  return 10ull * static_cast<std::uint64_t>(g.degree() + 1) *
         static_cast<std::uint64_t>(g.basis().num_nodes());
}

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

/// How many vectors the warm-setup phase of `opts.recycle` contributes
/// to its ONE fused exchange for RHS b: the globalized b̂ (for ‖b̂‖),
/// Âx̂₀ when a projection needs the warm residual, and one Âp_j per
/// recycled direction.  0 = this RHS starts cold.
std::size_t recycle_width(const SolveOptions& opts, std::size_t b,
                          std::size_t n_global) {
  if (!opts.recycle.enabled || opts.recycle.in == nullptr ||
      b >= opts.recycle.in->size())
    return 0;
  const RecycleIn& rin = (*opts.recycle.in)[b];
  if (rin.empty()) return 0;
  std::size_t k = 0;
  for (const Vector& p : rin.directions)
    if (p.size() == n_global) ++k;
  k = std::min(k, static_cast<std::size_t>(
                      std::max<index_t>(opts.recycle.max_directions, 0)));
  const bool has_x0 = rin.x0.size() == n_global;
  return 1 + k + (k > 0 && has_x0 ? 1 : 0);
}

/// One rank of the EDD-FGMRES engine (Algorithm 5 when `basic`,
/// Algorithm 6 otherwise) over every RHS of the batch in lockstep.
/// Basic keeps x, the Arnoldi basis and the preconditioned vectors in
/// local format; Enhanced keeps them in global format.  Each exchange
/// and reduction below is ONE fused operation for all lanes it covers,
/// so at width 1 the message and reduction sequence is the plain
/// single-RHS algorithm's.
void rank_solve(const EddPartition& part, const EddOperatorState& op,
                std::span<const Vector> rhs, const SolveOptions& opts,
                bool basic, bool batched_reductions, par::Comm& comm,
                BatchShared& out) {
  const int s = comm.rank();
  // Shared per-process result state is written by the LOCAL leader (rank
  // 0 in-process; each process's lowest rank on a multi-process
  // transport).  Every value written under this guard derives from
  // allreduced scalars, so all leaders write bit-identical results and
  // every process ends up with a full copy of the per-RHS reports.
  const int leader = comm.local_leader();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  const std::size_t nb = rhs.size();
  // Widest fused exchange this solve will issue: the per-iteration batch
  // (nb), or the recycle warm-setup exchange when sessions are active.
  std::size_t prewidth = 0;
  for (std::size_t b = 0; b < nb; ++b)
    prewidth +=
        recycle_width(opts, b, static_cast<std::size_t>(part.n_global));
  EddRank r(sub, comm, std::max(nb, prewidth));
  obs::Tracer* const tr = comm.tracer();
  const std::size_t nl = r.nl();
  const index_t m = opts.restart;
  const Vector& d = op.d[static_cast<std::size_t>(s)];
  const RankKernel& a = op.kern[static_cast<std::size_t>(s)];
  OBS_SPAN(tr, "solve_batch", obs::Cat::Solve,
           static_cast<std::uint32_t>(nb));

  // RHS in local distributed, scaled format: b = D̂ (f_loc / mult).
  std::vector<Vector> b_loc(nb, Vector(nl));
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t l = 0; l < nl; ++l)
      b_loc[b][l] =
          d[l] * (rhs[b][static_cast<std::size_t>(sub.local_to_global[l])] /
                  static_cast<real_t>(sub.multiplicity[l]));
  r.counters().flops += nb * nl;

  // Per-RHS solver state.
  std::vector<Vector> x(nb, Vector(nl, 0.0));
  std::vector<Vector> r_loc(nb, Vector(nl)), r_glob(nb, Vector(nl));
  std::vector<Vector> w_loc(nb, Vector(nl)), w_glob(nb, Vector(nl));
  std::vector<std::vector<Vector>> v(nb), z(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    v[b].assign(static_cast<std::size_t>(m) + 1, Vector(nl));
    z[b].assign(static_cast<std::size_t>(m), Vector(nl));
  }
  std::vector<Vector> h(nb, Vector(static_cast<std::size_t>(m) + 2));
  std::vector<Vector> h2(nb, Vector(static_cast<std::size_t>(m) + 2));
  std::vector<std::optional<la::HessenbergLsq>> lsq(nb);
  std::vector<char> done(nb, 0), frozen(nb, 0), brk(nb, 0);
  std::vector<index_t> iters(nb, 0), jcols(nb, 0);
  std::vector<real_t> beta0(nb, -1.0), relres(nb, 1.0);

  DistPoly poly(op, nl, nb, /*local=*/basic);

  // Two-level deflation, prebuilt by build_edd_operator and cached with
  // the operator: the A-DEF1 correction costs the whole batch ONE small
  // allreduce (every live RHS's coarse residual in one buffer) per
  // preconditioner application, plus — Enhanced only — ONE fused
  // exchange globalizing the ÂZy corrections.
  const CoarseOperator* const coarse = op.coarse.get();
  std::optional<DeflationRank> defl;
  std::vector<Vector> zy, vdef;
  Vector cbuf;
  if (coarse != nullptr) {
    Vector w(nl);  // Z weights 1/d̂: the scaled operator's near-null basis
    for (std::size_t l = 0; l < nl; ++l) w[l] = 1.0 / d[l];
    defl.emplace(sub, s, part.nparts(), op.deflation, w);
    zy.assign(nb, Vector(nl));
    vdef.assign(nb, Vector(nl));
  }

  std::vector<Vector*> ex, ey;     // fused-exchange / mat-vec output views
  std::vector<const Vector*> pv;   // preconditioner inputs
  std::vector<Vector*> pz;         // preconditioner outputs
  Vector red;                      // reduction buffer
  std::vector<std::size_t> all, cyc, next, live;
  ex.reserve(std::max(nb, prewidth));
  ey.reserve(nb);
  pv.reserve(nb);
  pz.reserve(nb);
  for (std::size_t b = 0; b < nb; ++b) all.push_back(b);

  // r_b = b_b − Â x_b in both formats for `lanes`, and red[i] = ‖r_b‖²:
  // one fused exchange (Basic first globalizes a copy of its local-format
  // x with one more) and one allreduce.
  const auto residuals = [&](std::span<const std::size_t> lanes) {
    ex.clear();
    ey.clear();
    for (const std::size_t b : lanes) {
      if (basic) {
        la::copy(x[b], r_glob[b]);
        ex.push_back(&r_glob[b]);
        ey.push_back(&r_loc[b]);
      } else {
        r.spmv(a, x[b], r_loc[b]);
      }
    }
    if (basic) detail::exchange_spmv(r, a, ex, ey);
    ex.clear();
    for (const std::size_t b : lanes) {
      for (std::size_t l = 0; l < nl; ++l)
        r_loc[b][l] = b_loc[b][l] - r_loc[b][l];
      r.counters().flops += nl;
      la::copy(r_loc[b], r_glob[b]);
      ex.push_back(&r_glob[b]);
    }
    r.exchange_many(ex);
    red.resize(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
      red[i] = r.dot_lg_partial(r_loc[lanes[i]], r_glob[lanes[i]]);
    comm.allreduce_sum(red);
  };

  // w_glob = ⊕Σ w_loc for the live lanes: one fused exchange.
  const auto globalize_w = [&] {
    ex.clear();
    for (const std::size_t b : live) {
      la::copy(w_loc[b], w_glob[b]);
      ex.push_back(&w_glob[b]);
    }
    r.exchange_many(ex);
  };

  // z_b = B v_b for the live lanes: the polynomial, wrapped in the
  // A-DEF1 coarse correction B v = M (v − ÂQv) + Qv (Q = ZE⁻¹Zᵀ) when
  // deflating.  Zy is globally consistent by construction, so ÂZy comes
  // out in local format: Basic subtracts it from its local-format v as
  // is, Enhanced globalizes it first.
  const auto precondition = [&](std::size_t jj) {
    pv.clear();
    pz.clear();
    for (const std::size_t b : live) {
      pv.push_back(&v[b][jj]);
      pz.push_back(&z[b][jj]);
    }
    const auto nc = defl ? static_cast<std::size_t>(defl->ncoarse()) : 0;
    if (defl) {
      OBS_SPAN(tr, "coarse_correct", obs::Cat::Precond,
               static_cast<std::uint32_t>(live.size()));
      cbuf.assign(live.size() * nc, 0.0);
      const std::span<real_t> call(cbuf);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (basic)
          defl->restrict_local(*pv[i], call.subspan(i * nc, nc));
        else
          defl->restrict_global(*pv[i], call.subspan(i * nc, nc));
        r.counters().flops += 2 * nl;
      }
      comm.allreduce_sum(call);
      ex.clear();
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t b = live[i];
        const auto c = call.subspan(i * nc, nc);
        coarse->solve(c);  // y = E⁻¹Zᵀv, bit-identical on every rank
        r.counters().coarse_solves += 1;
        r.counters().flops += coarse->solve_flops();
        defl->prolong_global(c, zy[b]);
        r.counters().flops += nl;
        r.spmv(a, zy[b], vdef[b]);
        if (!basic) ex.push_back(&vdef[b]);
      }
      r.exchange_many(ex);  // no-op for Basic: ex stays empty
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t b = live[i];
        const Vector& vin = *pv[i];
        for (std::size_t l = 0; l < nl; ++l) vdef[b][l] = vin[l] - vdef[b][l];
        r.counters().flops += nl;
        r.counters().vector_updates += 1;
        pv[i] = &vdef[b];
      }
    }
    {
      OBS_SPAN(tr, "poly_apply", obs::Cat::Precond);
      poly.apply(r, a, pv, pz);
    }
    if (!defl) return;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::size_t b = live[i];
      if (basic) {
        // Zy once more, in local format this time.
        defl->prolong_local(std::span<const real_t>(cbuf).subspan(i * nc, nc),
                            zy[b]);
        r.counters().flops += nl;
      }
      Vector& zout = *pz[i];
      for (std::size_t l = 0; l < nl; ++l) zout[l] += zy[b][l];
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
    }
  };

  // ---- Solve-session warm setup (opts.recycle): warm-start guesses,
  // recycled-direction projection, and the ‖b̂‖ convergence reference.
  // ALL the extra session traffic is ONE fused exchange plus ONE
  // allreduce for the whole batch; stateless solves (prewidth == 0) skip
  // this block entirely — exchange count for exchange count (the Table-1
  // contract).
  const auto kmax = static_cast<std::size_t>(
      std::max<index_t>(opts.recycle.max_directions, 0));
  const bool harvest =
      opts.recycle.enabled && opts.recycle.harvest && kmax > 0;
  std::vector<std::size_t> harvested(nb, 0);
  if (prewidth > 0) {
    OBS_SPAN(tr, "recycle_setup", obs::Cat::Setup,
             static_cast<std::uint32_t>(prewidth));
    const auto ng = static_cast<std::size_t>(part.n_global);
    std::vector<std::vector<Vector>> pd(nb);  // scaled directions p̂_j
    std::vector<std::vector<Vector>> cd(nb);  // Â p̂_j, globalized
    std::vector<Vector> bg(nb), ax0(nb);
    std::vector<char> has_x0(nb, 0);
    ex.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (recycle_width(opts, b, ng) == 0) continue;
      const RecycleIn& rin = (*opts.recycle.in)[b];
      // Warm start in the scaled variables: x̂ = D̂⁻¹u is globally
      // consistent because d̂ is consistent on shared dofs.
      if (rin.x0.size() == ng) {
        has_x0[b] = 1;
        for (std::size_t l = 0; l < nl; ++l)
          x[b][l] =
              rin.x0[static_cast<std::size_t>(sub.local_to_global[l])] / d[l];
        r.counters().flops += nl;
      }
      bg[b] = b_loc[b];  // globalized below, for ‖b̂‖ and r̂₀
      ex.push_back(&bg[b]);
      std::size_t k = 0;
      for (const Vector& dir : rin.directions)
        if (dir.size() == ng) ++k;
      std::size_t skip = k > kmax ? k - kmax : 0;  // keep the most recent
      for (const Vector& dir : rin.directions) {
        if (dir.size() != ng) continue;
        if (skip > 0) {
          --skip;
          continue;
        }
        Vector ps(nl);
        for (std::size_t l = 0; l < nl; ++l)
          ps[l] =
              dir[static_cast<std::size_t>(sub.local_to_global[l])] / d[l];
        r.counters().flops += nl;
        pd[b].push_back(std::move(ps));
      }
      cd[b].assign(pd[b].size(), Vector(nl));
      for (std::size_t j = 0; j < pd[b].size(); ++j) {
        r.spmv(a, pd[b][j], cd[b][j]);
        ex.push_back(&cd[b][j]);
      }
      if (!pd[b].empty() && has_x0[b]) {
        ax0[b].resize(nl);
        r.spmv(a, x[b], ax0[b]);
        ex.push_back(&ax0[b]);
      }
    }
    r.exchange_many(ex);  // the session's one fused exchange

    // Partial sums — ‖b̂‖² per warm RHS, then the normal-equation blocks
    // M = CᵀC and g = Cᵀr̂₀ per projecting RHS — fold into ONE allreduce.
    red.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (bg[b].empty()) continue;
      red.push_back(r.dot_lg_partial(b_loc[b], bg[b]));
      const std::size_t k = pd[b].size();
      if (k == 0) continue;
      Vector r0(nl);
      for (std::size_t l = 0; l < nl; ++l)
        r0[l] = bg[b][l] - (has_x0[b] ? ax0[b][l] : 0.0);
      for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j)
          red.push_back(r.dot_gg_partial(cd[b][i], cd[b][j]));
      for (std::size_t i = 0; i < k; ++i)
        red.push_back(r.dot_gg_partial(cd[b][i], r0));
      r.counters().flops += 2 * nl * (k * k + 2 * k);
    }
    comm.allreduce_sum(red);

    // Consume the allreduced scalars: every decision below (trivial RHS,
    // projection coefficients, singular skip) is identical on all ranks.
    std::size_t off = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      if (bg[b].empty()) continue;
      const real_t bnorm = sqrt_nonneg(red[off++]);
      const std::size_t k = pd[b].size();
      if (bnorm == 0.0) {
        // Trivial RHS: x = 0 is exact — same report as the cold path,
        // warm start discarded (the cold answer IS the answer).
        la::fill(x[b], 0.0);
        beta0[b] = 0.0;
        relres[b] = 0.0;
        done[b] = 1;
        if (s == leader) out.items[b].trivial_rhs = true;
        off += k * k + k;
        continue;
      }
      beta0[b] = bnorm;
      if (k > 0) {
        la::DenseMatrix nm(as_index(k), as_index(k));
        for (std::size_t i = 0; i < k; ++i)
          for (std::size_t j = 0; j < k; ++j)
            nm(as_index(i), as_index(j)) = red[off++];
        Vector g(k);
        for (std::size_t i = 0; i < k; ++i) g[i] = red[off++];
        // Mild Tikhonov floor so near-parallel recycled directions cannot
        // break the factorization; a singular system skips the projection
        // (the solve just starts less warm) — identically on every rank.
        real_t trace = 0.0;
        for (std::size_t i = 0; i < k; ++i)
          trace += nm(as_index(i), as_index(i));
        const real_t eps = 1e-12 * (trace / static_cast<real_t>(k));
        for (std::size_t i = 0; i < k; ++i) nm(as_index(i), as_index(i)) += eps;
        bool solved = true;
        try {
          la::lu_solve(nm, g);
        } catch (const Error&) {
          solved = false;
        }
        if (solved) {
          for (std::size_t j = 0; j < k; ++j) la::axpy(g[j], pd[b][j], x[b]);
          r.counters().flops += 2 * nl * k;
          r.counters().vector_updates += k;
        }
      }
      // The warm guess was assembled in global format; Basic iterates on
      // a local-format x (the cross-rank sum of the pieces).
      if (basic)
        for (std::size_t l = 0; l < nl; ++l)
          x[b][l] /= static_cast<real_t>(sub.multiplicity[l]);
    }
  }

  // Every branch below depends only on allreduced scalars, so all ranks
  // take identical decisions — the fused-message layouts (who is in the
  // cycle, who is live) never diverge across ranks.
  const int gs_passes = opts.reorthogonalize ? 2 : 1;
  for (;;) {
    // ---- Residuals r_b = b_b − A x_b for every unfinished RHS.
    cyc.clear();
    for (std::size_t b = 0; b < nb; ++b)
      if (!done[b]) cyc.push_back(b);
    if (cyc.empty()) break;
    residuals(cyc);

    next.clear();
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const std::size_t b = cyc[i];
      const real_t beta = sqrt_nonneg(red[i]);
      if (beta0[b] < 0.0) {
        beta0[b] = beta;
        if (beta == 0.0) {  // zero rhs: x = 0 is exact
          done[b] = 1;
          relres[b] = 0.0;
          if (s == leader) out.items[b].trivial_rhs = true;
          continue;
        }
      }
      relres[b] = beta / beta0[b];
      if (relres[b] <= opts.tol) {
        done[b] = 1;
        continue;
      }
      // v_0 = r / beta in the discipline's basis format.
      const Vector& r0 = basic ? r_loc[b] : r_glob[b];
      for (std::size_t l = 0; l < nl; ++l) v[b][0][l] = r0[l] / beta;
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
      lsq[b].emplace(m, beta);
      // Re-entering Arnoldi after a completed cycle: only now has a
      // restart actually happened (a first-cycle convergence reports 0).
      if (iters[b] > 0 && s == leader) ++out.items[b].restarts;
      frozen[b] = 0;
      brk[b] = 0;
      jcols[b] = 0;
      next.push_back(b);
    }
    cyc.swap(next);

    // ---- One Arnoldi cycle (Algorithm 5/6 inner loop).
    for (index_t j = 0; j < m; ++j) {
      live.clear();
      for (const std::size_t b : cyc)
        if (!frozen[b] && iters[b] < opts.max_iters) live.push_back(b);
      if (live.empty()) break;
      const auto jj = static_cast<std::size_t>(j);
      const std::size_t nlive = live.size();

      OBS_SPAN(tr, "arnoldi", obs::Cat::Solve,
               static_cast<std::uint32_t>(nlive));

      // z_b = B v_b: m exchanges (plus one for Enhanced deflation).
      precondition(jj);

      // w_b = Â z_b in both formats.  Basic globalizes z first (+1) and
      // then w (+1); Enhanced, whose z is global, only w (+1).
      ex.clear();
      ey.clear();
      for (const std::size_t b : live) {
        if (basic) {
          la::copy(z[b][jj], w_glob[b]);
          ex.push_back(&w_glob[b]);
          ey.push_back(&w_loc[b]);
        } else {
          r.spmv(a, z[b][jj], w_loc[b]);
        }
      }
      if (basic) detail::exchange_spmv(r, a, ex, ey);
      globalize_w();

      // Gram–Schmidt: h_kb = ⊕Σ <ŵ_loc, v̂_k,glob> (Eq. 33; Eq. 34 with
      // the formats swapped for Basic), one global reduction per
      // coefficient as in Algorithms 5/6 and Table 1 — each fused across
      // the live lanes — or, with batched_reductions, one per pass.
      // Basic subtracts from its local-format w, so a second (CGS2) pass
      // refreshes the global copy with one more exchange; Enhanced's
      // second pass uses the 1/mult-weighted dot on the updated global w.
      {
        OBS_SPAN(tr, "gram_schmidt", obs::Cat::Ortho);
        const std::size_t nk = jj + 1;
        for (int pass = 0; pass < gs_passes; ++pass) {
          if (basic && pass > 0) globalize_w();
          // Coefficient-major layout, so coefficient k of every lane is
          // one contiguous allreduce; lane-major loop, so w_b stays hot.
          red.resize(nk * nlive);
          for (std::size_t i = 0; i < nlive; ++i)
            for (std::size_t k = 0; k < nk; ++k) {
              const std::size_t b = live[i];
              red[k * nlive + i] =
                  basic      ? r.dot_lg_partial(v[b][k], w_glob[b])
                  : pass == 0 ? r.dot_lg_partial(w_loc[b], v[b][k])
                              : r.dot_gg_partial(w_glob[b], v[b][k]);
            }
          if (batched_reductions) {
            comm.allreduce_sum(red);
          } else {
            for (std::size_t k = 0; k < nk; ++k)
              comm.allreduce_sum(
                  std::span<real_t>(red).subspan(k * nlive, nlive));
          }
          for (std::size_t i = 0; i < nlive; ++i) {
            const std::size_t b = live[i];
            Vector& coeff = pass == 0 ? h[b] : h2[b];
            Vector& w = basic ? w_loc[b] : w_glob[b];
            for (std::size_t k = 0; k < nk; ++k) {
              coeff[k] = red[k * nlive + i];
              la::axpy(-coeff[k], v[b][k], w);
            }
            r.counters().flops += 2 * nl * nk;
            r.counters().vector_updates += nk;
            if (pass > 0)
              for (std::size_t k = 0; k < nk; ++k) h[b][k] += h2[b][k];
          }
        }
      }

      // ‖w_b‖ for the live lanes: one allreduce (Basic globalizes its
      // local-format w once more first, its (+1) for the norm).
      if (basic) globalize_w();
      red.resize(nlive);
      for (std::size_t i = 0; i < nlive; ++i) {
        const std::size_t b = live[i];
        red[i] = basic ? r.dot_lg_partial(w_loc[b], w_glob[b])
                       : r.dot_gg_partial(w_glob[b], w_glob[b]);
      }
      comm.allreduce_sum(red);

      for (std::size_t i = 0; i < nlive; ++i) {
        const std::size_t b = live[i];
        const real_t hnext = sqrt_nonneg(red[i]);
        h[b][jj + 1] = hnext;
        relres[b] =
            lsq[b]->push_column(std::span<const real_t>(h[b].data(), jj + 2)) /
            beta0[b];
        ++iters[b];
        jcols[b] = j + 1;
        if (s == leader) {
          // The report grows with the history (single writer, published
          // by the team join), so a comm failure mid-solve still leaves a
          // truthful partial report behind.
          BatchItemResult& item = out.items[b];
          item.history.push_back(relres[b]);
          item.iterations = iters[b];
          item.final_relres = relres[b];
          if (tr != nullptr)
            tr->counter("relres", obs::Cat::Solve, relres[b],
                        static_cast<std::uint32_t>(b));
          if (opts.observe.progress)
            opts.observe.progress(iters[b], relres[b], b);
        }
        if (hnext == 0.0 || hnext <= 1e-14 * beta0[b]) {
          frozen[b] = 1;
          brk[b] = 1;
          continue;
        }
        if (relres[b] <= opts.tol) {
          frozen[b] = 1;  // converged: no next basis vector needed
          continue;
        }
        const Vector& w = basic ? w_loc[b] : w_glob[b];
        for (std::size_t l = 0; l < nl; ++l) v[b][jj + 1][l] = w[l] / hnext;
        r.counters().flops += nl;
        r.counters().vector_updates += 1;
      }
    }

    // ---- Solution update x_b += Z_b y_b and cycle bookkeeping.
    for (const std::size_t b : cyc) {
      if (jcols[b] > 0) {
        const Vector y = lsq[b]->solve();
        for (index_t k = 0; k < jcols[b]; ++k)
          la::axpy(y[static_cast<std::size_t>(k)],
                   z[b][static_cast<std::size_t>(k)], x[b]);
        r.counters().flops += 2 * nl * static_cast<std::size_t>(jcols[b]);
        r.counters().vector_updates += static_cast<std::uint64_t>(jcols[b]);
        if (harvest) {
          // Deposit this cycle's physical update Δu = D̂·Z_b y_b into the
          // harvest ring.  The slot index derives from the deterministic
          // cycle count, so every rank writes its own piece of the SAME
          // slot and the ring keeps the most recent kmax cycles.
          const std::size_t slot = harvested[b] % kmax;
          Vector du(nl, 0.0);
          for (index_t k = 0; k < jcols[b]; ++k)
            la::axpy(y[static_cast<std::size_t>(k)],
                     z[b][static_cast<std::size_t>(k)], du);
          for (std::size_t l = 0; l < nl; ++l) du[l] *= d[l];
          out.dirs[b][slot][static_cast<std::size_t>(s)] = std::move(du);
          ++harvested[b];
        }
      }
      if (brk[b]) {
        // Terminal, but NOT convergence: the final true residual below
        // is the only arbiter of that.
        done[b] = 1;
        if (s == leader) out.items[b].breakdown = true;
      } else if (relres[b] <= opts.tol || iters[b] >= opts.max_iters) {
        done[b] = 1;
      }
    }
  }

  // ---- Final true residuals and solutions in physical variables
  // u = D x (Basic globalizes its local-format x with one exchange).
  residuals(all);
  if (basic) {
    ex.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      la::copy(x[b], w_glob[b]);
      ex.push_back(&w_glob[b]);
    }
    r.exchange_many(ex);
  }
  for (std::size_t b = 0; b < nb; ++b) {
    const Vector& xg = basic ? w_glob[b] : x[b];
    Vector u(nl);
    for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * xg[l];
    out.sol[b][static_cast<std::size_t>(s)] = std::move(u);
  }
  if (s == leader) {
    for (std::size_t b = 0; b < nb; ++b) {
      BatchItemResult& item = out.items[b];
      const real_t final_res = sqrt_nonneg(red[b]);
      item.final_relres = beta0[b] > 0.0 ? final_res / beta0[b] : 0.0;
      // Convergence is claimed on the final TRUE relative residual alone
      // (a trivial RHS reports 0, which always meets a positive tol).
      item.converged = item.final_relres <= opts.tol;
      if (harvest) out.dir_count[b] = harvested[b];
    }
  }
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
                                bool batched_reductions, obs::Trace* trace) {
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
  validate_poly_spec(op.poly);
  for (const Vector& f : rhs)
    PFEM_CHECK(f.size() == static_cast<std::size_t>(part.n_global));
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
          rank_solve(part, op, rhs, opts, basic, batched_reductions, comm,
                     out);
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
                         const RankSolveFn& rank_solve) {
  WallTimer timer;
  par::Team team(part.nparts());
  const EddOperatorState op =
      build_edd_operator(team, part, spec, local_matrices, nullptr,
                         opts.kernels);
  DistSolve result;
  std::vector<Vector> sol(part.subs.size());
  const std::vector<par::PerfCounters> counters =
      team.run([&](par::Comm& comm) {
        rank_solve(comm, op, sol[static_cast<std::size_t>(comm.rank())],
                   result);
      });
  result.wall_seconds = timer.seconds();
  result.x = partition::edd_gather_global(part, sol);
  result.setup_counters = op.setup_counters;
  result.rank_counters = op.setup_counters;
  for (std::size_t s = 0; s < counters.size(); ++s)
    result.rank_counters[s] += counters[s];
  return result;
}

}  // namespace detail

EddOperatorState build_edd_operator(
    par::Team& team, const partition::EddPartition& part, const PolySpec& spec,
    const std::vector<sparse::CsrMatrix>* local_matrices, obs::Trace* trace,
    const KernelOptions& kernels, const DeflationOptions& deflation) {
  validate_poly_spec(spec);
  // Fail a mismatched coarse-space configuration HERE, on the calling
  // thread, as a typed BadOperatorError — not as a per-rank surprise
  // halfway through the team's build.
  validate_deflation(deflation, part.n_global);
  PFEM_CHECK_MSG(team.size() == part.nparts(),
                 "build_edd_operator: team size " << team.size()
                 << " != partition parts " << part.nparts());
  if (local_matrices != nullptr)
    PFEM_CHECK(local_matrices->size() == part.subs.size());
  // A matrix override (e.g. dynamics' K + a0 M) leaves the partition's
  // element matrices stale — the matrix-free kernel would silently apply
  // the wrong operator, so reject the combination up front.
  PFEM_CHECK_MSG(!(kernels.format == KernelOptions::Format::Ebe &&
                   local_matrices != nullptr),
                 "Format::Ebe cannot be combined with a local-matrix "
                 "override: the partition's element store holds the "
                 "originally assembled operator, not the override");
  const auto p = static_cast<std::size_t>(part.nparts());

  WallTimer timer;
  EddOperatorState op;
  op.poly = spec;
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
        op.kern[s] = RankKernel(k, Vector(d), sub.interface_local_dofs,
                                kernels,
                                local_matrices ? nullptr
                                               : sub.elem_store.get());
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

  // The polynomial recursion data depends only on the spec (the paper
  // builds it redundantly per rank with zero communication); one shared
  // read-only build serves every rank of every later solve.
  if (spec.kind == PolyKind::Gls) {
    op.gls = std::make_shared<const GlsPolynomial>(spec.theta, spec.degree);
    const std::uint64_t build = gls_build_flops(*op.gls);
    for (auto& c : op.setup_counters) c.flops += build;
  } else if (spec.kind == PolyKind::Chebyshev) {
    op.cheb = std::make_shared<const ChebyshevPolynomial>(spec.theta.front(),
                                                          spec.degree);
  }
  op.setup_seconds = timer.seconds();
  for (auto& c : op.setup_counters) c.total_seconds = op.setup_seconds;
  return op;
}

BatchSolveResult solve_edd_batch(par::Team& team, const EddPartition& part,
                                 const EddOperatorState& op,
                                 std::span<const Vector> rhs,
                                 const SolveOptions& opts, obs::Trace* trace) {
  return detail::run_edd_fgmres(team, part, op, rhs, opts,
                                EddVariant::Enhanced,
                                /*batched_reductions=*/true, trace);
}

}  // namespace pfem::core
