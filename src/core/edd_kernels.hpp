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
/// result as a zero vector (happy breakdown), never divide by it.
inline real_t sqrt_nonneg(real_t v) { return v > 0.0 ? std::sqrt(v) : 0.0; }

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
    buf_.reserve(sub_.interface_local_dofs.size());
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
  void exchange(std::span<real_t> v) {
    PFEM_DEBUG_CHECK(v.size() == nl_);
    // The "exchange" span and neighbor_exchanges count the same logical
    // event, so a trace is an exact cross-check of the counters (and of
    // the paper's Table 1 per-iteration exchange counts).
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    counters().neighbor_exchanges += 1;
    post_sends(v);
    stash_and_zero(v);
    fold(v);
  }

  /// First half of exchange(): post the sends and stash-and-zero the
  /// interface entries of v, then return with the messages in flight.
  /// The caller may do any work that neither reads nor writes v's
  /// interface entries — in particular the interior-row block of the
  /// split operator — before calling exchange_finish(v).  The
  /// neighbor_exchanges counter is charged here (the exchange logically
  /// begins now); the matching "exchange" span is emitted by the finish
  /// half, so a trace still carries exactly one per logical exchange.
  void exchange_start(std::span<real_t> v) {
    PFEM_DEBUG_CHECK(v.size() == nl_);
    counters().neighbor_exchanges += 1;
    post_sends(v);
    stash_and_zero(v);
  }

  /// Second half: drain the receives and fold all contributions in the
  /// same ascending-rank order as the monolithic exchange — the result
  /// is bit-identical regardless of how much compute ran in between.
  void exchange_finish(std::span<real_t> v) {
    PFEM_DEBUG_CHECK(v.size() == nl_);
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    fold(v);
  }

  /// Fused form of exchange(): one ⊕Σ round for `vs.size()` vectors at
  /// once — each neighbor gets ONE message carrying every vector's
  /// shared-dof section, so the per-message latency (the cost model's
  /// alpha term) is amortized across the batch.  Counted as one logical
  /// neighbor exchange.  The per-dof fold order is identical to
  /// exchange()'s (ascending sharer rank), so each vector's result is
  /// bit-identical to what a standalone exchange would produce.
  void exchange_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    if (nb == 0) return;
    if (nb == 1) {
      exchange(*vs[0]);
      return;
    }
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(nb));
    counters().neighbor_exchanges += 1;
    post_sends_many(vs);
    stash_and_zero_many(vs);
    fold_many(vs);
  }

  /// Split halves of exchange_many(), same contract as exchange_start/
  /// exchange_finish but for a fused batch.
  void exchange_many_start(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    if (nb == 0) return;
    if (nb == 1) {
      exchange_start(*vs[0]);
      return;
    }
    counters().neighbor_exchanges += 1;
    post_sends_many(vs);
    stash_and_zero_many(vs);
  }

  void exchange_many_finish(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    if (nb == 0) return;
    if (nb == 1) {
      exchange_finish(*vs[0]);
      return;
    }
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(nb));
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

  void post_sends(std::span<const real_t> v) {
    for (const auto& nb : sub_.neighbors) {
      const std::size_t ns = nb.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(ns <= send_buf_.capacity());
      send_buf_.resize(ns);
      for (std::size_t k = 0; k < ns; ++k)
        send_buf_[k] = v[static_cast<std::size_t>(nb.shared_local_dofs[k])];
      comm_.exchange_start(nb.rank, kExchangeTag, send_buf_);
    }
  }

  /// Stash own interface contributions into buf_ and zero them in v, so
  /// the folds (own and neighbors') can land in pure ascending order.
  void stash_and_zero(std::span<real_t> v) {
    buf_.resize(sub_.interface_local_dofs.size());
    for (std::size_t k = 0; k < sub_.interface_local_dofs.size(); ++k) {
      const auto l = static_cast<std::size_t>(sub_.interface_local_dofs[k]);
      buf_[k] = v[l];
      v[l] = 0.0;
    }
  }

  /// Fold all sharers' contributions in ascending rank order (own
  /// contribution inserted at this rank's position).
  void fold(std::span<real_t> v) {
    bool own_added = sub_.neighbors.empty();
    auto add_own = [&] {
      // The own-contribution fold is the same work as a neighbor fold —
      // account its flops symmetrically.
      for (std::size_t k = 0; k < sub_.interface_local_dofs.size(); ++k)
        v[static_cast<std::size_t>(sub_.interface_local_dofs[k])] += buf_[k];
      counters().flops += sub_.interface_local_dofs.size();
      own_added = true;
    };
    if (own_added) add_own();
    for (const auto& nb : sub_.neighbors) {  // sorted by rank
      if (!own_added && nb.rank > comm_.rank()) add_own();
      const std::size_t ns = nb.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(ns <= recv_buf_.capacity());
      recv_buf_.resize(ns);
      comm_.exchange_finish(nb.rank, kExchangeTag,
                            std::span<real_t>(recv_buf_.data(), ns));
      for (std::size_t k = 0; k < ns; ++k)
        v[static_cast<std::size_t>(nb.shared_local_dofs[k])] += recv_buf_[k];
      counters().flops += ns;
    }
    if (!own_added) add_own();
  }

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
  Vector buf_, send_buf_, recv_buf_;
  Vector fused_buf_;  ///< interface stash of exchange_many (nb x ni)
};

/// Read-only view of a set of lane pointers.
inline std::span<const Vector* const> as_inputs(std::span<Vector* const> vs) {
  return {const_cast<const Vector* const*>(vs.data()), vs.size()};
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
/// lanes advancing in lockstep — Algorithm 7 generalized to Neumann,
/// GLS and Chebyshev.  Each of the m recursion steps does one mat-vec
/// per lane and ONE fused exchange, so a step costs the same number of
/// messages at any width.  The recursion data (GLS basis, Chebyshev
/// interval) is the operator's prebuilt, shared read-only copy.
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
      : spec_(op.poly),
        gls_(op.gls.get()),
        cheb_(op.cheb.get()),
        local_(local) {
    PFEM_CHECK_MSG(spec_.kind != PolyKind::Gls || gls_ != nullptr,
                   "GLS preconditioner without prebuilt recursion data");
    PFEM_CHECK_MSG(spec_.kind != PolyKind::Chebyshev || cheb_ != nullptr,
                   "Chebyshev preconditioner without a prebuilt interval");
    wa_.assign(width, Vector(nl));
    wb_.assign(width, Vector(nl));
    wc_.assign(width, Vector(nl));
    if (local_) wd_.assign(width, Vector(nl));
    in_.reserve(width);
    out_.reserve(width);
  }

  /// vin[i] -> zout[i]; scratch lane i serves input i.
  void apply(EddRank& r, const RankKernel& a,
             std::span<const Vector* const> vin,
             std::span<Vector* const> zout) {
    const std::size_t nb = vin.size();
    const std::size_t n = r.nl();
    switch (spec_.kind) {
      case PolyKind::None:
        for (std::size_t i = 0; i < nb; ++i) la::copy(*vin[i], *zout[i]);
        return;
      case PolyKind::Neumann: {
        // w_k = v + (I - omega*A) w_{k-1}.
        for (std::size_t i = 0; i < nb; ++i) la::copy(*vin[i], wa_[i]);
        for (int k = 0; k < spec_.degree; ++k) {
          matvec(r, a, wa_, wb_, nb);
          for (std::size_t i = 0; i < nb; ++i) {
            const Vector& v = *vin[i];
            Vector& w = wa_[i];
            const Vector& aw = wb_[i];
            for (std::size_t l = 0; l < n; ++l)
              w[l] = v[l] + w[l] - spec_.omega * aw[l];
            r.counters().flops += 3 * n;
            r.counters().vector_updates += 1;
          }
        }
        for (std::size_t i = 0; i < nb; ++i) {
          Vector& z = *zout[i];
          for (std::size_t l = 0; l < n; ++l) z[l] = spec_.omega * wa_[i][l];
          r.counters().flops += n;
        }
        return;
      }
      case PolyKind::Gls: {
        const OrthoBasis& basis = gls_->basis();
        const auto mu = gls_->mu();
        const real_t inv0 = 1.0 / basis.sqrt_beta(0);
        for (std::size_t i = 0; i < nb; ++i) {
          la::fill(wa_[i], 0.0);  // u_prev
          Vector& u = wb_[i];
          Vector& z = *zout[i];
          const Vector& v = *vin[i];
          for (std::size_t l = 0; l < n; ++l) {
            u[l] = inv0 * v[l];
            z[l] = mu[0] * u[l];
          }
          r.counters().flops += 2 * n;
        }
        for (int s = 0; s < spec_.degree; ++s) {
          matvec(r, a, wb_, wc_, nb);
          const real_t as = basis.alpha(s);
          const real_t sb_s = basis.sqrt_beta(s);
          const real_t sb_n = basis.sqrt_beta(s + 1);
          const real_t mu_next = mu[static_cast<std::size_t>(s) + 1];
          for (std::size_t i = 0; i < nb; ++i) {
            Vector& u_prev = wa_[i];
            Vector& u = wb_[i];
            const Vector& au = wc_[i];
            Vector& z = *zout[i];
            for (std::size_t l = 0; l < n; ++l) {
              const real_t t =
                  (au[l] - as * u[l] - (s > 0 ? sb_s * u_prev[l] : 0.0)) /
                  sb_n;
              u_prev[l] = u[l];
              u[l] = t;
              z[l] += mu_next * t;
            }
            r.counters().flops += 7 * n;
            r.counters().vector_updates += 1;
          }
        }
        return;
      }
      case PolyKind::Chebyshev: {
        const real_t theta =
            0.5 * (cheb_->interval().lo + cheb_->interval().hi);
        const real_t delta =
            0.5 * (cheb_->interval().hi - cheb_->interval().lo);
        const real_t sigma1 = theta / delta;
        real_t rho = 1.0 / sigma1;
        for (std::size_t i = 0; i < nb; ++i) {
          Vector& res = wa_[i];
          Vector& d = wb_[i];
          Vector& z = *zout[i];
          la::copy(*vin[i], res);
          for (std::size_t l = 0; l < n; ++l) {
            d[l] = res[l] / theta;
            z[l] = d[l];
          }
          r.counters().flops += 2 * n;
        }
        for (int k = 1; k <= spec_.degree; ++k) {
          matvec(r, a, wb_, wc_, nb);
          const real_t rho_next = 1.0 / (2.0 * sigma1 - rho);
          const real_t c1 = rho_next * rho;
          const real_t c2 = 2.0 * rho_next / delta;
          for (std::size_t i = 0; i < nb; ++i) {
            Vector& res = wa_[i];
            Vector& d = wb_[i];
            const Vector& ad = wc_[i];
            Vector& z = *zout[i];
            for (std::size_t l = 0; l < n; ++l) {
              res[l] -= ad[l];
              d[l] = c1 * d[l] + c2 * res[l];
              z[l] += d[l];
            }
            r.counters().flops += 6 * n;
            r.counters().vector_updates += 1;
          }
          rho = rho_next;
        }
        return;
      }
    }
  }

  /// Single-lane form, for the short-recurrence solvers.
  void apply(EddRank& r, const RankKernel& a, const Vector& v, Vector& z) {
    const Vector* const vin[1] = {&v};
    Vector* const zout[1] = {&z};
    apply(r, a, vin, zout);
  }

 private:
  /// out_i = Â in_i for the first nb lanes, in the form's discipline.
  void matvec(EddRank& r, const RankKernel& a, std::vector<Vector>& in,
              std::vector<Vector>& out, std::size_t nb) {
    in_.clear();
    out_.clear();
    for (std::size_t i = 0; i < nb; ++i) {
      if (local_) la::copy(in[i], wd_[i]);  // the copy the exchange globalizes
      in_.push_back(local_ ? &wd_[i] : &in[i]);
      out_.push_back(&out[i]);
    }
    if (local_)
      exchange_spmv(r, a, in_, out_);
    else
      spmv_exchange(r, a, as_inputs(in_), out_);
  }

  PolySpec spec_;
  const GlsPolynomial* gls_;
  const ChebyshevPolynomial* cheb_;
  bool local_;
  std::vector<Vector> wa_, wb_, wc_;  // per-lane recursion scratch
  std::vector<Vector> wd_;            // local form: globalized copies
  std::vector<Vector*> in_, out_;     // fused-exchange views
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

/// Rank body of a short-recurrence EDD solver (CG, BiCGSTAB): writes
/// this rank's physical solution piece `u` (global format) and, on rank
/// 0, the report.
using RankSolveFn = std::function<void(par::Comm& comm,
                                       const EddOperatorState& op, Vector& u,
                                       SolveReport& report)>;

/// One-shot distributed solve on a fresh team: build_edd_operator (the
/// norm-1 scaling, kernels and polynomial every EDD solver shares), then
/// `rank_solve` on every rank.  rank_counters cover build + solve;
/// setup_counters are the build's slice.
[[nodiscard]] DistSolve solve_one_shot(
    const EddPartition& part, const PolySpec& spec, const SolveOptions& opts,
    const std::vector<sparse::CsrMatrix>* local_matrices,
    const RankSolveFn& rank_solve);

}  // namespace pfem::core::detail
