#include "core/fgmres.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "la/hessenberg_lsq.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace detail {

void run_fgmres(KrylovSpace& sp, const SolveOptions& opts,
                std::span<SolveReport> items) {
  const std::size_t nb = items.size();
  const std::size_t n = sp.size();
  const index_t m = opts.restart;
  const auto mm = static_cast<std::size_t>(m);
  const bool leader = sp.leader();
  obs::Tracer* const tr = sp.tracer();

  std::vector<KrylovLane> ln(nb);
  for (KrylovLane& l : ln) {
    l.x.assign(n, 0.0);
    l.v.assign(mm + 1, Vector(n));
    l.z.assign(mm, Vector(n));
    l.w.resize(n);
  }
  std::vector<Vector> h(nb, Vector(mm + 2)), h2(nb, Vector(mm + 2));
  std::vector<std::optional<la::HessenbergLsq>> lsq(nb);
  std::vector<char> done(nb, 0), frozen(nb, 0), brk(nb, 0);
  std::vector<index_t> iters(nb, 0);
  std::vector<real_t> beta0(nb, -1.0), relres(nb, 1.0);
  Vector red;
  std::vector<std::size_t> cyc, next, live;

  // A trivial RHS (b = 0): x = 0 is exact and relres is 0 by convention.
  sp.start(ln, beta0);
  for (std::size_t b = 0; b < nb; ++b) {
    if (beta0[b] != 0.0) continue;
    done[b] = 1;
    relres[b] = 0.0;
    if (leader) items[b].trivial_rhs = true;
  }

  // Every branch below depends only on reduced scalars, so all ranks take
  // identical decisions — the lane sets (who is in the cycle, who is
  // live) never diverge across ranks.
  const int gs_passes = opts.reorthogonalize ? 2 : 1;
  for (;;) {
    // ---- Residuals r = b − A x of every unfinished lane.
    cyc.clear();
    for (std::size_t b = 0; b < nb; ++b)
      if (!done[b]) cyc.push_back(b);
    if (cyc.empty()) break;
    red.resize(cyc.size());
    sp.residual(cyc, ln, red);
    sp.reduce(red);

    next.clear();
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const std::size_t b = cyc[i];
      const real_t beta = sqrt_nonneg(red[i]);
      if (beta0[b] < 0.0) {
        beta0[b] = beta;
        if (beta == 0.0) {
          // x₀ is exact; from x₀ = 0 that means b = 0, a trivial RHS.
          done[b] = 1;
          relres[b] = 0.0;
          if (leader && std::all_of(ln[b].x.begin(), ln[b].x.end(),
                                    [](real_t v) { return v == 0.0; }))
            items[b].trivial_rhs = true;
          continue;
        }
      }
      relres[b] = beta / beta0[b];
      if (relres[b] <= opts.tol) {
        done[b] = 1;
        continue;
      }
      for (real_t& e : ln[b].v[0]) e /= beta;  // v_0 = r / β
      sp.charge(0, 1);
      lsq[b].emplace(m, beta);
      // Re-entering Arnoldi after a completed cycle: only now has a
      // restart actually happened (a first-cycle convergence reports 0).
      if (iters[b] > 0 && leader) ++items[b].restarts;
      frozen[b] = 0;
      brk[b] = 0;
      next.push_back(b);
    }
    cyc.swap(next);

    // ---- One Arnoldi cycle.
    for (index_t j = 0; j < m; ++j) {
      live.clear();
      for (const std::size_t b : cyc)
        if (!frozen[b] && iters[b] < opts.max_iters) live.push_back(b);
      if (live.empty()) break;
      const auto jj = static_cast<std::size_t>(j);
      const std::size_t nlive = live.size();
      OBS_SPAN(tr, "arnoldi", obs::Cat::Solve,
               static_cast<std::uint32_t>(nlive));

      sp.step(live, jj, ln);

      // Classical Gram–Schmidt (a second pass with CGS2): one reduction
      // per coefficient, each covering every live lane, as in the paper's
      // Algorithms 5/6/8 and Table 1 — or one per pass when batched.
      {
        OBS_SPAN(tr, "gram_schmidt", obs::Cat::Ortho);
        const std::size_t nk = jj + 1;
        for (int pass = 0; pass < gs_passes; ++pass) {
          // Coefficient-major layout, so coefficient k of every lane is
          // one contiguous reduction.
          red.resize(nk * nlive);
          sp.dots(live, nk, ln, red);
          if (opts.batched_reductions) {
            sp.reduce(red);
          } else {
            for (std::size_t k = 0; k < nk; ++k)
              sp.reduce(std::span<real_t>(red).subspan(k * nlive, nlive));
          }
          for (std::size_t i = 0; i < nlive; ++i) {
            const std::size_t b = live[i];
            Vector& coeff = pass == 0 ? h[b] : h2[b];
            for (std::size_t k = 0; k < nk; ++k) {
              coeff[k] = red[k * nlive + i];
              la::axpy(-coeff[k], ln[b].v[k], ln[b].w);
            }
            sp.charge(nk, 0);
            if (pass > 0)
              for (std::size_t k = 0; k < nk; ++k) h[b][k] += h2[b][k];
          }
        }
      }

      red.resize(nlive);
      sp.norms(live, ln, red);
      sp.reduce(red);
      for (std::size_t i = 0; i < nlive; ++i) {
        const std::size_t b = live[i];
        const real_t hnext = sqrt_nonneg(red[i]);
        h[b][jj + 1] = hnext;
        relres[b] =
            lsq[b]->push_column(std::span<const real_t>(h[b].data(), jj + 2)) /
            beta0[b];
        ++iters[b];
        if (leader) {
          // The report grows with the history (single writer), so a comm
          // failure mid-solve still leaves a truthful partial report.
          SolveReport& item = items[b];
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
          frozen[b] = 1;  // lucky breakdown: no next basis vector
          brk[b] = 1;
          continue;
        }
        if (relres[b] <= opts.tol) {
          frozen[b] = 1;  // converged: no next basis vector needed
          continue;
        }
        const Vector& w = ln[b].w;
        Vector& vn = ln[b].v[jj + 1];
        for (std::size_t l = 0; l < n; ++l) vn[l] = w[l] / hnext;
        sp.charge(0, 1);
      }
    }

    // ---- x += Z y and cycle bookkeeping.
    for (const std::size_t b : cyc) {
      if (lsq[b]->size() > 0) {
        const Vector y = lsq[b]->solve();
        for (std::size_t k = 0; k < y.size(); ++k)
          la::axpy(y[k], ln[b].z[k], ln[b].x);
        sp.charge(y.size(), 0);
        sp.cycle_update(b, y, ln[b]);
      }
      if (brk[b]) {
        // Terminal, but NOT convergence: the final true residual below
        // is the only arbiter of that.
        done[b] = 1;
        if (leader) items[b].breakdown = true;
      } else if (relres[b] <= opts.tol || iters[b] >= opts.max_iters) {
        done[b] = 1;
      }
    }
  }

  // ---- Final true residuals — the only arbiter of convergence (a
  // trivial lane reports 0, which always meets a positive tol).
  cyc.resize(nb);
  for (std::size_t b = 0; b < nb; ++b) cyc[b] = b;
  red.resize(nb);
  sp.residual(cyc, ln, red);
  sp.reduce(red);
  sp.finish(ln);
  if (!leader) return;
  for (std::size_t b = 0; b < nb; ++b) {
    items[b].final_relres = relative_residual(sqrt_nonneg(red[b]), beta0[b]);
    items[b].converged = items[b].final_relres <= opts.tol;
  }
}

SolveReport solve_sequential(const LinearOp& a, std::span<const real_t> b,
                             std::span<real_t> x, Preconditioner& precond,
                             const SolveOptions& opts, ShortIterate iterate) {
  const std::size_t n = b.size();
  PFEM_CHECK(x.size() == n);
  PFEM_CHECK(a.size() == as_index(n));
  PFEM_CHECK(opts.max_iters >= 1 && opts.tol > 0.0);
  SolveReport result;
  // ‖b‖ = 0: x = 0 solves exactly and any relative residual is 0/0 —
  // return it in 0 iterations instead of iterating on NaNs.
  if (la::nrm2(b) == 0.0) {
    la::fill(x, 0.0);
    result.converged = true;
    result.trivial_rhs = true;
    return result;
  }
  Vector r(n);
  a.apply(x, r);
  la::sub(b, r, r);
  const real_t beta0 = la::nrm2(r);
  if (beta0 == 0.0) {  // x₀ is exact
    result.converged = true;
    return result;
  }
  const ShortOps ops{
      .matvec = [&](const Vector& in, Vector& out) { a.apply(in, out); },
      .precond = [&](const Vector& in, Vector& out) { precond.apply(in, out); },
      .dot = [](const Vector& u, const Vector& w) { return la::dot(u, w); },
      .norm = [](const Vector& u) { return la::nrm2(u); },
      .charge = [](std::uint64_t, std::uint64_t) {},
      .record = [&](index_t, real_t relres) {
        result.history.push_back(relres);
      }};
  result.breakdown = iterate(ops, x, r, beta0, opts, result.iterations);
  a.apply(x, r);
  la::sub(b, r, r);
  // The recursive residual only proposes convergence; the final TRUE
  // residual decides it.
  result.final_relres = la::nrm2(r) / beta0;
  result.converged = result.final_relres <= opts.tol;
  return result;
}

}  // namespace detail

namespace {

/// The sequential space: one lane, the caller's operator and
/// preconditioner, plain dots, no reduction, x₀ the caller's x.
class SequentialSpace final : public detail::KrylovSpace {
 public:
  SequentialSpace(const LinearOp& a, std::span<const real_t> b,
                  std::span<real_t> x, Preconditioner& c)
      : a_(a), b_(b), x_(x), c_(c) {}

  [[nodiscard]] std::size_t size() const override { return b_.size(); }
  void start(State ln, std::span<real_t> beta0) override {
    if (la::nrm2(b_) == 0.0)
      beta0[0] = 0.0;  // x = 0 solves exactly; skip the 0/0 relres
    else
      la::copy(x_, ln[0].x);
  }
  void residual(Lanes, State ln, std::span<real_t> red) override {
    Vector& r = ln[0].v[0];
    a_.apply(ln[0].x, r);
    la::sub(b_, r, r);
    red[0] = la::dot(r, r);
  }
  void step(Lanes, std::size_t j, State ln) override {
    c_.apply(ln[0].v[j], ln[0].z[j]);
    a_.apply(ln[0].z[j], ln[0].w);
  }
  void dots(Lanes, std::size_t nk, State ln,
            std::span<real_t> red) override {
    for (std::size_t k = 0; k < nk; ++k) red[k] = la::dot(ln[0].w, ln[0].v[k]);
  }
  void norms(Lanes, State ln, std::span<real_t> red) override {
    red[0] = la::dot(ln[0].w, ln[0].w);
  }
  void finish(State ln) override { la::copy(ln[0].x, x_); }

 private:
  const LinearOp& a_;
  std::span<const real_t> b_;
  std::span<real_t> x_;
  Preconditioner& c_;
};

}  // namespace

SolveReport fgmres(const LinearOp& a, std::span<const real_t> b,
                   std::span<real_t> x, Preconditioner& precond,
                   const SolveOptions& opts) {
  PFEM_CHECK(x.size() == b.size());
  PFEM_CHECK(a.size() == as_index(b.size()));
  PFEM_CHECK(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0);
  SolveReport result;
  SequentialSpace space(a, b, x, precond);
  detail::run_fgmres(space, opts, std::span(&result, 1));
  return result;
}

SolveReport fgmres(const sparse::CsrMatrix& a, std::span<const real_t> b,
                   std::span<real_t> x, Preconditioner& precond,
                   const SolveOptions& opts) {
  return fgmres(LinearOp::from_csr(a), b, x, precond, opts);
}

}  // namespace pfem::core
