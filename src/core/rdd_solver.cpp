#include "core/rdd_solver.hpp"

#include <cmath>
#include <functional>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/polynomial.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/sell.hpp"

namespace pfem::core {

namespace {

using partition::RddPartition;
using partition::RddSubdomain;
using sparse::CsrMatrix;

constexpr int kRddTag = 1;

/// The two rank-local operator blocks (A_loc, A_ext) in the selected
/// storage format.  Built once at setup from the *scaled* matrices; SELL
/// conversion preserves per-row accumulation order, so the iteration is
/// bit-identical across formats.
struct RddOp {
  const CsrMatrix* loc_csr = nullptr;
  const CsrMatrix* ext_csr = nullptr;
  sparse::SellMatrix loc_sell;
  sparse::SellMatrix ext_sell;
  bool sell = false;
  bool overlap = false;
  std::uint64_t spmv_flops = 0;

  void apply_loc(std::span<const real_t> x, std::span<real_t> y) const {
    if (sell) {
      loc_sell.spmv(x, y);
    } else {
      loc_csr->spmv(x, y);
    }
  }
  void apply_ext_add(std::span<const real_t> x_ext,
                     std::span<real_t> y) const {
    if (sell) {
      ext_sell.spmv_add(x_ext, y);
    } else {
      ext_csr->spmv_add(x_ext, y);
    }
  }
};

/// Rank-local RDD kernels: distributed mat-vec (Eq. 48) and reductions.
class RddRank {
 public:
  RddRank(const RddSubdomain& sub, par::Comm& comm)
      : sub_(sub), comm_(comm), nl_(static_cast<std::size_t>(sub.n_local())),
        x_ext_(std::max<std::size_t>(
            static_cast<std::size_t>(sub.n_ext()), 1)) {
    // Prepost the exchange buffers: sizes are fixed by the comm schedule,
    // so the per-iteration resizes in exchange_into_ext never allocate.
    std::size_t max_send = 0, max_recv = 0;
    for (const auto& nb : sub_.neighbors) {
      max_send = std::max(max_send, nb.send_local_rows.size());
      max_recv = std::max(max_recv, nb.recv_ext_positions.size());
    }
    send_buf_.reserve(max_send);
    recv_buf_.reserve(max_recv);
  }

  [[nodiscard]] std::size_t nl() const noexcept { return nl_; }
  [[nodiscard]] par::Comm& comm() noexcept { return comm_; }
  [[nodiscard]] par::PerfCounters& counters() noexcept {
    return comm_.counters();
  }

  /// y <- A x: scatter owned boundary values, gather externals, then
  /// y = A_loc x + A_ext x_ext (Eq. 48).  A_loc reads only owned entries
  /// of x, which the exchange never touches — with `op.overlap` it runs
  /// while the neighbor messages are in flight.  Exchange count per
  /// matvec is one either way.
  void matvec(const RddOp& op, std::span<const real_t> x,
              std::span<real_t> y) {
    OBS_SPAN(comm_.tracer(), "matvec", obs::Cat::Matvec);
    if (op.overlap) {
      exchange_start(x);
      op.apply_loc(x, y);
      exchange_finish();
    } else {
      exchange_into_ext(x);
      op.apply_loc(x, y);
    }
    if (sub_.n_ext() > 0) op.apply_ext_add(x_ext_, y);
    counters().matvecs += 1;
    counters().flops += op.spmv_flops;
    // Redundant ghost-row work of the paper's duplicated-element layout
    // (Fig. 8); zero unless annotate_rdd_fe_duplication() ran.
    counters().flops += sub_.matvec_extra_flops;
  }

  /// One scatter/gather phase filling x_ext from neighbors.
  void exchange_into_ext(std::span<const real_t> x) {
    // The "exchange" span and neighbor_exchanges count the same logical
    // event — a trace is an exact cross-check of the counters.
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    counters().neighbor_exchanges += 1;
    post_sends(x);
    recv_into_ext();
  }

  /// Split exchange, first half: post the boundary sends.  The logical
  /// exchange is counted here; the matching finish emits the "exchange"
  /// span, so a split exchange still contributes exactly one span and
  /// one neighbor_exchanges tick.
  void exchange_start(std::span<const real_t> x) {
    counters().neighbor_exchanges += 1;
    post_sends(x);
  }

  /// Split exchange, second half: complete the receives into x_ext.
  void exchange_finish() {
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    recv_into_ext();
  }

  [[nodiscard]] std::span<const real_t> x_ext() const { return x_ext_; }

  /// Local partial of the global inner product (Eq. 47); the caller
  /// reduces it.
  [[nodiscard]] real_t dot_partial(std::span<const real_t> x,
                                   std::span<const real_t> y) {
    counters().inner_products += 1;
    counters().flops += 2 * nl_;
    return la::dot(x, y);
  }

 private:
  /// Pack and post the boundary sends (both exchange forms share this,
  /// so the wire order cannot drift between them).
  void post_sends(std::span<const real_t> x) {
    for (const auto& nb : sub_.neighbors) {
      if (nb.send_local_rows.empty()) continue;
      PFEM_DEBUG_CHECK(send_buf_.capacity() >= nb.send_local_rows.size());
      send_buf_.resize(nb.send_local_rows.size());
      for (std::size_t k = 0; k < nb.send_local_rows.size(); ++k)
        send_buf_[k] = x[static_cast<std::size_t>(nb.send_local_rows[k])];
      comm_.exchange_start(nb.rank, kRddTag, send_buf_);
    }
  }

  /// Complete the receives and scatter into x_ext.
  void recv_into_ext() {
    for (const auto& nb : sub_.neighbors) {
      if (nb.recv_ext_positions.empty()) continue;
      PFEM_DEBUG_CHECK(recv_buf_.capacity() >= nb.recv_ext_positions.size());
      recv_buf_.resize(nb.recv_ext_positions.size());
      comm_.exchange_finish(
          nb.rank, kRddTag,
          std::span<real_t>(recv_buf_.data(), recv_buf_.size()));
      for (std::size_t k = 0; k < nb.recv_ext_positions.size(); ++k)
        x_ext_[static_cast<std::size_t>(nb.recv_ext_positions[k])] =
            recv_buf_[k];
    }
  }

  const RddSubdomain& sub_;
  par::Comm& comm_;
  std::size_t nl_;
  Vector x_ext_, send_buf_, recv_buf_;
};

struct SharedOut {
  SolveReport report;  ///< written by the leader
  std::vector<Vector> solutions;
  std::vector<par::PerfCounters> setup_counters;
};

/// The RDD space on one rank (Algorithm 8): one lane on the owned rows,
/// the Eq.-48 mat-vec, Eq.-47 dots (local dot + allreduce), the rank's
/// preconditioner, and the physical solution u = D x.
class RddSpace final : public detail::KrylovSpace {
 public:
  using Precondition = std::function<void(const Vector& v, Vector& z)>;
  RddSpace(RddRank& r, const RddOp& op, const Vector& b,
           Precondition precond, const Vector& d, Vector& u)
      : r_(r), op_(op), b_(b), precond_(std::move(precond)), d_(d), u_(u) {}

  [[nodiscard]] std::size_t size() const override { return b_.size(); }
  [[nodiscard]] bool leader() const override {
    return r_.comm().rank() == r_.comm().local_leader();
  }
  [[nodiscard]] obs::Tracer* tracer() override { return r_.comm().tracer(); }
  void start(State, std::span<real_t>) override {}  // cold: x₀ = 0
  void residual(Lanes, State ln, std::span<real_t> red) override {
    Vector& res = ln[0].v[0];
    r_.matvec(op_, ln[0].x, res);
    for (std::size_t l = 0; l < res.size(); ++l) res[l] = b_[l] - res[l];
    red[0] = r_.dot_partial(res, res);
  }
  void step(Lanes, std::size_t j, State ln) override {
    precond_(ln[0].v[j], ln[0].z[j]);
    r_.matvec(op_, ln[0].z[j], ln[0].w);
  }
  void dots(Lanes, std::size_t nk, State ln,
            std::span<real_t> red) override {
    for (std::size_t k = 0; k < nk; ++k)
      red[k] = r_.dot_partial(ln[0].w, ln[0].v[k]);
  }
  void norms(Lanes, State ln, std::span<real_t> red) override {
    red[0] = r_.dot_partial(ln[0].w, ln[0].w);
  }
  void reduce(std::span<real_t> red) override { r_.comm().allreduce_sum(red); }
  // Algorithm 8's accounting charges the axpys, not the basis scalings.
  void charge(std::uint64_t axpys, std::uint64_t /*scalings*/) override {
    r_.counters().flops += 2 * b_.size() * axpys;
    r_.counters().vector_updates += axpys;
  }
  void finish(State ln) override {
    u_.resize(b_.size());
    for (std::size_t l = 0; l < u_.size(); ++l) u_[l] = d_[l] * ln[0].x[l];
  }

 private:
  RddRank& r_;
  const RddOp& op_;
  const Vector& b_;
  Precondition precond_;
  const Vector& d_;
  Vector& u_;
};

void rdd_rank_solve(const RddPartition& part,
                    std::span<const real_t> f_global,
                    const RddOptions& rdd_opts, const SolveOptions& opts,
                    par::Comm& comm, SharedOut& out) {
  const int s = comm.rank();
  const RddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  RddRank r(sub, comm);
  const std::size_t nl = r.nl();

  obs::Tracer* const tr = comm.tracer();
  OBS_SPAN(tr, "solve_rdd", obs::Cat::Solve);

  // ---- Setup: local copies, norm-1 scaling (row norms need no comm —
  // rows are complete; external-column scaling needs one exchange).
  // The setup region declares state the solve loop uses, so it cannot be
  // a braced scope; open/close the span manually instead.
  const bool traced = tr != nullptr && tr->enabled();
  std::uint16_t setup_depth = 0;
  std::uint64_t setup_t0 = 0;
  if (traced) {
    setup_depth = tr->open();
    setup_t0 = tr->now_ns();
  }
  CsrMatrix a_loc = sub.a_loc;
  CsrMatrix a_ext = sub.a_ext;

  Vector f_loc(nl);
  for (std::size_t l = 0; l < nl; ++l)
    f_loc[l] = f_global[static_cast<std::size_t>(sub.rows[l])];

  Vector dscale(nl, 0.0);
  for (index_t i = 0; i < sub.n_local(); ++i) {
    real_t rownorm = 0.0;
    for (real_t v : a_loc.row_vals(i)) rownorm += std::abs(v);
    for (real_t v : a_ext.row_vals(i)) rownorm += std::abs(v);
    // The rows are complete, so this is a degenerate row of the operator
    // itself — typed as norm1_scaling and build_edd_operator type it.
    if (!(rownorm > 0.0) || !std::isfinite(rownorm))
      throw BadOperatorError(
          "norm-1 scaling: zero/degenerate row at global dof " +
          std::to_string(sub.rows[static_cast<std::size_t>(i)]));
    dscale[static_cast<std::size_t>(i)] = 1.0 / std::sqrt(rownorm);
  }
  r.counters().flops +=
      static_cast<std::uint64_t>(a_loc.nnz() + a_ext.nnz());
  // Exchange the scaling of boundary rows so external columns scale too.
  r.exchange_into_ext(dscale);
  const Vector d_ext(r.x_ext().begin(), r.x_ext().end());

  a_loc.scale_symmetric(dscale);
  {
    auto vals = a_ext.values();
    const auto rp = a_ext.row_ptr();
    const auto ci = a_ext.col_idx();
    for (index_t i = 0; i < a_ext.rows(); ++i)
      for (index_t k = rp[i]; k < rp[i + 1]; ++k)
        vals[k] *= dscale[static_cast<std::size_t>(i)] *
                   d_ext[static_cast<std::size_t>(ci[k])];
  }
  r.counters().flops +=
      2ull * static_cast<std::uint64_t>(a_loc.nnz() + a_ext.nnz());
  Vector b(nl);
  for (std::size_t l = 0; l < nl; ++l) b[l] = dscale[l] * f_loc[l];

  // Kernel selection: convert the scaled blocks to SELL-C-σ when
  // requested (bit-identical per-row accumulation), and overlap A_loc
  // with the in-flight exchange when enabled.
  RddOp op;
  op.overlap = opts.kernels.overlap;
  op.spmv_flops = a_loc.spmv_flops() + a_ext.spmv_flops();
  if (opts.kernels.format == KernelOptions::Format::Sell) {
    op.sell = true;
    op.loc_sell = sparse::SellMatrix::from_csr(a_loc);
    if (sub.n_ext() > 0) op.ext_sell = sparse::SellMatrix::from_csr(a_ext);
  } else {
    op.loc_csr = &a_loc;
    op.ext_csr = &a_ext;
  }

  // Preconditioner: the polynomial (redundant construction), local
  // ILU(0) block-Jacobi or restricted additive Schwarz.
  std::optional<Polynomial> poly;
  std::optional<sparse::Ilu0> ilu;
  std::optional<sparse::Ilu0> schwarz_ilu;
  const std::size_t n_ovl = nl + static_cast<std::size_t>(sub.n_ext());
  if (rdd_opts.precond == RddOptions::Precond::BlockJacobiIlu) {
    ilu.emplace(a_loc);
  } else if (rdd_opts.precond == RddOptions::Precond::AdditiveSchwarz) {
    // Scale the overlap block consistently with the scaled system:
    // rows/cols 0..nl-1 carry dscale, the appended externals carry d_ext.
    sparse::CsrMatrix a_ovl = sub.a_overlap;
    Vector d_full(n_ovl);
    for (std::size_t l = 0; l < nl; ++l) d_full[l] = dscale[l];
    for (std::size_t k = 0; k < static_cast<std::size_t>(sub.n_ext()); ++k)
      d_full[nl + k] = d_ext[k];
    a_ovl.scale_symmetric(d_full);
    schwarz_ilu.emplace(a_ovl);
  } else {
    poly.emplace(rdd_opts.poly);
  }
  out.setup_counters[static_cast<std::size_t>(s)] = comm.counters();
  if (traced) tr->close("setup", obs::Cat::Setup, setup_t0, setup_depth);

  // z = P(A) v through the distributed mat-vec: one exchange per step.
  PolyScratch pwork(poly ? 1 : 0, nl);
  Vector ovl_rhs(n_ovl), ovl_sol(n_ovl);
  auto precondition = [&](const Vector& v, Vector& zz) {
    OBS_SPAN(tr, "precond", obs::Cat::Precond);
    if (rdd_opts.precond == RddOptions::Precond::BlockJacobiIlu) {
      ilu->solve(v, zz);
      r.counters().flops += ilu->solve_flops();
      return;
    }
    if (rdd_opts.precond == RddOptions::Precond::AdditiveSchwarz) {
      // Restricted additive Schwarz: gather the external residual
      // entries (one exchange), solve on the overlap block, keep the
      // owned part of the solution.
      r.exchange_into_ext(v);
      for (std::size_t l = 0; l < nl; ++l) ovl_rhs[l] = v[l];
      const auto ext = r.x_ext();
      for (std::size_t k = 0; k < static_cast<std::size_t>(sub.n_ext()); ++k)
        ovl_rhs[nl + k] = ext[k];
      schwarz_ilu->solve(ovl_rhs, ovl_sol);
      r.counters().flops += schwarz_ilu->solve_flops();
      for (std::size_t l = 0; l < nl; ++l) zz[l] = ovl_sol[l];
      return;
    }
    const Vector* const vin[1] = {&v};
    Vector* const zout[1] = {&zz};
    poly->apply(vin, zout, pwork,
                [&](std::span<const Vector* const> in,
                    std::span<Vector* const> out) {
                  r.matvec(op, *in[0], *out[0]);
                });
    r.counters().flops += poly->flops_per_lane(nl);
    r.counters().vector_updates += poly->updates_per_lane();
  };

  RddSpace space(r, op, b, precondition, dscale,
                 out.solutions[static_cast<std::size_t>(s)]);
  detail::run_fgmres(space, opts, std::span(&out.report, 1));
}

}  // namespace

DistSolve solve_rdd(const RddPartition& part,
                          std::span<const real_t> f_global,
                          const RddOptions& rdd_opts,
                          const SolveOptions& opts) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  require_finite_rhs(f_global, "solve_rdd");
  PFEM_CHECK_MSG(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_rdd: need restart >= 1, max_iters >= 1, tol > 0");
  if (rdd_opts.precond == RddOptions::Precond::Poly)
    validate_poly_spec(rdd_opts.poly);
  const int p = part.nparts();

  SharedOut out;
  out.solutions.resize(static_cast<std::size_t>(p));
  out.setup_counters.resize(static_cast<std::size_t>(p));

  std::shared_ptr<obs::Trace> trace;
  if (opts.observe.trace)
    trace = std::make_shared<obs::Trace>(p, opts.observe.ring_capacity);

  WallTimer timer;
  std::vector<par::PerfCounters> counters;
  std::string comm_error;
  try {
    counters = par::run_spmd(
        p,
        [&](par::Comm& comm) {
          rdd_rank_solve(part, f_global, rdd_opts, opts, comm, out);
        },
        trace.get(), opts.observe.fault_injector,
        opts.observe.comm_timeout_seconds);
  } catch (const par::CommError& e) {
    comm_error = e.what();
  }

  DistSolve result;
  static_cast<SolveReport&>(result) = std::move(out.report);
  result.wall_seconds = timer.seconds();
  result.trace = std::move(trace);
  if (!comm_error.empty()) {
    // A typed partial report: the history the leader wrote, no solution.
    result.converged = false;
    result.comm_error = std::move(comm_error);
    return result;
  }
  result.x = partition::rdd_gather(part, out.solutions);
  result.rank_counters = std::move(counters);
  result.setup_counters = std::move(out.setup_counters);
  return result;
}

}  // namespace pfem::core
