#include "core/edd_solver.hpp"

#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/edd_batch.hpp"
#include "core/edd_kernels.hpp"

namespace pfem::core {

std::string PolySpec::name() const {
  switch (kind) {
    case PolyKind::None: return "none";
    case PolyKind::Neumann: return "Neumann(" + std::to_string(degree) + ")";
    case PolyKind::Gls: return "GLS(" + std::to_string(degree) + ")";
    case PolyKind::Chebyshev: return "Cheb(" + std::to_string(degree) + ")";
  }
  return "?";
}

void validate_poly_spec(const PolySpec& spec) {
  if (spec.kind == PolyKind::None) return;
  PFEM_CHECK_MSG(spec.degree >= 1,
                 "polynomial preconditioner " << spec.name()
                 << ": degree must be >= 1");
  if (spec.kind == PolyKind::Gls) validate_theta(spec.theta);
  if (spec.kind == PolyKind::Chebyshev) {
    PFEM_CHECK_MSG(!spec.theta.empty(),
                   "Chebyshev preconditioner needs a spectrum interval "
                   "(theta is empty)");
    PFEM_CHECK_MSG(spec.theta.size() == 1,
                   "Chebyshev preconditioner needs a single interval, got "
                   << spec.theta.size()
                   << " (the semi-iteration has no multi-interval form; "
                      "use GLS for indefinite spectra)");
    PFEM_CHECK_MSG(spec.theta.front().lo < spec.theta.front().hi,
                   "Chebyshev interval is empty or inverted");
    PFEM_CHECK_MSG(spec.theta.front().lo > 0.0,
                   "Chebyshev preconditioner needs a strictly positive "
                   "interval (lo > 0)");
  }
}

DistSolve solve_edd(const partition::EddPartition& part,
                    std::span<const real_t> f_global, const PolySpec& spec,
                    const SolveOptions& opts, EddVariant variant,
                    const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  PFEM_CHECK_MSG(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd: restart/max_iters must be >= 1 and tol > 0");
  const int p = part.nparts();

  // One-shot: a fresh team, one operator build, one width-1 run of the
  // EDD-FGMRES engine in the caller's variant and reduction discipline.
  // The trace (if any) spans both jobs, like the counters below.
  WallTimer timer;
  par::Team team(p);
  if (opts.observe.fault_injector != nullptr)
    team.set_fault_injector(opts.observe.fault_injector);
  if (opts.observe.comm_timeout_seconds > 0.0)
    team.set_comm_timeout(opts.observe.comm_timeout_seconds);
  std::shared_ptr<obs::Trace> trace;
  if (opts.observe.trace)
    trace = std::make_shared<obs::Trace>(p, opts.observe.ring_capacity);

  DistSolve result;
  result.trace = trace;
  EddOperatorState op;
  try {
    op = build_edd_operator(team, part, spec, local_matrices, trace.get(),
                            opts.kernels, opts.deflation);
  } catch (const par::CommError& e) {
    // The setup exchange (or the coarse allreduce) died on the wire:
    // every rank has joined, so this is a typed failed report with no
    // history, never an escaping exception.
    result.comm_error = e.what();
    result.wall_seconds = timer.seconds();
    return result;
  }
  const std::vector<Vector> rhs{Vector(f_global.begin(), f_global.end())};
  BatchSolveResult run =
      detail::run_edd_fgmres(team, part, op, rhs, opts, variant,
                             opts.batched_reductions, trace.get());
  static_cast<SolveReport&>(result) = std::move(run.items.front());
  result.wall_seconds = timer.seconds();
  result.setup_counters = op.setup_counters;
  if (run.comm_failed()) return result;  // partial report, no x
  result.x = std::move(run.x.front());
  if (!run.recycled.empty()) result.recycled = std::move(run.recycled.front());
  // rank_counters cover the whole call: the setup slice plus the solve.
  result.rank_counters = std::move(op.setup_counters);
  for (std::size_t s = 0; s < result.rank_counters.size(); ++s)
    result.rank_counters[s] += run.rank_counters[s];
  return result;
}

}  // namespace pfem::core
