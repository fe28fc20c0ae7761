// Parallel element-based domain decomposition FGMRES — the paper's core
// contribution (§3, Algorithms 5 and 6, with the distributed norm-1
// scaling of Algorithms 3/4 and the distributed polynomial application
// of Algorithm 7).
//
// Per-iteration nearest-neighbor exchange counts (paper Table 1), with m
// the polynomial degree:
//   Basic    (Algorithm 5): m + 3   (basis kept in local distributed form)
//   Enhanced (Algorithm 6): m + 1   (preconditioned vectors kept global)
// Both are the EDD space (core/edd_batch.cpp) of the one FGMRES engine
// (core/fgmres.hpp): solve_edd runs it at width 1 on a one-shot team
// after one build_edd_operator, so the warm multi-RHS path
// (core/edd_batch.hpp) executes the same loop.  The measured counts are
// reproduced by bench/table1_complexity.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/fgmres.hpp"
#include "core/polynomial.hpp"
#include "par/comm.hpp"
#include "par/counters.hpp"
#include "partition/edd.hpp"

namespace pfem::core {

enum class EddVariant {
  Basic,     ///< Algorithm 5: 3 exchanges outside the preconditioner
  Enhanced,  ///< Algorithm 6: 1 exchange outside the preconditioner
};

// The distributed result shape lives in core/solve_report.hpp as
// `DistSolve`: the unified SolveReport plus the solution, per-rank
// counters and optional span trace.

/// Solve K u = f on an EDD partition (K = the partition's k_loc
/// sub-assemblies).  Applies distributed norm-1 scaling, builds the
/// polynomial preconditioner per PolySpec, runs restarted FGMRES with one
/// global reduction per Gram–Schmidt coefficient (one per pass with
/// opts.batched_reductions).  rank_counters cover setup + solve;
/// setup_counters are the setup slice.  A zero row of the assembled
/// operator throws BadOperatorError; a communication failure (setup
/// included) returns a typed partial report (comm_failed()).
///
/// @param local_matrices optional override of part.subs[s].k_loc (same
///        dof layout), e.g. the dynamic effective stiffness K + a0*M.
[[nodiscard]] DistSolve solve_edd(
    const partition::EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& poly, const SolveOptions& opts = {},
    EddVariant variant = EddVariant::Enhanced,
    const std::vector<sparse::CsrMatrix>* local_matrices = nullptr);

}  // namespace pfem::core
