// Row-based domain decomposition FGMRES (§4, Algorithm 8) — the
// comparison baseline representing PSPARSLIB/Aztec/pARMS-style solvers.
//
// Vectors live on owned rows only; the mat-vec is Eq. 48
// (scatter boundary values / gather externals / y = A_loc x + A_ext x_ext),
// inner products are local dots + allreduce (Eq. 47), and the norm-1
// diagonal scaling needs no communication for the row norms (the paper's
// remark in §4.1.2) but one exchange to obtain the scaling of external
// columns.  Preconditioning is either the same polynomial machinery
// (each application = m distributed mat-vecs, hence m exchanges), the
// block-Jacobi local-ILU(0) kernel of Eq. 49's discussion, or restricted
// additive Schwarz.  The Krylov loop is the one FGMRES engine
// (core/fgmres.hpp) over the RDD space; a zero row of the operator
// throws BadOperatorError.
#pragma once

#include <span>

#include "core/edd_solver.hpp"
#include "partition/rdd.hpp"

namespace pfem::core {

struct RddOptions {
  enum class Precond {
    Poly,            ///< polynomial (m distributed mat-vecs per apply)
    BlockJacobiIlu,  ///< local ILU(0) solve, no communication
    AdditiveSchwarz, ///< restricted additive Schwarz, overlap 1: ILU(0)
                     ///< on the owned∪external block, one exchange/apply
  };
  Precond precond = Precond::Poly;
  PolySpec poly;  ///< used when precond == Poly
};

/// Solve A u = f on an RDD (block-row) partition.
[[nodiscard]] DistSolve solve_rdd(const partition::RddPartition& part,
                                        std::span<const real_t> f_global,
                                        const RddOptions& rdd_opts = {},
                                        const SolveOptions& opts = {});

}  // namespace pfem::core
