// Ablation: matrix reordering (RCM).  The paper's claim (ii) is that the
// EDD formulation avoids "reordering of a matrix to gain parallel
// performance"; this bench measures what reordering is worth for the
// methods that do depend on matrix structure: bandwidth and ILU(0)
// quality under natural / shuffled / RCM orderings — and shows the
// polynomial preconditioner is ordering-invariant.
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "core/diag_scaling.hpp"
#include "core/fgmres.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "sparse/rcm.hpp"

namespace {

using namespace pfem;

struct Row {
  std::string name;
  index_t bandwidth;
  index_t ilu_iters;
  index_t gls_iters;
};

Row run(const std::string& name, const sparse::CsrMatrix& k,
        const Vector& f) {
  const core::ScaledSystem s = core::scale_system(k, f);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;
  Row row;
  row.name = name;
  row.bandwidth = sparse::bandwidth(k);
  {
    Vector x(s.b.size(), 0.0);
    core::Ilu0Precond p(s.a);
    row.ilu_iters = core::fgmres(s.a, s.b, x, p, opts).iterations;
  }
  {
    Vector x(s.b.size(), 0.0);
    core::PolyPrecond p(
        core::LinearOp::from_csr(s.a),
        core::PolySpec{.kind = core::PolyKind::Gls, .degree = 7});
    row.gls_iters = core::fgmres(s.a, s.b, x, p, opts).iterations;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_run(argc, argv);
  fem::CantileverSpec spec;
  spec.nx = full ? 60 : 30;
  spec.ny = full ? 30 : 15;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const index_t n = prob.stiffness.rows();

  exp::banner(std::cout, "Ablation — RCM reordering (" +
                             std::to_string(n) + " equations)");

  // Natural FE ordering, a scrambling permutation, and RCM of the
  // scramble (recovering structure from nothing).
  IndexVector scramble(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    scramble[static_cast<std::size_t>(i)] =
        static_cast<index_t>((static_cast<long long>(i) * 10007) % n);
  const sparse::CsrMatrix shuffled =
      sparse::permute_symmetric(prob.stiffness, scramble);
  Vector f_shuffled(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k)
    f_shuffled[static_cast<std::size_t>(k)] = prob.load[
        static_cast<std::size_t>(scramble[static_cast<std::size_t>(k)])];

  const IndexVector rcm = sparse::rcm_ordering(shuffled);
  const sparse::CsrMatrix restored =
      sparse::permute_symmetric(shuffled, rcm);
  Vector f_restored(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k)
    f_restored[static_cast<std::size_t>(k)] = f_shuffled[
        static_cast<std::size_t>(rcm[static_cast<std::size_t>(k)])];

  exp::Table table({"ordering", "bandwidth", "ILU(0) iters", "GLS(7) iters"});
  for (const Row& row : {run("natural (FE)", prob.stiffness, prob.load),
                         run("scrambled", shuffled, f_shuffled),
                         run("RCM of scrambled", restored, f_restored)}) {
    table.add_row({row.name, exp::Table::integer(row.bandwidth),
                   exp::Table::integer(row.ilu_iters),
                   exp::Table::integer(row.gls_iters)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: bandwidth collapses under RCM; ILU(0) quality "
               "tracks the ordering, while the polynomial\npreconditioner "
               "is ordering-invariant (the paper's point: EDD + polynomial "
               "needs no reordering at all).\n";
  return 0;
}
