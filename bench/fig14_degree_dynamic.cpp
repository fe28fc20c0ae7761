// Fig. 14: convergence vs GLS polynomial degree, dynamic analysis
// (Newmark effective system), Mesh1 and Mesh2.  Same ordering as the
// static case with uniformly fewer iterations.
#include <iostream>

#include "bench_common.hpp"
#include "core/diag_scaling.hpp"
#include "core/fgmres.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "timeint/newmark.hpp"

namespace {

using namespace pfem;

void run_mesh(int mesh_no) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh_no);
  const sparse::CsrMatrix m = prob.assemble_mass();
  timeint::NewmarkOptions nopts;
  const timeint::Newmark nm(prob.stiffness, m, nopts);
  exp::banner(std::cout, "Fig. 14 — dynamic degree sweep, Mesh" +
                             std::to_string(mesh_no) + " (dt = " +
                             exp::Table::num(nopts.dt, 3) + ")");

  const core::ScaledSystem s = core::scale_system(nm.k_eff(), prob.load);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;

  exp::Table table({"preconditioner", "iterations", "final relres"});
  for (int deg : {1, 3, 7, 10, 20}) {
    core::PolyPrecond p(
        core::LinearOp::from_csr(s.a),
        core::PolySpec{.kind = core::PolyKind::Gls, .degree = deg});
    Vector x(s.b.size(), 0.0);
    const core::SolveReport res = core::fgmres(s.a, s.b, x, p, opts);
    table.add_row({p.name(), exp::Table::integer(res.iterations),
                   exp::Table::sci(res.final_relres, 2)});
    bench::print_history(p.name(), res.history);
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  run_mesh(1);
  run_mesh(2);
  return 0;
}
