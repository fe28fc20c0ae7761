// Fig. 11: ILU(0) vs polynomial preconditioners for the *static*
// cantilever (Mesh1 and Mesh2), single processor.  Paper's finding:
//   GLS(7)  >  ILU(0)  >  Neumann(20)     ("converges faster than")
// with all three far ahead of the unpreconditioned solver.
#include <iostream>

#include "bench_common.hpp"
#include "core/diag_scaling.hpp"
#include "core/fgmres.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"

namespace {

using namespace pfem;

void run_mesh(int mesh_no) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh_no);
  exp::banner(std::cout, "Fig. 11 — static, Mesh" + std::to_string(mesh_no) +
                             " (" + std::to_string(prob.dofs.num_free()) +
                             " equations)");
  const core::ScaledSystem s = core::scale_system(prob.stiffness, prob.load);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;

  exp::Table table({"preconditioner", "iterations", "mat-vecs/apply",
                    "final relres"});
  auto run = [&](core::Preconditioner& p) {
    Vector x(s.b.size(), 0.0);
    const core::SolveReport res = core::fgmres(s.a, s.b, x, p, opts);
    table.add_row({p.name(), exp::Table::integer(res.iterations),
                   exp::Table::integer(p.matvecs_per_apply()),
                   exp::Table::sci(res.final_relres, 2)});
    bench::print_history(p.name(), res.history);
  };

  core::IdentityPrecond none;
  run(none);
  core::Ilu0Precond ilu(s.a);
  run(ilu);
  core::IlukPrecond ilu1(s.a, 1);
  run(ilu1);
  core::PolyPrecond gls(
      core::LinearOp::from_csr(s.a),
      core::PolySpec{.kind = core::PolyKind::Gls, .degree = 7});
  run(gls);
  core::PolyPrecond neumann(
      core::LinearOp::from_csr(s.a),
      core::PolySpec{.kind = core::PolyKind::Neumann, .degree = 20});
  run(neumann);
  table.print(std::cout);
}

}  // namespace

int main() {
  run_mesh(1);
  run_mesh(2);
  std::cout << "\npaper's ordering (iterations): GLS(7) < ILU(0) < "
               "Neumann(20), all << unpreconditioned\n";
  return 0;
}
