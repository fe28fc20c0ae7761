// Fig. 12: ILU(0) vs polynomial preconditioners for the *dynamic*
// cantilever (Mesh1 and Mesh2): the Newmark effective system
// [K + a0·M] u = f̂ solved per step.  The mass shift improves the
// conditioning, so every preconditioner converges faster than in the
// static case, with the same GLS(7) > ILU(0) > Neumann(20) ordering.
#include <iostream>

#include "bench_common.hpp"
#include "core/diag_scaling.hpp"
#include "core/fgmres.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "timeint/dynamic_driver.hpp"

namespace {

using namespace pfem;

void run_mesh(int mesh_no) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh_no);
  const sparse::CsrMatrix m = prob.assemble_mass();
  exp::banner(std::cout, "Fig. 12 — dynamic, Mesh" + std::to_string(mesh_no) +
                             " (" + std::to_string(prob.dofs.num_free()) +
                             " equations, Newmark dt = 0.05)");

  timeint::DynamicRunOptions opts;
  opts.steps = 3;
  opts.solve.tol = 1e-6;
  opts.solve.max_iters = 60000;

  exp::Table table({"preconditioner", "iters step1", "iters step2",
                    "iters step3", "total"});
  auto run = [&](const std::string& name,
                 const timeint::PrecondFactory& factory) {
    const timeint::DynamicRunResult res = timeint::run_dynamic_sequential(
        prob.stiffness, m, prob.load, opts, factory);
    table.add_row({name,
                   exp::Table::integer(res.iterations_per_step[0]),
                   exp::Table::integer(res.iterations_per_step[1]),
                   exp::Table::integer(res.iterations_per_step[2]),
                   exp::Table::integer(res.total_iterations)});
    bench::print_history(name + " (step 1)", res.first_step_history);
  };

  run("none", [](const sparse::CsrMatrix&) {
    return std::make_unique<core::IdentityPrecond>();
  });
  run("ILU(0)", [](const sparse::CsrMatrix& a) {
    return std::make_unique<core::Ilu0Precond>(a);
  });
  run("GLS(7)", [](const sparse::CsrMatrix& a) {
    return std::make_unique<core::PolyPrecond>(
        core::LinearOp::from_csr(a),
        core::PolySpec{.kind = core::PolyKind::Gls, .degree = 7});
  });
  run("Neumann(20)", [](const sparse::CsrMatrix& a) {
    return std::make_unique<core::PolyPrecond>(
        core::LinearOp::from_csr(a),
        core::PolySpec{.kind = core::PolyKind::Neumann, .degree = 20});
  });
  table.print(std::cout);
}

}  // namespace

int main() {
  run_mesh(1);
  run_mesh(2);
  return 0;
}
