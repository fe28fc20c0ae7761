// Cross-module integration tests reproducing the paper's qualitative
// findings end-to-end on Table-2-scale problems.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "core/diag_scaling.hpp"
#include "core/edd_solver.hpp"
#include "core/fgmres.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "fem/structured.hpp"
#include "la/vector_ops.hpp"
#include "par/cost_model.hpp"
#include "sparse/io.hpp"

namespace pfem {
namespace {

TEST(Integration, Mesh1StaticAllPreconditionersAgree) {
  // The paper's Mesh1 (7x1, 28 equations) solved with every
  // preconditioner must yield the same displacement field.
  const fem::CantileverProblem prob = fem::make_table2_cantilever(1);
  const core::ScaledSystem s = core::scale_system(prob.stiffness, prob.load);
  core::SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 5000;

  std::vector<Vector> solutions;
  {
    Vector x(s.b.size(), 0.0);
    core::Ilu0Precond p(s.a);
    ASSERT_TRUE(core::fgmres(s.a, s.b, x, p, opts).converged);
    solutions.push_back(s.unscale(x));
  }
  {
    Vector x(s.b.size(), 0.0);
    core::PolyPrecond p(
        core::LinearOp::from_csr(s.a),
        core::PolySpec{.kind = core::PolyKind::Gls, .degree = 7});
    ASSERT_TRUE(core::fgmres(s.a, s.b, x, p, opts).converged);
    solutions.push_back(s.unscale(x));
  }
  {
    Vector x(s.b.size(), 0.0);
    core::PolyPrecond p(
        core::LinearOp::from_csr(s.a),
        core::PolySpec{.kind = core::PolyKind::Neumann, .degree = 20});
    ASSERT_TRUE(core::fgmres(s.a, s.b, x, p, opts).converged);
    solutions.push_back(s.unscale(x));
  }
  const real_t scale = la::nrm_inf(solutions[0]);
  for (std::size_t k = 1; k < solutions.size(); ++k)
    for (std::size_t i = 0; i < solutions[0].size(); ++i)
      EXPECT_NEAR(solutions[k][i], solutions[0][i], 1e-6 * scale);
}

TEST(Integration, Gls7CompetitiveWithIlu0OnMesh1) {
  // §6.2 "Polynomial Preconditioner vs. ILU(0)": GLS(7) converges in a
  // comparable (or smaller) number of iterations than ILU(0) on Mesh1.
  const fem::CantileverProblem prob = fem::make_table2_cantilever(1);
  const core::ScaledSystem s = core::scale_system(prob.stiffness, prob.load);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 5000;

  Vector x1(s.b.size(), 0.0);
  core::Ilu0Precond ilu(s.a);
  const auto r_ilu = core::fgmres(s.a, s.b, x1, ilu, opts);
  Vector x2(s.b.size(), 0.0);
  core::PolyPrecond gls(
      core::LinearOp::from_csr(s.a),
      core::PolySpec{.kind = core::PolyKind::Gls, .degree = 7});
  const auto r_gls = core::fgmres(s.a, s.b, x2, gls, opts);
  ASSERT_TRUE(r_ilu.converged && r_gls.converged);
  // "completely comparable": allow a 2x band rather than strict order.
  EXPECT_LE(r_gls.iterations, 2 * r_ilu.iterations);
}

TEST(Integration, DegreeOrderingOnMesh1) {
  // Fig. 13: GLS(20) ≻ GLS(10) ≻ GLS(3) ≻ GLS(1) in iteration count.
  const fem::CantileverProblem prob = fem::make_table2_cantilever(1);
  const partition::EddPartition part = exp::make_edd(prob, 2);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 20000;
  index_t prev = std::numeric_limits<index_t>::max();
  for (int m : {1, 3, 10, 20}) {
    core::PolySpec poly;
    poly.degree = m;
    const auto res = core::solve_edd(part, prob.load, poly, opts);
    ASSERT_TRUE(res.converged) << "GLS(" << m << ")";
    EXPECT_LE(res.iterations, prev) << "GLS(" << m << ")";
    prev = res.iterations;
  }
}

TEST(Integration, PoissonOnTriMeshSolves) {
  // Scalar Poisson on the T3 mesh exercises the scalar element path and
  // the planar-graph case discussed in §5.
  const fem::Mesh mesh = fem::structured_tri(10, 10, 1.0, 1.0);
  fem::DofMap dofs(mesh.num_nodes(), 1);
  for (index_t n : mesh.nodes_at_x(0.0)) dofs.fix_node(n);
  for (index_t n : mesh.nodes_at_x(1.0)) dofs.fix_node(n);
  dofs.finalize();
  fem::Material mat;
  const sparse::CsrMatrix k = fem::assemble(mesh, dofs, mat,
                                            fem::Operator::Poisson);
  Vector f(static_cast<std::size_t>(dofs.num_free()), 0.01);

  const core::ScaledSystem s = core::scale_system(k, f);
  Vector x(s.b.size(), 0.0);
  core::PolyPrecond p(
      core::LinearOp::from_csr(s.a),
      core::PolySpec{.kind = core::PolyKind::Gls, .degree = 5});
  core::SolveOptions opts;
  opts.tol = 1e-8;
  const auto res = core::fgmres(s.a, s.b, x, p, opts);
  EXPECT_TRUE(res.converged);
  // Solution of -Δu = c with zero BCs is positive inside.
  const Vector u = s.unscale(x);
  for (real_t v : u) EXPECT_GT(v, 0.0);
}

TEST(Integration, ModeledSpeedupIncreasesWithDegree) {
  // Fig. 15/17(a): EDD speedup at fixed P grows with polynomial degree
  // (mat-vec work dominates, comm amortized).
  // Needs a paper-scale mesh (interface fraction small enough that the
  // iteration count stays P-flat, as in Table 3).
  fem::CantileverSpec spec;
  spec.nx = 48;
  spec.ny = 48;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const par::MachineModel origin = par::MachineModel::sgi_origin();
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 40000;

  double speedup_low = 0.0, speedup_high = 0.0;
  {
    core::PolySpec poly;
    poly.degree = 2;
    const auto rows = exp::edd_speedup_study(prob, poly, {1, 8}, origin, opts);
    speedup_low = rows.back().speedup;
  }
  {
    core::PolySpec poly;
    poly.degree = 10;
    const auto rows = exp::edd_speedup_study(prob, poly, {1, 8}, origin, opts);
    speedup_high = rows.back().speedup;
  }
  EXPECT_GT(speedup_high, speedup_low);
  EXPECT_GT(speedup_high, 5.0);  // strong scaling at P=8
}

TEST(Integration, ModeledSpeedupIncreasesWithProblemSize) {
  // Fig. 17(c,d): larger problems scale closer to linear.
  const par::MachineModel origin = par::MachineModel::sgi_origin();
  core::PolySpec poly;
  poly.degree = 7;
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 40000;

  fem::CantileverSpec small;
  small.nx = 12;
  small.ny = 12;
  fem::CantileverSpec large;
  large.nx = 36;
  large.ny = 36;
  const auto rows_small = exp::edd_speedup_study(
      fem::make_cantilever(small), poly, {1, 8}, origin, opts);
  const auto rows_large = exp::edd_speedup_study(
      fem::make_cantilever(large), poly, {1, 8}, origin, opts);
  EXPECT_GT(rows_large.back().speedup, rows_small.back().speedup);
}

TEST(Integration, OriginOutscalesSp2AtSmallP) {
  // Fig. 17(e): the Origin's lower latency gives better speedup than the
  // SP2 on the same trace.
  fem::CantileverSpec spec;
  spec.nx = 24;
  spec.ny = 24;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  core::PolySpec poly;
  poly.degree = 7;
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 40000;

  const auto sp2 = exp::edd_speedup_study(prob, poly, {1, 4},
                                          par::MachineModel::ibm_sp2(), opts);
  const auto origin = exp::edd_speedup_study(
      prob, poly, {1, 4}, par::MachineModel::sgi_origin(), opts);
  EXPECT_GT(origin.back().speedup, sp2.back().speedup);
}

TEST(Integration, MatrixMarketSystemRoundTripSolve) {
  // External-user path: dump the FE system, reload it, solve with RDD.
  const fem::CantileverProblem prob = fem::make_table2_cantilever(1);
  std::stringstream ss;
  sparse::write_matrix_market(ss, prob.stiffness);
  const sparse::CsrMatrix k = sparse::read_matrix_market(ss);

  IndexVector row_part(static_cast<std::size_t>(k.rows()));
  for (std::size_t i = 0; i < row_part.size(); ++i)
    row_part[i] = static_cast<index_t>((i * 2) / row_part.size());
  const partition::RddPartition part =
      partition::build_rdd_partition(k, row_part, 2);
  const core::DistSolve res = core::solve_rdd(part, prob.load);
  EXPECT_TRUE(res.converged);
}

}  // namespace
}  // namespace pfem
