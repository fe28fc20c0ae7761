// Sequential flexible GMRES tests (Algorithm 1): correctness against
// direct solves, restart behaviour, preconditioner effectiveness ordering.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <tuple>

#include "core/diag_scaling.hpp"
#include "core/edd_solver.hpp"
#include "core/fgmres.hpp"
#include "core/operator.hpp"
#include "core/precond.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"
#include "sparse/generators.hpp"

namespace pfem::core {
namespace {

Vector dense_solve(const sparse::CsrMatrix& a, const Vector& b) {
  la::DenseMatrix ad(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) ad(i, j) = a.at(i, j);
  Vector x = b;
  la::lu_solve(ad, x);
  return x;
}

TEST(Fgmres, SolvesSmallSpdToTolerance) {
  const sparse::CsrMatrix a = sparse::tridiag(20, 3.0, -1.0);
  Vector b(20);
  for (std::size_t i = 0; i < 20; ++i) b[i] = std::sin(double(i));
  const Vector x_ref = dense_solve(a, b);

  Vector x(20, 0.0);
  IdentityPrecond none;
  SolveOptions opts;
  opts.tol = 1e-10;
  const SolveReport res = fgmres(a, b, x, none, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.final_relres, 1e-10);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(Fgmres, ZeroRhsConvergesImmediately) {
  const sparse::CsrMatrix a = sparse::tridiag(10, 2.0, -1.0);
  Vector b(10, 0.0), x(10, 0.0);
  IdentityPrecond none;
  const SolveReport res = fgmres(a, b, x, none);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Fgmres, ExactInitialGuessNoIterations) {
  const sparse::CsrMatrix a = sparse::tridiag(10, 2.0, -1.0);
  Vector x_true(10, 1.0);
  Vector b(10);
  a.spmv(x_true, b);
  Vector x = x_true;
  IdentityPrecond none;
  const SolveReport res = fgmres(a, b, x, none);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Fgmres, RestartStillConverges) {
  const sparse::CsrMatrix a = sparse::laplace2d(10, 10);
  Vector b(100, 1.0), x(100, 0.0);
  IdentityPrecond none;
  SolveOptions opts;
  opts.restart = 5;  // force many restarts
  opts.tol = 1e-8;
  opts.max_iters = 5000;
  const SolveReport res = fgmres(a, b, x, none, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.restarts, 1);
  Vector r(100);
  a.spmv(x, r);
  la::axpy(-1.0, b, r);
  EXPECT_LE(la::nrm2(r) / la::nrm2(b), 1e-7);
}

TEST(Fgmres, HistoryLengthMatchesIterations) {
  const sparse::CsrMatrix a = sparse::laplace2d(8, 8);
  Vector b(64, 1.0), x(64, 0.0);
  JacobiPrecond jacobi(a);
  const SolveReport res = fgmres(a, b, x, jacobi);
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.iterations));
  // Residual history non-increasing within a cycle (GMRES optimality).
  for (std::size_t i = 1; i < res.history.size(); ++i)
    EXPECT_LE(res.history[i], res.history[i - 1] * (1.0 + 1e-12));
}

TEST(Fgmres, OneOperatorApplyPerIterationCycleStartAndFinalCheck) {
  // The initial residual is computed once: a counting operator sees one
  // apply per Arnoldi step, one per cycle start (restarts + 1) and one
  // for the final true residual — nothing more.
  fem::CantileverSpec spec;
  spec.nx = 16;
  spec.ny = 8;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  long applies = 0;
  const LinearOp counting(
      prob.stiffness.rows(),
      [&](std::span<const real_t> x, std::span<real_t> y) {
        ++applies;
        prob.stiffness.spmv(x, y);
      });
  JacobiPrecond jacobi(prob.stiffness);
  SolveOptions opts;
  opts.restart = 10;
  opts.max_iters = 5000;
  Vector x(prob.load.size(), 0.0);
  const SolveReport res = fgmres(counting, prob.load, x, jacobi, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_GT(res.restarts, 0);
  EXPECT_EQ(applies, res.iterations + (res.restarts + 1) + 1);
}

TEST(Fgmres, Ilu0BeatsUnpreconditioned) {
  const sparse::CsrMatrix a = sparse::laplace2d(15, 15);
  Vector b(225, 1.0);
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 3000;

  Vector x1(225, 0.0);
  IdentityPrecond none;
  const SolveReport r_none = fgmres(a, b, x1, none, opts);
  Vector x2(225, 0.0);
  Ilu0Precond ilu(a);
  const SolveReport r_ilu = fgmres(a, b, x2, ilu, opts);
  ASSERT_TRUE(r_none.converged);
  ASSERT_TRUE(r_ilu.converged);
  EXPECT_LT(r_ilu.iterations, r_none.iterations);
}

TEST(Fgmres, PolynomialPrecondBeatsUnpreconditionedOnScaledSystem) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const ScaledSystem s = scale_system(prob.stiffness, prob.load);
  SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 5000;

  Vector x0(s.b.size(), 0.0);
  IdentityPrecond none;
  const SolveReport r_none = fgmres(s.a, s.b, x0, none, opts);

  Vector x1(s.b.size(), 0.0);
  PolyPrecond gls(
      LinearOp::from_csr(s.a),
      PolySpec{.kind = PolyKind::Gls, .degree = 7});
  const SolveReport r_gls = fgmres(s.a, s.b, x1, gls, opts);

  Vector x2(s.b.size(), 0.0);
  PolyPrecond neumann(
      LinearOp::from_csr(s.a),
      PolySpec{.kind = PolyKind::Neumann, .degree = 20});
  const SolveReport r_neu = fgmres(s.a, s.b, x2, neumann, opts);

  ASSERT_TRUE(r_none.converged);
  ASSERT_TRUE(r_gls.converged);
  ASSERT_TRUE(r_neu.converged);
  EXPECT_LT(r_gls.iterations, r_none.iterations);
  EXPECT_LT(r_neu.iterations, r_none.iterations);

  // All three give the same solution.
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(x1[i], x0[i], 1e-4 * (1.0 + std::abs(x0[i])));
    EXPECT_NEAR(x2[i], x0[i], 1e-4 * (1.0 + std::abs(x0[i])));
  }
}

TEST(Fgmres, PrecondNamesAndMatvecCounts) {
  const sparse::CsrMatrix a = sparse::tridiag(5, 1.0, -0.2);
  EXPECT_EQ(IdentityPrecond{}.name(), "none");
  EXPECT_EQ(JacobiPrecond(a).name(), "Jacobi");
  EXPECT_EQ(Ilu0Precond(a).name(), "ILU(0)");
  PolyPrecond gls(
      LinearOp::from_csr(a),
      PolySpec{.kind = PolyKind::Gls, .degree = 7, .theta = {{0.1, 1.0}}});
  EXPECT_EQ(gls.name(), "GLS(7)");
  EXPECT_EQ(gls.matvecs_per_apply(), 7);
  PolyPrecond neu(
      LinearOp::from_csr(a),
      PolySpec{.kind = PolyKind::Neumann, .degree = 20});
  EXPECT_EQ(neu.name(), "Neumann(20)");
  EXPECT_EQ(neu.matvecs_per_apply(), 20);
}

// The sequential path is the FGMRES engine's one-rank space: on the
// norm-1-scaled system, sequential fgmres, solve_edd (Enhanced) at P=1
// and solve_rdd (Poly) at P=1 run the same arithmetic, so iteration
// counts, every history entry and the final relres agree bit for bit.
using P1Case = std::tuple<int, PolyKind>;

class FgmresP1SpaceTest : public ::testing::TestWithParam<P1Case> {};

TEST_P(FgmresP1SpaceTest, SequentialEddAndRddAreBitIdentical) {
  const auto [mesh, kind] = GetParam();
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh);
  const PolySpec spec{.kind = kind,
                      .degree = kind == PolyKind::Neumann ? 20 : 7};
  const ScaledSystem sys = scale_system(prob.stiffness, prob.load);
  PolyPrecond precond(LinearOp::from_csr(sys.a), spec);
  Vector x(sys.b.size(), 0.0);
  const SolveReport seq = fgmres(sys.a, sys.b, x, precond);
  const DistSolve edd = solve_edd(exp::make_edd(prob, 1), prob.load, spec);
  RddOptions rdd_opts;
  rdd_opts.poly = spec;
  const DistSolve rdd =
      solve_rdd(exp::make_rdd(prob, 1), prob.load, rdd_opts);
  ASSERT_TRUE(seq.converged);
  for (const SolveReport* dist : {static_cast<const SolveReport*>(&edd),
                                  static_cast<const SolveReport*>(&rdd)}) {
    EXPECT_EQ(dist->iterations, seq.iterations);
    EXPECT_EQ(dist->restarts, seq.restarts);
    EXPECT_EQ(dist->history, seq.history);
    EXPECT_EQ(dist->final_relres, seq.final_relres);
  }
}

std::string p1_case_name(const ::testing::TestParamInfo<P1Case>& info) {
  const auto [mesh, kind] = info.param;
  const char* const kinds[] = {"none", "Neumann", "GLS"};
  return "Mesh" + std::to_string(mesh) + "_" + kinds[static_cast<int>(kind)];
}

INSTANTIATE_TEST_SUITE_P(
    MeshesAndPolys, FgmresP1SpaceTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(PolyKind::None, PolyKind::Neumann,
                                         PolyKind::Gls)),
    p1_case_name);

class FgmresRestartSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(FgmresRestartSweep, ConvergesForAnyRestartLength) {
  const sparse::CsrMatrix a = sparse::laplace2d(9, 9);
  Vector b(81, 1.0), x(81, 0.0);
  JacobiPrecond jacobi(a);
  SolveOptions opts;
  opts.restart = GetParam();
  opts.tol = 1e-8;
  opts.max_iters = 5000;
  const SolveReport res = fgmres(a, b, x, jacobi, opts);
  EXPECT_TRUE(res.converged) << "restart " << GetParam();
  Vector r(81);
  a.spmv(x, r);
  la::axpy(-1.0, b, r);
  EXPECT_LE(la::nrm2(r) / la::nrm2(b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Restarts, FgmresRestartSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

}  // namespace
}  // namespace pfem::core
