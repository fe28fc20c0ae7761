// PCG tests: sequential correctness, EDD-distributed correctness across
// process counts, and the m+1 exchange count per iteration.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/cg.hpp"
#include "core/diag_scaling.hpp"
#include "core/fgmres.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"
#include "sparse/generators.hpp"
#include "degenerate_operator.hpp"

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

TEST(Pcg, SolvesSpdSystem) {
  const sparse::CsrMatrix a = sparse::laplace2d(10, 10);
  Vector b(100);
  for (std::size_t i = 0; i < 100; ++i) b[i] = std::sin(0.17 * double(i));
  const Vector x_ref = dense_solve(a, b);
  Vector x(100, 0.0);
  JacobiPrecond jacobi(a);
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 2000;
  const SolveReport res = pcg(a, b, x, jacobi, opts);
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-7);
}

TEST(Pcg, ExactInNStepsForTinySystem) {
  // CG terminates in at most n steps (exact arithmetic); a 5x5 system
  // must be solved in <= 5 iterations to near machine precision.
  const sparse::CsrMatrix a = sparse::tridiag(5, 3.0, -1.0);
  Vector b{1, 2, 3, 4, 5};
  Vector x(5, 0.0);
  IdentityPrecond none;
  SolveOptions opts;
  opts.tol = 1e-12;
  const SolveReport res = pcg(a, b, x, none, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 5);
}

TEST(Pcg, PolynomialPreconditionerCutsIterations) {
  fem::CantileverSpec spec;
  spec.nx = 12;
  spec.ny = 6;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const ScaledSystem s = scale_system(prob.stiffness, prob.load);
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 20000;

  Vector x1(s.b.size(), 0.0);
  IdentityPrecond none;
  const SolveReport plain = pcg(s.a, s.b, x1, none, opts);

  Vector x2(s.b.size(), 0.0);
  PolyPrecond gls(
      LinearOp::from_csr(s.a),
      PolySpec{.kind = PolyKind::Gls, .degree = 7});
  const SolveReport with_gls = pcg(s.a, s.b, x2, gls, opts);

  ASSERT_TRUE(plain.converged && with_gls.converged);
  EXPECT_LT(with_gls.iterations, plain.iterations);
  for (std::size_t i = 0; i < x1.size(); ++i)
    EXPECT_NEAR(x2[i], x1[i], 1e-5 * (1.0 + std::abs(x1[i])));
}

TEST(Pcg, ThrowsOnIndefiniteOperator) {
  const sparse::CsrMatrix a = sparse::diagonal_matrix({1.0, -1.0, 2.0});
  Vector b{1, 1, 1}, x(3, 0.0);
  IdentityPrecond none;
  EXPECT_THROW((void)pcg(a, b, x, none), Error);
}

TEST(Pcg, ZeroRhs) {
  const sparse::CsrMatrix a = sparse::tridiag(8, 2.0, -1.0);
  Vector b(8, 0.0), x(8, 0.0);
  IdentityPrecond none;
  const SolveReport res = pcg(a, b, x, none);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

class EddCgTest : public ::testing::TestWithParam<int> {};

TEST_P(EddCgTest, MatchesSequentialSolution) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);

  Vector x_ref(prob.load.size(), 0.0);
  Ilu0Precond ilu(prob.stiffness);
  SolveOptions ref_opts;
  ref_opts.tol = 1e-12;
  ref_opts.max_iters = 50000;
  ASSERT_TRUE(
      fgmres(prob.stiffness, prob.load, x_ref, ilu, ref_opts).converged);

  const partition::EddPartition part = exp::make_edd(prob, nparts);
  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_edd_cg(part, prob.load, poly, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, EddCgTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(EddCg, ExchangesPerIterationAreDegreePlusOne) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 6;
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.max_iters = 3;
  const DistSolve a = solve_edd_cg(part, prob.load, poly, opts);
  opts.max_iters = 4;
  const DistSolve b = solve_edd_cg(part, prob.load, poly, opts);
  const par::PerfCounters d =
      b.rank_counters[0].delta_since(a.rank_counters[0]);
  EXPECT_EQ(d.neighbor_exchanges, 7u);  // m inside P(A), 1 for r_glob
  EXPECT_EQ(d.matvecs, 7u);
  EXPECT_EQ(d.global_reductions, 3u);   // pap, ||r||, rho
}

TEST(EddCg, ChebyshevPolynomialWorksToo) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 3);
  PolySpec poly;
  poly.kind = PolyKind::Chebyshev;
  poly.degree = 7;
  poly.theta = {{1e-4, 1.0}};
  const DistSolve res = solve_edd_cg(part, prob.load, poly);
  EXPECT_TRUE(res.converged);
}

TEST(EddCg, AgreesWithEddFgmresIterationsBallpark) {
  // Same preconditioner, same system: CG and FGMRES(∞) minimize in
  // related norms; iteration counts should be of the same order.
  fem::CantileverSpec spec;
  spec.nx = 12;
  spec.ny = 6;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 7;
  SolveOptions opts;
  opts.tol = 1e-6;
  const DistSolve cg = solve_edd_cg(part, prob.load, poly, opts);
  const DistSolve gm = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(cg.converged && gm.converged);
  EXPECT_LT(cg.iterations, 4 * gm.iterations + 10);
  EXPECT_LT(gm.iterations, 4 * cg.iterations + 10);
}

TEST(Pcg, ConvergenceIsJudgedByTheTrueResidual) {
  // Sequential counterpart of the EDD sweep below: near machine
  // precision the recursive residual drifts below the true one, and a
  // recursive-residual hit must not be reported as convergence.
  for (const index_t nx : {8, 12, 16}) {
    fem::CantileverSpec spec;
    spec.nx = nx;
    spec.ny = nx / 2;
    const fem::CantileverProblem prob = fem::make_cantilever(spec);
    JacobiPrecond jacobi(prob.stiffness);
    for (const real_t tol : {1e-12, 1e-13, 1e-14, 1e-15, 1e-16}) {
      SolveOptions opts;
      opts.tol = tol;
      Vector x(prob.load.size(), 0.0);
      const SolveReport res = pcg(prob.stiffness, prob.load, x, jacobi, opts);
      EXPECT_TRUE(!res.converged || res.final_relres <= tol)
          << nx << "x" << nx / 2 << " tol " << tol
          << ": converged with true relres " << res.final_relres;
    }
  }
}

TEST(EddCg, ConvergenceIsJudgedByTheTrueResidual) {
  // Near machine precision the recursive residual drifts below the true
  // one; a recursive-residual hit must not be reported as convergence.
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  for (const real_t tol : {1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15}) {
    SolveOptions opts;
    opts.tol = tol;
    const DistSolve res = solve_edd_cg(part, prob.load, PolySpec{}, opts);
    EXPECT_TRUE(!res.converged || res.final_relres <= tol)
        << "tol " << tol << ": converged with true relres "
        << res.final_relres;
  }
}

TEST(EddCg, DegenerateOperatorThrowsTypedError) {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  const auto dead = testing_support::zeroed_dof_override(part, 5);
  EXPECT_THROW((void)solve_edd_cg(part, prob.load, PolySpec{}, {}, dead.get()),
               BadOperatorError);
}

}  // namespace
}  // namespace pfem::core
