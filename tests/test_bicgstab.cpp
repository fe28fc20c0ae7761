// BiCGSTAB tests: unsymmetric convection-diffusion systems (the problem
// class the paper motivates GMRES with), EDD-distributed correctness,
// and agreement with FGMRES.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <tuple>

#include "common/error.hpp"
#include "core/bicgstab.hpp"
#include "core/diag_scaling.hpp"
#include "core/fgmres.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"
#include "sparse/coo.hpp"
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

TEST(ConvectionDiffusion, IsUnsymmetricMMatrix) {
  const sparse::CsrMatrix a = sparse::convection_diffusion_2d(8, 8, 4.0, 2.0);
  EXPECT_GT(a.symmetry_defect(), 1.0);  // genuinely unsymmetric
  // Row sums are >= 0 (M-matrix with Dirichlet boundary).
  for (index_t i = 0; i < a.rows(); ++i) {
    real_t s = 0.0;
    for (real_t v : a.row_vals(i)) s += v;
    EXPECT_GE(s, -1e-12);
  }
  // Zero convection recovers the symmetric Laplacian.
  const sparse::CsrMatrix l = sparse::convection_diffusion_2d(8, 8, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(l.symmetry_defect(), 0.0);
}

TEST(Bicgstab, SolvesUnsymmetricSystem) {
  const sparse::CsrMatrix a =
      sparse::convection_diffusion_2d(10, 10, 6.0, -3.0);
  Vector b(100);
  for (std::size_t i = 0; i < 100; ++i) b[i] = std::sin(0.13 * double(i));
  const Vector x_ref = dense_solve(a, b);

  Vector x(100, 0.0);
  JacobiPrecond jacobi(a);
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 5000;
  const SolveReport res = bicgstab(a, b, x, jacobi, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref) + 1e-30;
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_NEAR(x[i], x_ref[i], 1e-7 * scale);
}

TEST(Bicgstab, AgreesWithFgmresOnUnsymmetricSystem) {
  const sparse::CsrMatrix a =
      sparse::convection_diffusion_2d(12, 12, 8.0, 8.0);
  Vector b(144, 1.0);
  SolveOptions opts;
  opts.tol = 1e-9;
  opts.max_iters = 10000;
  Vector x1(144, 0.0), x2(144, 0.0);
  JacobiPrecond p1(a), p2(a);
  const SolveReport rb = bicgstab(a, b, x1, p1, opts);
  const SolveReport rg = fgmres(a, b, x2, p2, opts);
  ASSERT_TRUE(rb.converged && rg.converged);
  const real_t scale = la::nrm_inf(x2) + 1e-30;
  for (std::size_t i = 0; i < 144; ++i)
    EXPECT_NEAR(x1[i], x2[i], 1e-6 * scale);
}

TEST(Bicgstab, ZeroRhs) {
  const sparse::CsrMatrix a = sparse::tridiag(10, 2.0, -1.0);
  Vector b(10, 0.0), x(10, 0.0);
  IdentityPrecond none;
  const SolveReport res = bicgstab(a, b, x, none);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Bicgstab, PolynomialPreconditionerReducesIterations) {
  fem::CantileverSpec spec;
  spec.nx = 14;
  spec.ny = 7;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const ScaledSystem s = scale_system(prob.stiffness, prob.load);
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 20000;

  Vector x1(s.b.size(), 0.0);
  IdentityPrecond none;
  const SolveReport plain = bicgstab(s.a, s.b, x1, none, opts);
  Vector x2(s.b.size(), 0.0);
  PolyPrecond gls(
      LinearOp::from_csr(s.a),
      PolySpec{.kind = PolyKind::Gls, .degree = 7});
  const SolveReport prec = bicgstab(s.a, s.b, x2, gls, opts);
  ASSERT_TRUE(plain.converged && prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
}

class EddBicgstabTest : public ::testing::TestWithParam<int> {};

TEST_P(EddBicgstabTest, MatchesSequentialSolution) {
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
  const DistSolve res = solve_edd_bicgstab(part, prob.load, poly,
                                                 opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, EddBicgstabTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(EddBicgstab, ExchangeCountPerIteration) {
  // Per full BiCGSTAB step: two preconditioner applications (m exchanges
  // each) and two outer mat-vecs = 2m + 2 exchanges.
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 4;
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.max_iters = 3;
  const auto a = solve_edd_bicgstab(part, prob.load, poly, opts);
  opts.max_iters = 4;
  const auto b = solve_edd_bicgstab(part, prob.load, poly, opts);
  const par::PerfCounters d =
      b.rank_counters[0].delta_since(a.rank_counters[0]);
  EXPECT_EQ(d.neighbor_exchanges, 2u * 4 + 2);
  EXPECT_EQ(d.matvecs, 2u * 4 + 2);
}

TEST(Bicgstab, ConvergenceIsJudgedByTheTrueResidual) {
  // Sequential counterpart of the EDD sweep below: neither a
  // recursive-residual hit nor a breakdown may be reported as
  // convergence, and a breakdown returns a report instead of throwing.
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
      SolveReport res;
      ASSERT_NO_THROW(res = bicgstab(prob.stiffness, prob.load, x, jacobi,
                                     opts))
          << nx << "x" << nx / 2 << " tol " << tol;
      EXPECT_TRUE(!res.converged || res.final_relres <= tol)
          << nx << "x" << nx / 2 << " tol " << tol
          << ": converged with true relres " << res.final_relres;
    }
  }
}

TEST(Bicgstab, RhatBreakdownReturnsAReport) {
  // At tol 1e-16 on the 8x4 cantilever <rhat, r> underflows before the
  // tolerance is reached: the solve stops and says so.
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  JacobiPrecond jacobi(prob.stiffness);
  SolveOptions opts;
  opts.tol = 1e-16;
  Vector x(prob.load.size(), 0.0);
  const SolveReport res = bicgstab(prob.stiffness, prob.load, x, jacobi, opts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_EQ(res.converged, res.final_relres <= opts.tol);
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.iterations));
  EXPECT_LT(res.final_relres, 1e-12);
}

sparse::CsrMatrix from_triplets(
    index_t n, std::initializer_list<std::tuple<index_t, index_t, real_t>> t) {
  sparse::CooBuilder coo(n, n);
  for (const auto& [i, j, v] : t) coo.add(i, j, v);
  return coo.build();
}

TEST(Bicgstab, RhatVBreakdownReturnsAReport) {
  // A skew matrix with r0 = b: v = A p is orthogonal to r̂ = b, so alpha
  // is undefined.  The solve stops and says so, without throwing.
  const sparse::CsrMatrix a = from_triplets(2, {{0, 1, 1.0}, {1, 0, -1.0}});
  const Vector b{1.0, 1.0};
  Vector x(2, 0.0);
  IdentityPrecond none;
  SolveReport res;
  ASSERT_NO_THROW(res = bicgstab(a, b, x, none, {}));
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.iterations));
  EXPECT_TRUE(std::isfinite(res.final_relres));
  for (const real_t v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Bicgstab, ZeroOmegaBreakdownReturnsAReport) {
  // diag(1, -1, 0) with b = [1, 0.5, 1]: the first stabilizing step has
  // <t, s> = 0 exactly, so omega = 0 and the next beta would divide by it.
  const sparse::CsrMatrix a = sparse::diagonal_matrix({1.0, -1.0, 0.0});
  const Vector b{1.0, 0.5, 1.0};
  Vector x(3, 0.0);
  IdentityPrecond none;
  SolveReport res;
  ASSERT_NO_THROW(res = bicgstab(a, b, x, none, {}));
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);  // b is not in the range of A
  EXPECT_EQ(res.iterations, 1);
  EXPECT_EQ(res.history.size(), 1u);
  EXPECT_TRUE(std::isfinite(res.final_relres));
}

TEST(EddBicgstab, RhatVBreakdownReturnsAReport) {
  // The distributed form of the skew reproducer: the 2x1 cantilever at
  // P = 1 (8 dofs) with 2x2 skew blocks as the local-matrix override.
  fem::CantileverSpec spec;
  spec.nx = 2;
  spec.ny = 1;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 1);
  const index_t n = part.subs.front().n_local();
  ASSERT_EQ(n, 8);
  sparse::CooBuilder coo(n, n);
  for (index_t k = 0; k + 1 < n; k += 2) {
    coo.add(k, k + 1, 1.0);
    coo.add(k + 1, k, -1.0);
  }
  const std::vector<sparse::CsrMatrix> skew{coo.build()};
  const Vector f(static_cast<std::size_t>(part.n_global), 1.0);
  const PolySpec none{.kind = PolyKind::None};
  DistSolve res;
  ASSERT_NO_THROW(res = solve_edd_bicgstab(part, f, none, {}, &skew));
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.iterations));
  EXPECT_TRUE(std::isfinite(res.final_relres));
  for (const real_t v : res.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(EddBicgstab, ConvergenceIsJudgedByTheTrueResidual) {
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
    const DistSolve res =
        solve_edd_bicgstab(part, prob.load, PolySpec{}, opts);
    EXPECT_TRUE(!res.converged || res.final_relres <= tol)
        << "tol " << tol << ": converged with true relres "
        << res.final_relres;
  }
}

TEST(EddBicgstab, DegenerateOperatorThrowsTypedError) {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  const auto dead = testing_support::zeroed_dof_override(part, 5);
  EXPECT_THROW(
      (void)solve_edd_bicgstab(part, prob.load, PolySpec{}, {}, dead.get()),
      BadOperatorError);
}

TEST(UnsymmetricRdd, FgmresSolvesConvectionDiffusionDistributed) {
  // The paper's headline claim: the framework handles *unsymmetric*
  // systems through GMRES.  Drive an upwind convection-diffusion matrix
  // through the RDD solver (no mesh needed) with a Neumann polynomial
  // (valid: the scaled M-matrix has rho(I - A) < 1).
  const sparse::CsrMatrix a =
      sparse::convection_diffusion_2d(12, 12, 5.0, 2.0);
  Vector b(144);
  for (std::size_t i = 0; i < 144; ++i) b[i] = std::cos(0.21 * double(i));
  const Vector x_ref = dense_solve(a, b);

  IndexVector row_part(144);
  for (std::size_t i = 0; i < 144; ++i)
    row_part[i] = static_cast<index_t>((i * 4) / 144);
  const partition::RddPartition part =
      partition::build_rdd_partition(a, row_part, 4);
  RddOptions rdd;
  rdd.poly.kind = PolyKind::Neumann;
  rdd.poly.degree = 10;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_rdd(part, b, rdd, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref) + 1e-30;
  for (std::size_t i = 0; i < 144; ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale);
}

}  // namespace
}  // namespace pfem::core
