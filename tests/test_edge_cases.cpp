// Edge-case and robustness tests across modules: argument validation,
// capacity limits, degenerate inputs, and harness utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "core/bicgstab.hpp"
#include "core/cg.hpp"
#include "core/fgmres.hpp"
#include "core/orthopoly.hpp"
#include "core/precond.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "la/dense.hpp"
#include "par/comm.hpp"
#include "par/cost_model.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace pfem {
namespace {

// ---- par runtime ----

TEST(ParEdge, AllreduceLengthMismatchFails) {
  EXPECT_THROW(par::run_spmd(2,
                             [](par::Comm& c) {
                               Vector v(c.rank() == 0 ? 3 : 4, 1.0);
                               c.allreduce_sum(v);
                             }),
               Error);
}

TEST(ParEdge, ManyInterleavedRoundsStayOrdered) {
  // 200 rounds of bidirectional traffic with alternating tags.
  par::run_spmd(2, [](par::Comm& c) {
    const int other = 1 - c.rank();
    Vector out;
    for (int round = 0; round < 200; ++round) {
      Vector payload{static_cast<real_t>(round), static_cast<real_t>(c.rank())};
      c.send(other, round % 3, payload);
      c.recv(other, round % 3, out);
      ASSERT_EQ(out.size(), 2u);
      EXPECT_DOUBLE_EQ(out[0], static_cast<real_t>(round));
      EXPECT_DOUBLE_EQ(out[1], static_cast<real_t>(other));
    }
  });
}

TEST(ParEdge, LargeMessageRoundTrip) {
  par::run_spmd(2, [](par::Comm& c) {
    if (c.rank() == 0) {
      Vector big(100000);
      for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = std::sin(double(i));
      c.send(1, 0, big);
    } else {
      Vector got;
      c.recv(0, 0, got);
      ASSERT_EQ(got.size(), 100000u);
      EXPECT_DOUBLE_EQ(got[777], std::sin(777.0));
    }
  });
}

TEST(ParEdge, SingleRankCollectivesTrivial) {
  par::run_spmd(1, [](par::Comm& c) {
    c.barrier();
    EXPECT_DOUBLE_EQ(c.allreduce_sum(3.5), 3.5);
    EXPECT_DOUBLE_EQ(c.allreduce_max(-2.0), -2.0);
  });
}

TEST(ParEdge, InvalidRankCountRejected) {
  EXPECT_THROW(par::run_spmd(0, [](par::Comm&) {}), Error);
}

TEST(CostModelEdge, BytesMatterAtFixedMessageCount) {
  par::PerfCounters light, heavy;
  light.neighbor_msgs = heavy.neighbor_msgs = 10;
  light.neighbor_bytes = 100;
  heavy.neighbor_bytes = 10000000;
  const auto m = par::MachineModel::ibm_sp2();
  EXPECT_GT(par::model_time(m, std::vector{heavy, heavy}).neighbor,
            par::model_time(m, std::vector{light, light}).neighbor);
}

// ---- orthogonal polynomials ----

TEST(OrthopolyEdge, TooFewNodesRejected) {
  const core::QuadratureRule rule = core::chebyshev_rule({{0.5, 1.5}}, 4);
  EXPECT_THROW(core::OrthoBasis(rule, 4), Error);  // needs > degree nodes
  EXPECT_NO_THROW(core::OrthoBasis(rule, 3));
}

TEST(OrthopolyEdge, RuleValidation) {
  EXPECT_THROW((void)core::chebyshev_rule({}, 8), Error);
  EXPECT_THROW((void)core::chebyshev_rule({{1.0, 0.5}}, 8), Error);
  EXPECT_THROW((void)core::chebyshev_rule({{0.5, 1.5}}, 0), Error);
}

TEST(OrthopolyEdge, AccessorsRangeChecked) {
  const core::QuadratureRule rule = core::chebyshev_rule({{0.5, 1.5}}, 32);
  const core::OrthoBasis basis(rule, 3);
  EXPECT_THROW((void)basis.alpha(3), Error);
  EXPECT_THROW((void)basis.sqrt_beta(4), Error);
  EXPECT_NO_THROW((void)basis.sqrt_beta(3));
}

// ---- solvers ----

TEST(FgmresEdge, MaxItersCapReportsNotConverged) {
  const sparse::CsrMatrix a = sparse::laplace2d(12, 12);
  Vector b(144, 1.0), x(144, 0.0);
  core::IdentityPrecond none;
  core::SolveOptions opts;
  opts.max_iters = 3;
  opts.tol = 1e-12;
  const core::SolveReport res = core::fgmres(a, b, x, none, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
  EXPECT_EQ(res.history.size(), 3u);
}

TEST(SolverEdge, ZeroRhsConvergesInZeroIterations) {
  // ‖f‖ = 0 makes the relative residual 0/0; every Krylov driver must
  // short-circuit to x = 0, converged, without touching NaNs — even from
  // a nonzero initial guess.
  const sparse::CsrMatrix a = sparse::laplace2d(8, 8);
  const Vector b(64, 0.0);
  core::IdentityPrecond none;
  core::SolveOptions opts;
  opts.tol = 1e-10;

  const auto check = [](const core::SolveReport& res, const Vector& x) {
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0);
    EXPECT_EQ(res.final_relres, 0.0);
    EXPECT_FALSE(std::isnan(res.final_relres));
    for (real_t v : x) EXPECT_EQ(v, 0.0);
  };

  Vector x(64, 3.0);  // nonzero guess must be overwritten with the solution
  check(core::fgmres(a, b, x, none, opts), x);
  x.assign(64, -2.0);
  check(core::pcg(a, b, x, none, opts), x);
  x.assign(64, 1.5);
  check(core::bicgstab(a, b, x, none, opts), x);
}

// b = 0 through every solver entry point: x = 0 is exact, so each one
// reports a converged trivial solve in 0 iterations with relres 0 — the
// flag svc/loadgen statistics use to keep trivial solves out of their
// percentiles.  The sequential solvers start from a nonzero guess.
enum class Entry { Fgmres, Pcg, Bicgstab, Edd, EddCg, EddBicgstab, Rdd };

class ZeroRhsTest : public ::testing::TestWithParam<Entry> {};

TEST_P(ZeroRhsTest, EveryEntryPointReportsATrivialSolve) {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const Vector f(prob.load.size(), 0.0);
  const core::PolySpec gls;
  core::IdentityPrecond none;
  Vector x(f.size(), 2.5);
  core::SolveReport rep;
  const auto dist = [&](core::DistSolve r) {
    x = std::move(r.x);
    rep = std::move(r);
  };
  switch (GetParam()) {
    case Entry::Fgmres: rep = core::fgmres(prob.stiffness, f, x, none); break;
    case Entry::Pcg: rep = core::pcg(prob.stiffness, f, x, none); break;
    case Entry::Bicgstab:
      rep = core::bicgstab(prob.stiffness, f, x, none);
      break;
    case Entry::Edd:
      dist(core::solve_edd(exp::make_edd(prob, 4), f, gls));
      break;
    case Entry::EddCg:
      dist(core::solve_edd_cg(exp::make_edd(prob, 4), f, gls));
      break;
    case Entry::EddBicgstab:
      dist(core::solve_edd_bicgstab(exp::make_edd(prob, 4), f, gls));
      break;
    case Entry::Rdd: dist(core::solve_rdd(exp::make_rdd(prob, 4), f)); break;
  }
  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.trivial_rhs);
  EXPECT_EQ(rep.iterations, 0);
  EXPECT_EQ(rep.final_relres, 0.0);
  ASSERT_EQ(x.size(), f.size());
  for (real_t v : x) EXPECT_EQ(v, 0.0);
}

std::string entry_name(const ::testing::TestParamInfo<Entry>& info) {
  static const char* const names[] = {
      "fgmres",       "pcg",                "bicgstab", "solve_edd",
      "solve_edd_cg", "solve_edd_bicgstab", "solve_rdd"};
  return names[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(ZeroRhs, ZeroRhsTest,
                         ::testing::Values(Entry::Fgmres, Entry::Pcg,
                                           Entry::Bicgstab, Entry::Edd,
                                           Entry::EddCg, Entry::EddBicgstab,
                                           Entry::Rdd),
                         entry_name);

TEST(FgmresEdge, InvalidOptionsRejected) {
  const sparse::CsrMatrix a = sparse::tridiag(4, 2.0, -1.0);
  Vector b(4, 1.0), x(4, 0.0);
  core::IdentityPrecond none;
  core::SolveOptions opts;
  opts.restart = 0;
  EXPECT_THROW((void)core::fgmres(a, b, x, none, opts), Error);
  opts.restart = 25;
  opts.tol = 0.0;
  EXPECT_THROW((void)core::fgmres(a, b, x, none, opts), Error);
}

TEST(FgmresEdge, SizeMismatchRejected) {
  const sparse::CsrMatrix a = sparse::tridiag(4, 2.0, -1.0);
  Vector b(5, 1.0), x(4, 0.0);
  core::IdentityPrecond none;
  EXPECT_THROW((void)core::fgmres(a, b, x, none), Error);
}

TEST(PrecondEdge, JacobiRejectsZeroDiagonal) {
  sparse::CooBuilder coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 0.0);
  const sparse::CsrMatrix a = coo.build();
  EXPECT_THROW(core::JacobiPrecond p(a), Error);
}

// ---- dense ----

TEST(DenseEdge, MultiplyShapeMismatchRejected) {
  la::DenseMatrix a(2, 3), b(2, 2);
  EXPECT_THROW((void)a.multiply(b), Error);
  EXPECT_THROW((void)a.max_abs_diff(b), Error);
}

TEST(DenseEdge, MatvecTransposeMatchesExplicitTranspose) {
  la::DenseMatrix a(3, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  a(2, 0) = 5;
  a(2, 1) = 6;
  Vector x{1.0, -1.0, 2.0}, y1(2), y2(2);
  a.matvec_transpose(x, y1);
  a.transposed().matvec(x, y2);
  EXPECT_DOUBLE_EQ(y1[0], y2[0]);
  EXPECT_DOUBLE_EQ(y1[1], y2[1]);
}

// ---- harness ----

TEST(TableEdge, RowWidthEnforced) {
  exp::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(TableEdge, CsvEscapesSeparatorsAndQuotes) {
  exp::Table t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "quote\"inside"});
  std::stringstream ss;
  t.print_csv(ss);
  const std::string csv = ss.str();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\",\"quote\"\"inside\"\n"),
            std::string::npos);
}

TEST(TableEdge, FormattersBehave) {
  EXPECT_EQ(exp::Table::integer(42), "42");
  EXPECT_EQ(exp::Table::num(1.5, 2), "1.50");
  EXPECT_EQ(exp::Table::sci(0.0012, 1), "1.2e-03");
}

}  // namespace
}  // namespace pfem
