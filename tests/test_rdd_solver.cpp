// RDD-FGMRES baseline tests (Algorithm 8): correctness across process
// counts and preconditioners, plus its Table-1 exchange count (m+1).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/fgmres.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {
namespace {

fem::CantileverProblem test_problem() {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  return fem::make_cantilever(spec);
}

Vector reference_solution(const fem::CantileverProblem& prob) {
  Vector x(prob.load.size(), 0.0);
  Ilu0Precond ilu(prob.stiffness);
  SolveOptions opts;
  opts.tol = 1e-12;
  opts.max_iters = 50000;
  const SolveReport res = fgmres(prob.stiffness, prob.load, x, ilu, opts);
  EXPECT_TRUE(res.converged);
  return x;
}

using RddCase = std::tuple<int, PolyKind>;

class RddSolverTest : public ::testing::TestWithParam<RddCase> {};

TEST_P(RddSolverTest, MatchesSequentialSolution) {
  const auto [nparts, kind] = GetParam();
  const fem::CantileverProblem prob = test_problem();
  const Vector x_ref = reference_solution(prob);

  const partition::RddPartition part = exp::make_rdd(prob, nparts);
  RddOptions rdd;
  rdd.poly.kind = kind;
  rdd.poly.degree = kind == PolyKind::Neumann ? 15 : 7;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_rdd(part, prob.load, rdd, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RddSolverTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(PolyKind::None, PolyKind::Neumann,
                                         PolyKind::Gls)),
    [](const ::testing::TestParamInfo<RddCase>& info) {
      std::string name = "P" + std::to_string(std::get<0>(info.param));
      const PolyKind kind = std::get<1>(info.param);
      name += kind == PolyKind::None
                  ? "_none"
                  : (kind == PolyKind::Neumann ? "_Neumann" : "_GLS");
      return name;
    });

TEST(RddSolver, BlockJacobiIluConverges) {
  const fem::CantileverProblem prob = test_problem();
  const Vector x_ref = reference_solution(prob);
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.precond = RddOptions::Precond::BlockJacobiIlu;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_rdd(part, prob.load, rdd, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale);
}

par::PerfCounters per_iteration_delta(const partition::RddPartition& part,
                                      const Vector& f, const RddOptions& rdd,
                                      index_t n) {
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.restart = 25;
  opts.max_iters = n;
  const DistSolve a = solve_rdd(part, f, rdd, opts);
  opts.max_iters = n + 1;
  const DistSolve b = solve_rdd(part, f, rdd, opts);
  return b.rank_counters[0].delta_since(a.rank_counters[0]);
}

class RddTable1Test : public ::testing::TestWithParam<int> {};

TEST_P(RddTable1Test, ExchangesPerIterationAreDegreePlusOne) {
  // Paper Table 1, Algorithm 8: m+1 exchange phases per Arnoldi
  // iteration (m inside the polynomial, 1 for the outer mat-vec).
  const int m = GetParam();
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.poly.degree = m;
  const par::PerfCounters d = per_iteration_delta(part, prob.load, rdd, 3);
  EXPECT_EQ(d.neighbor_exchanges, static_cast<std::uint64_t>(m) + 1);
  EXPECT_EQ(d.matvecs, static_cast<std::uint64_t>(m) + 1);
  // One reduction per h_ij + one for the norm: the 4th iteration does 5.
  EXPECT_EQ(d.global_reductions, 5u);
}

INSTANTIATE_TEST_SUITE_P(Degrees, RddTable1Test, ::testing::Values(1, 3, 7));

TEST(RddSolver, BlockJacobiIluDoesNoExchangeInPrecondition) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.precond = RddOptions::Precond::BlockJacobiIlu;
  const par::PerfCounters d = per_iteration_delta(part, prob.load, rdd, 3);
  // Only the outer mat-vec exchanges.
  EXPECT_EQ(d.neighbor_exchanges, 1u);
  EXPECT_EQ(d.matvecs, 1u);
}

TEST(RddSolver, EddAndRddAgreeOnSolution) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition rpart = exp::make_rdd(prob, 4);
  const partition::EddPartition epart = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 7;
  RddOptions rdd;
  rdd.poly = poly;
  SolveOptions opts;
  opts.tol = 1e-10;
  const DistSolve r1 = solve_rdd(rpart, prob.load, rdd, opts);
  const DistSolve r2 = solve_edd(epart, prob.load, poly, opts);
  ASSERT_TRUE(r1.converged && r2.converged);
  const real_t scale = la::nrm_inf(r1.x);
  for (std::size_t i = 0; i < r1.x.size(); ++i)
    EXPECT_NEAR(r1.x[i], r2.x[i], 1e-6 * scale);
}

TEST(RddSolver, SingleRankNoMessaging) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 1);
  const DistSolve res = solve_rdd(part, prob.load);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.rank_counters[0].neighbor_msgs, 0u);
}

TEST(RddSolver, MoreRanksMoreMessagesPerExchange) {
  // §5: the RDD mat-vec involves more communicating pairs as P grows.
  const fem::CantileverProblem prob = test_problem();
  RddOptions rdd;
  rdd.poly.degree = 3;
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.max_iters = 3;
  std::uint64_t msgs2 = 0, msgs8 = 0;
  {
    const auto res =
        solve_rdd(exp::make_rdd(prob, 2), prob.load, rdd, opts);
    for (const auto& c : res.rank_counters) msgs2 += c.neighbor_msgs;
  }
  {
    const auto res =
        solve_rdd(exp::make_rdd(prob, 8), prob.load, rdd, opts);
    for (const auto& c : res.rank_counters) msgs8 += c.neighbor_msgs;
  }
  EXPECT_GT(msgs8, msgs2);
}

TEST(RddSolver, ValidatesThePolySpecLikeEdd) {
  // One build path: every spec validate_poly_spec refuses is refused by
  // solve_rdd too (before any rank starts), with the same message.
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 2);
  const std::vector<PolySpec> bad = {
      {.kind = PolyKind::Neumann, .degree = 0},
      {.kind = PolyKind::Gls, .degree = 7, .theta = {{-0.5, 1.0}}},
      {.kind = PolyKind::Chebyshev, .degree = 4, .theta = {}},
      {.kind = PolyKind::Chebyshev,
       .degree = 4,
       .theta = {{0.1, 0.5}, {0.7, 1.9}}},
  };
  for (const PolySpec& spec : bad) {
    std::string expected;
    try {
      validate_poly_spec(spec);
    } catch (const Error& e) {
      expected = e.what();
    }
    ASSERT_FALSE(expected.empty()) << spec.name();
    RddOptions rdd;
    rdd.poly = spec;
    try {
      (void)solve_rdd(part, prob.load, rdd);
      ADD_FAILURE() << spec.name() << ": expected pfem::Error";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), expected) << spec.name();
    }
  }
}

}  // namespace
}  // namespace pfem::core
