// Parallel EDD-FGMRES tests (Algorithms 5/6): correctness against
// sequential references across process counts, variants and
// preconditioners, plus the Table-1 per-iteration communication counts.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "core/edd_solver.hpp"
#include "core/fgmres.hpp"
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

using EddCase = std::tuple<int, EddVariant, PolyKind>;

class EddSolverTest : public ::testing::TestWithParam<EddCase> {};

TEST_P(EddSolverTest, MatchesSequentialSolution) {
  const auto [nparts, variant, kind] = GetParam();
  const fem::CantileverProblem prob = test_problem();
  const Vector x_ref = reference_solution(prob);

  const partition::EddPartition part = exp::make_edd(prob, nparts);
  PolySpec poly;
  poly.kind = kind;
  poly.degree = kind == PolyKind::Neumann ? 15 : 7;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res =
      solve_edd(part, prob.load, poly, opts, variant);
  ASSERT_TRUE(res.converged);
  // Classical Gram-Schmidt (the paper's choice) loses a couple of digits
  // of the Givens-tracked residual at tolerances this far below the
  // paper's 1e-6; accept a small gap on the true residual.
  EXPECT_LE(res.final_relres, 1e-7);
  ASSERT_EQ(res.x.size(), x_ref.size());
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EddSolverTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(EddVariant::Basic,
                                         EddVariant::Enhanced),
                       ::testing::Values(PolyKind::None, PolyKind::Neumann,
                                         PolyKind::Gls)),
    [](const ::testing::TestParamInfo<EddCase>& info) {
      std::string name = "P" + std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == EddVariant::Basic ? "_Basic"
                                                           : "_Enhanced";
      const PolyKind kind = std::get<2>(info.param);
      name += kind == PolyKind::None
                  ? "_none"
                  : (kind == PolyKind::Neumann ? "_Neumann" : "_GLS");
      return name;
    });

TEST(EddSolver, BasicAndEnhancedAgreeOnIterations) {
  // Same partition, same scaling, same polynomial: the two variants are
  // algebraically identical and must take (nearly) the same iterations.
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-8;
  const DistSolve basic =
      solve_edd(part, prob.load, poly, opts, EddVariant::Basic);
  const DistSolve enhanced =
      solve_edd(part, prob.load, poly, opts, EddVariant::Enhanced);
  ASSERT_TRUE(basic.converged && enhanced.converged);
  EXPECT_NEAR(static_cast<double>(basic.iterations),
              static_cast<double>(enhanced.iterations), 2.0);
}

/// Per-iteration counter deltas measured by running the same solve with
/// max_iters = n and n+1 at an unreachable tolerance — everything outside
/// the extra inner iteration cancels.
par::PerfCounters per_iteration_delta(const partition::EddPartition& part,
                                      const Vector& f, const PolySpec& poly,
                                      EddVariant variant, index_t n) {
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.restart = 25;
  opts.max_iters = n;
  const DistSolve a = solve_edd(part, f, poly, opts, variant);
  opts.max_iters = n + 1;
  const DistSolve b = solve_edd(part, f, poly, opts, variant);
  return b.rank_counters[0].delta_since(a.rank_counters[0]);
}

class EddTable1Test : public ::testing::TestWithParam<int> {};

TEST_P(EddTable1Test, ExchangesPerIterationMatchTable1) {
  // Paper Table 1: per Arnoldi iteration, Algorithm 5 does m+3 nearest-
  // neighbor exchanges, Algorithm 6 does m+1 (m = polynomial degree).
  const int m = GetParam();
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.kind = PolyKind::Gls;
  poly.degree = m;

  const par::PerfCounters basic =
      per_iteration_delta(part, prob.load, poly, EddVariant::Basic, 3);
  EXPECT_EQ(basic.neighbor_exchanges, static_cast<std::uint64_t>(m) + 3);
  EXPECT_EQ(basic.matvecs, static_cast<std::uint64_t>(m) + 1);

  const par::PerfCounters enhanced =
      per_iteration_delta(part, prob.load, poly, EddVariant::Enhanced, 3);
  EXPECT_EQ(enhanced.neighbor_exchanges, static_cast<std::uint64_t>(m) + 1);
  EXPECT_EQ(enhanced.matvecs, static_cast<std::uint64_t>(m) + 1);

  // Per the paper: one global reduction per h_ij plus one for the norm —
  // the 4th inner iteration (j = 3) performs 4 + 1 = 5.
  EXPECT_EQ(basic.global_reductions, 5u);
  EXPECT_EQ(enhanced.global_reductions, 5u);
}

INSTANTIATE_TEST_SUITE_P(Degrees, EddTable1Test, ::testing::Values(1, 3, 7));

TEST(EddSolver, NeumannExchangeCountMatchesToo) {
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 2);
  PolySpec poly;
  poly.kind = PolyKind::Neumann;
  poly.degree = 6;
  const par::PerfCounters d =
      per_iteration_delta(part, prob.load, poly, EddVariant::Enhanced, 2);
  EXPECT_EQ(d.neighbor_exchanges, 7u);
  EXPECT_EQ(d.matvecs, 7u);
}

TEST(EddSolver, SingleRankDoesNoMessaging) {
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 1);
  PolySpec poly;
  poly.degree = 7;
  const DistSolve res = solve_edd(part, prob.load, poly);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.rank_counters[0].neighbor_msgs, 0u);
  EXPECT_EQ(res.rank_counters[0].neighbor_bytes, 0u);
}

TEST(EddSolver, HigherDegreeReducesIterations) {
  // Fig. 13 behaviour on a small problem: GLS(10) needs fewer Arnoldi
  // iterations than GLS(1).
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 2);
  SolveOptions opts;
  opts.tol = 1e-6;
  PolySpec lo;
  lo.degree = 1;
  PolySpec hi;
  hi.degree = 10;
  const DistSolve r_lo = solve_edd(part, prob.load, lo, opts);
  const DistSolve r_hi = solve_edd(part, prob.load, hi, opts);
  ASSERT_TRUE(r_lo.converged && r_hi.converged);
  EXPECT_LT(r_hi.iterations, r_lo.iterations);
}

TEST(EddSolver, LocalMatrixOverrideSolvesEffectiveSystem) {
  // Override k_loc with K + a0*M subdomain matrices and verify the
  // solution solves the global effective system.
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 3);
  const real_t a0 = 12.5;

  std::vector<sparse::CsrMatrix> eff;
  for (int s = 0; s < part.nparts(); ++s) {
    sparse::CsrMatrix ke = part.subs[static_cast<std::size_t>(s)].k_loc;
    const sparse::CsrMatrix ml = partition::assemble_edd_local(
        prob.mesh, prob.dofs, prob.material, fem::Operator::Mass, part, s);
    ke.add_same_pattern(ml, a0);
    eff.push_back(std::move(ke));
  }

  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-10;
  const DistSolve res = solve_edd(part, prob.load, poly, opts,
                                        EddVariant::Enhanced, &eff);
  ASSERT_TRUE(res.converged);

  sparse::CsrMatrix k_eff = prob.stiffness;
  k_eff.add_same_pattern(prob.assemble_mass(), a0);
  Vector check(res.x.size());
  k_eff.spmv(res.x, check);
  const real_t fscale = la::nrm_inf(prob.load);
  for (std::size_t i = 0; i < check.size(); ++i)
    EXPECT_NEAR(check[i], prob.load[i], 1e-6 * fscale);
}

TEST(EddSolver, ThetaSensitivityAffectsConvergence) {
  // Fig. 10: a Θ that misses the actual spectrum degrades convergence
  // relative to Θ = (ε, 1).
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 2);
  SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 20000;

  PolySpec good;
  good.degree = 10;  // Θ defaults to (ε, 1)
  PolySpec bad;
  bad.degree = 10;
  bad.theta = {{0.5, 1.0}};  // misses the low end of the spectrum
  const DistSolve r_good = solve_edd(part, prob.load, good, opts);
  const DistSolve r_bad = solve_edd(part, prob.load, bad, opts);
  ASSERT_TRUE(r_good.converged);
  ASSERT_TRUE(r_bad.converged);
  EXPECT_LE(r_good.iterations, r_bad.iterations);
}

TEST(EddSolver, RunsAreBitwiseDeterministic) {
  // The deterministic allreduce and the rank-ordered exchange make a
  // distributed solve independent of thread scheduling: two runs must
  // produce bit-identical solutions (the property EDD-PCG relies on).
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 8);
  PolySpec poly;
  poly.degree = 7;
  SolveOptions opts;
  opts.tol = 1e-9;
  const DistSolve a = solve_edd(part, prob.load, poly, opts);
  const DistSolve b = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  for (std::size_t i = 0; i < a.x.size(); ++i)
    EXPECT_EQ(a.x[i], b.x[i]) << "bitwise mismatch at dof " << i;
}

// ---- Honest report semantics -----------------------------------------

TEST(EddSolverReport, FirstCycleConvergenceReportsZeroRestarts) {
  // A solve that converges inside its first FGMRES cycle never
  // *re*-started; it must report restarts == 0 (it used to report 1).
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 2);
  PolySpec poly;
  poly.degree = 10;
  SolveOptions opts;
  opts.tol = 1e-6;
  opts.restart = 200;  // plenty of room to finish in one cycle
  const DistSolve res = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_LE(res.iterations, 200);
  EXPECT_EQ(res.restarts, 0);
  EXPECT_FALSE(res.breakdown);
  EXPECT_FALSE(res.trivial_rhs);
}

TEST(EddSolverReport, MultiCycleSolveCountsOnlyReStarts) {
  // With restart = 2 a real solve needs several cycles; restarts must be
  // exactly ceil(iterations / 2) - 1, not one more.
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 2);
  PolySpec poly;
  poly.degree = 7;
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.restart = 2;
  opts.max_iters = 50000;
  const DistSolve res = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_GT(res.iterations, 2);
  EXPECT_EQ(res.restarts, (res.iterations - 1) / 2);
}

TEST(EddSolverReport, ZeroRhsIsTrivialNotIterated) {
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 2);
  const Vector zero(prob.load.size(), 0.0);
  PolySpec poly;
  const DistSolve res = solve_edd(part, zero, poly);
  EXPECT_TRUE(res.converged);  // x = 0 is exact
  EXPECT_TRUE(res.trivial_rhs);
  EXPECT_FALSE(res.breakdown);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_EQ(res.restarts, 0);
  EXPECT_EQ(res.final_relres, 0.0);
  for (const real_t xi : res.x) EXPECT_EQ(xi, 0.0);
}

TEST(EddSolverReport, RankDeficientBreakdownIsNotConvergence) {
  // K = [[1,1],[1,1]] is singular with b = (1,0) having a component in
  // the null space: the Arnoldi space is exhausted at iteration 2 with
  // the residual stuck near 1/sqrt(2).  The old report called that
  // "converged"; now it must say breakdown = true, converged = false.
  partition::EddPartition part;
  part.n_global = 2;
  partition::EddSubdomain sub;
  sub.local_to_global = {0, 1};
  sub.k_loc = sparse::CsrMatrix(2, 2, {0, 2, 4}, {0, 1, 0, 1},
                                {1.0, 1.0, 1.0, 1.0});
  sub.multiplicity = {1, 1};
  part.subs.push_back(std::move(sub));

  const Vector b = {1.0, 0.0};
  PolySpec poly;
  poly.kind = PolyKind::None;
  SolveOptions opts;
  opts.tol = 1e-8;
  const DistSolve res = solve_edd(part, b, poly, opts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.final_relres, 0.5);  // ~0.707, nowhere near the tol
  EXPECT_EQ(res.iterations, 2);
}

TEST(EddSolverReport, LuckyBreakdownStillReportsConvergence) {
  // On a consistent system an Arnoldi breakdown means the exact solution
  // was found: breakdown and converged are then both true.
  partition::EddPartition part;
  part.n_global = 2;
  partition::EddSubdomain sub;
  sub.local_to_global = {0, 1};
  sub.k_loc = sparse::CsrMatrix(2, 2, {0, 1, 2}, {0, 1}, {2.0, 3.0});
  sub.multiplicity = {1, 1};
  part.subs.push_back(std::move(sub));

  const Vector b = {1.0, 1.0};
  PolySpec poly;
  poly.kind = PolyKind::None;
  SolveOptions opts;
  opts.tol = 1e-12;
  const DistSolve res = solve_edd(part, b, poly, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.final_relres, 1e-12);
}

// ---- Two-level subdomain deflation -----------------------------------

TEST(EddDeflation, DeflatedSolveMatchesReference) {
  const fem::CantileverProblem prob = test_problem();
  const Vector x_ref = reference_solution(prob);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 7;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.deflation.enabled = true;
  for (const EddVariant variant : {EddVariant::Basic, EddVariant::Enhanced}) {
    const DistSolve res =
        solve_edd(part, prob.load, poly, opts, variant);
    ASSERT_TRUE(res.converged);
    const real_t scale = la::nrm_inf(x_ref);
    for (std::size_t i = 0; i < x_ref.size(); ++i)
      EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
    for (const auto& c : res.rank_counters)
      EXPECT_GT(c.coarse_solves, 0u);
  }
}

TEST(EddDeflation, DeflatedRunsAreBitwiseDeterministic) {
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 8);
  PolySpec poly;
  poly.degree = 7;
  SolveOptions opts;
  opts.tol = 1e-9;
  opts.deflation.enabled = true;
  const DistSolve a = solve_edd(part, prob.load, poly, opts);
  const DistSolve b = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  for (std::size_t i = 0; i < a.x.size(); ++i)
    EXPECT_EQ(a.x[i], b.x[i]) << "bitwise mismatch at dof " << i;
}

TEST(EddDeflation, PerIterationCostsExtendTable1) {
  // The coarse correction adds, per Arnoldi iteration: ONE small
  // allreduce (the coarse residual) and ONE extra mat-vec (A Z y).  Zy
  // is globally consistent by construction, so the Basic discipline
  // needs no extra exchange (m+3 stays m+3) while Enhanced globalizes
  // its extra mat-vec with one (m+1 becomes m+2).
  const int m = 3;
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.kind = PolyKind::Gls;
  poly.degree = m;

  SolveOptions opts;
  opts.tol = 1e-300;
  opts.restart = 25;
  auto delta = [&](EddVariant variant, index_t n) {
    opts.deflation.enabled = true;
    opts.max_iters = n;
    const DistSolve a = solve_edd(part, prob.load, poly, opts, variant);
    opts.max_iters = n + 1;
    const DistSolve b = solve_edd(part, prob.load, poly, opts, variant);
    return b.rank_counters[0].delta_since(a.rank_counters[0]);
  };

  const par::PerfCounters basic = delta(EddVariant::Basic, 3);
  EXPECT_EQ(basic.neighbor_exchanges, static_cast<std::uint64_t>(m) + 3);
  EXPECT_EQ(basic.matvecs, static_cast<std::uint64_t>(m) + 2);
  EXPECT_EQ(basic.coarse_solves, 1u);
  EXPECT_EQ(basic.global_reductions, 6u);  // 5 (Table 1 at j=3) + coarse

  const par::PerfCounters enhanced = delta(EddVariant::Enhanced, 3);
  EXPECT_EQ(enhanced.neighbor_exchanges, static_cast<std::uint64_t>(m) + 2);
  EXPECT_EQ(enhanced.matvecs, static_cast<std::uint64_t>(m) + 2);
  EXPECT_EQ(enhanced.coarse_solves, 1u);
  EXPECT_EQ(enhanced.global_reductions, 6u);
}

TEST(EddSolver, SetupCountersAreSubsetOfTotals) {
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 7;
  const DistSolve res = solve_edd(part, prob.load, poly);
  ASSERT_EQ(res.setup_counters.size(), res.rank_counters.size());
  for (std::size_t r = 0; r < res.rank_counters.size(); ++r) {
    EXPECT_LE(res.setup_counters[r].flops, res.rank_counters[r].flops);
    EXPECT_LE(res.setup_counters[r].neighbor_exchanges,
              res.rank_counters[r].neighbor_exchanges);
    // Setup performs exactly one exchange (the row-norm sum, Alg. 3).
    EXPECT_EQ(res.setup_counters[r].neighbor_exchanges, 1u);
  }
}

TEST(EddSolver, RecycleWithoutInputsMatchesStatelessSolve) {
  // A recycling solve with nothing to recycle is the stateless solve:
  // same engine, same variant, same per-coefficient reductions, and the
  // same counter contract (setup included in rank_counters).
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 5;
  for (const EddVariant variant : {EddVariant::Basic, EddVariant::Enhanced}) {
    SolveOptions opts;
    opts.restart = 8;  // several cycles
    const DistSolve plain = solve_edd(part, prob.load, poly, opts, variant);
    opts.recycle.enabled = true;
    const DistSolve recyc = solve_edd(part, prob.load, poly, opts, variant);
    ASSERT_TRUE(plain.converged && recyc.converged);
    EXPECT_GT(plain.restarts, 0);
    EXPECT_EQ(recyc.iterations, plain.iterations);
    EXPECT_EQ(recyc.restarts, plain.restarts);
    EXPECT_EQ(recyc.history, plain.history);
    EXPECT_EQ(recyc.x, plain.x);
    ASSERT_EQ(recyc.rank_counters.size(), plain.rank_counters.size());
    for (std::size_t r = 0; r < plain.rank_counters.size(); ++r) {
      EXPECT_EQ(recyc.rank_counters[r].neighbor_exchanges,
                plain.rank_counters[r].neighbor_exchanges)
          << "rank " << r;
      EXPECT_EQ(recyc.rank_counters[r].global_reductions,
                plain.rank_counters[r].global_reductions)
          << "rank " << r;
    }
  }
}

TEST(EddSolver, RecyclingWarmStartsEitherVariant) {
  // Sessions ride on the one engine in both disciplines: harvested cycle
  // increments gather to the solution (Basic's are local-format pieces),
  // and feeding them back warm-starts a drifted solve.
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 5;
  for (const EddVariant variant : {EddVariant::Basic, EddVariant::Enhanced}) {
    SolveOptions opts;
    opts.restart = 10;
    opts.recycle.enabled = true;
    opts.recycle.harvest = true;
    const DistSolve cold = solve_edd(part, prob.load, poly, opts, variant);
    ASSERT_TRUE(cold.converged);
    ASSERT_EQ(cold.recycled.size(),
              static_cast<std::size_t>(cold.restarts) + 1);
    ASSERT_LE(cold.recycled.size(),
              static_cast<std::size_t>(opts.recycle.max_directions));
    // From a zero start the cycle increments sum to the solution.
    Vector sum(cold.x.size(), 0.0);
    for (const Vector& dir : cold.recycled) la::axpy(1.0, dir, sum);
    const real_t scale = la::nrm_inf(cold.x);
    for (std::size_t i = 0; i < sum.size(); ++i)
      ASSERT_NEAR(sum[i], cold.x[i], 1e-10 * scale) << "dof " << i;

    Vector f = prob.load;
    for (real_t& v : f) v *= 1.05;
    auto in = std::make_shared<std::vector<RecycleIn>>(1);
    (*in)[0].x0 = cold.x;
    (*in)[0].directions = cold.recycled;
    opts.recycle.harvest = false;
    opts.recycle.in = in;
    const DistSolve warm = solve_edd(part, f, poly, opts, variant);
    ASSERT_TRUE(warm.converged);
    EXPECT_LT(warm.iterations, cold.iterations);
    const Vector ref = reference_solution(prob);
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(warm.x[i], 1.05 * ref[i], 1e-4 * scale) << "dof " << i;
  }
}

}  // namespace
}  // namespace pfem::core
