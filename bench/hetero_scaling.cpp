// Extension: iteration degradation of EDD-FGMRES-GLS under coefficient
// jumps, and what the jump-aware coarse space buys back.
//
// The hetero2d family (fem/families.hpp) puts a kappa-jump checkerboard
// across the partition interfaces of a Table-2-sized mesh (Mesh5 =
// 60x60) at P = 8.  Norm-1 scaling keeps sigma(A-hat) in (0, 1], but a
// jump of 10^4 pushes a cluster of eigenvalues toward 0 and one-level
// GLS stalls on them.  The sweep records iterations vs jump for
//   - polynomial degree m in {4, 7} on the default Theta and GLS(7) on
//     a truncated Theta = [0.01, 1] (the Eq.-18 knob a user would reach
//     for first — and the wrong tool for jumps);
//   - deflation off / standard coordinate coarse space / the jump-aware
//     coefficient-split coarse space (DESIGN.md §14).
//
// Jump patterns: `aligned` puts the interface on the x = lx/2 plane
// (coincides with RCB's first cut — every patch single-class),
// `checker3` a 3x3 checkerboard whose block boundaries (20, 40) miss
// every binary RCB cut (15, 30, 45) — each subdomain straddles both
// classes, the regime the class split is for — and `checker4` a 4x4
// board with several same-class blocks per subdomain (disconnected
// class components per patch: the documented worst case a
// one-vector-per-class space cannot fully cover, see EXPERIMENTS.md).
//
// Acceptance gate (run_paper_full.sh): with GLS(7) on the default
// Theta on the misaligned checker3 pattern, jump-aware deflation at
// jump = 10^4 must hold within kMaxGrowth = 1.5x the homogeneous
// (jump = 1) standard-deflation count.  --json=PATH records the sweep
// (BENCH_hetero.json).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/edd_solver.hpp"
#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/families.hpp"

namespace {

constexpr double kMaxGrowth = 1.5;
constexpr int kParts = 8;

struct Config {
  const char* name;
  int degree;
  pfem::core::Theta theta;
};

struct Variant {
  const char* name;
  bool deflate;
  bool jump_aware;
};

struct Pattern {
  const char* name;
  bool aligned;
  pfem::index_t checker;
};

struct Point {
  const char* config;
  const char* pattern;
  const char* variant;
  double jump;
  pfem::index_t n_eqn = 0;
  pfem::index_t iters = 0;
  pfem::index_t ncoarse = 0;
  bool converged = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pfem;
  bench::full_run(argc, argv);  // accepted for uniformity; sweep is fixed
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a.rfind("--json=", 0) == 0) json_path = a.substr(7);
  }

  exp::banner(std::cout,
              "Extension — heterogeneous diffusion (hetero2d checkerboard, "
              "Mesh5-sized, P = 8): iterations vs jump");

  const std::vector<Config> configs = {
      {"gls4", 4, core::default_theta_after_scaling()},
      {"gls7", 7, core::default_theta_after_scaling()},
      {"gls7_theta.01", 7, {{0.01, 1.0}}},
  };
  const std::vector<Variant> variants = {
      {"off", false, false},
      {"deflated", true, false},
      {"jump_aware", true, true},
  };
  const std::vector<Pattern> patterns = {
      {"aligned", true, 4},
      {"checker3", false, 3},
      {"checker4", false, 4},
  };
  const std::vector<double> jumps = {1.0, 1.0e2, 1.0e4};

  std::vector<Point> pts;
  index_t ref_iters = 0;   // homogeneous, standard deflation, gls7
  index_t gate_iters = 0;  // jump 1e4, jump-aware, gls7
  bool gate_runs_ok = true;

  for (const Config& cfg : configs) {
    core::PolySpec poly;
    poly.kind = core::PolyKind::Gls;
    poly.degree = cfg.degree;
    poly.theta = cfg.theta;

    for (const Pattern& pat : patterns) {
      for (double jump : jumps) {
        fem::ProblemSpec spec = fem::default_spec("hetero2d");
        spec.nx = 60;
        spec.ny = 60;  // Table-2 Mesh5 size
        spec.jump = jump;
        spec.aligned = pat.aligned;
        spec.checker = pat.checker;
        const fem::FamilyProblem fp = fem::make_problem(spec);
        const partition::EddPartition part = exp::make_edd(fp, kParts);

        for (const Variant& v : variants) {
          core::SolveOptions opts;
          opts.tol = 1e-6;
          opts.max_iters = 60000;
          if (v.deflate)
            opts.deflation = exp::family_deflation(fp, v.jump_aware);

          const core::DistSolve r =
              core::solve_edd(part, fp.prob.load, poly, opts);
          Point p;
          p.config = cfg.name;
          p.pattern = pat.name;
          p.variant = v.name;
          p.jump = jump;
          p.n_eqn = fp.prob.dofs.num_free();
          p.iters = r.iterations;
          p.converged = r.converged;
          // ncoarse = P * nclasses * nbasis({1,x,y}) * components(1).
          if (v.deflate)
            p.ncoarse = static_cast<index_t>(kParts) * (v.jump_aware ? 2 : 1) *
                        (fp.coord_dim + 1) * fp.components;
          pts.push_back(p);

          const bool gate_cfg = std::string(cfg.name) == "gls7" &&
                                std::string(pat.name) == "checker3";
          if (gate_cfg && jump == 1.0 && v.deflate && !v.jump_aware) {
            ref_iters = r.iterations;
            gate_runs_ok = gate_runs_ok && r.converged;
          }
          if (gate_cfg && jump == 1.0e4 && v.jump_aware) {
            gate_iters = r.iterations;
            gate_runs_ok = gate_runs_ok && r.converged;
          }
        }
      }
    }
  }

  exp::Table table({"config", "pattern", "jump", "variant", "nEqn", "dim(E)",
                    "iterations", "converged"});
  for (const Point& p : pts)
    table.add_row({p.config, p.pattern, exp::Table::sci(p.jump, 0), p.variant,
                   exp::Table::integer(p.n_eqn), exp::Table::integer(p.ncoarse),
                   exp::Table::integer(p.iters), p.converged ? "yes" : "no"});
  table.print(std::cout);

  const double growth =
      ref_iters > 0
          ? static_cast<double>(gate_iters) / static_cast<double>(ref_iters)
          : 0.0;
  const bool pass = gate_runs_ok && ref_iters > 0 && growth <= kMaxGrowth;
  std::printf(
      "\njump-aware @ jump 1e4: %zu iters vs homogeneous deflated %zu "
      "(growth %.2fx, gate <= %.1fx) — %s\n",
      static_cast<std::size_t>(gate_iters),
      static_cast<std::size_t>(ref_iters), growth, kMaxGrowth,
      pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\n  \"bench\": \"hetero_scaling\",\n"
        << "  \"family\": \"hetero2d\",\n  \"mesh\": \"60x60\",\n"
        << "  \"nprocs\": " << kParts << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Point& p = pts[i];
      out << "    {\"config\": \"" << p.config << "\", \"pattern\": \""
          << p.pattern << "\", \"jump\": " << p.jump << ", \"variant\": \""
          << p.variant << "\", \"n_eqn\": " << p.n_eqn
          << ", \"coarse_dim\": " << p.ncoarse
          << ", \"iterations\": " << p.iters
          << ", \"converged\": " << (p.converged ? "true" : "false") << "}"
          << (i + 1 < pts.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"ref_iters\": " << ref_iters
        << ",\n  \"gate_iters\": " << gate_iters
        << ",\n  \"growth\": " << growth
        << ",\n  \"max_growth\": " << kMaxGrowth
        << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::printf("hetero sweep written to %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
