// SELL-C-σ kernel-layer property tests.
//
// The contract under test is *bit*-identity: the SELL layout (per-entry
// and node-block chunks, every SIMD body), the build-time D K D fold,
// the interior/interface row split and the overlapped distributed apply
// must all reproduce the scalar-CSR reference to the last ulp, across
// the synthetic generator family, 2-dof elasticity rank operators, every
// vector-friendly chunk width, and the empty-row / tiny-matrix edge
// cases.  Every comparison below is exact double equality on purpose.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"

#include "core/cg.hpp"
#include "core/edd_batch.hpp"
#include "core/edd_solver.hpp"
#include "core/kernels.hpp"
#include "exp/experiments.hpp"
#include "fem/assembly.hpp"
#include "fem/families.hpp"
#include "fem/problems.hpp"
#include "fem/structured.hpp"
#include "sparse/ebe_store.hpp"
#include "sparse/generators.hpp"
#include "sparse/sell.hpp"

namespace pfem {
namespace {

using core::KernelOptions;
using core::RankKernel;
using sparse::CsrMatrix;
using sparse::SellMatrix;

// Deterministic pseudo-random vector with sign changes and a spread of
// magnitudes (splitmix64-driven).
Vector test_vector(std::size_t n, std::uint64_t seed) {
  Vector x(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
    x[i] = (u - 0.5) * std::pow(10.0, static_cast<double>(i % 7) - 3.0);
  }
  return x;
}

/// Matrix with empty rows (including the first and last), single-entry
/// rows and one dense-ish row — the padding edge cases.
CsrMatrix ragged_matrix() {
  const index_t n = 13;
  std::vector<std::vector<std::pair<index_t, real_t>>> rows(
      static_cast<std::size_t>(n));
  rows[1] = {{0, 2.0}, {1, -1.0}, {5, 0.25}};
  rows[3] = {{3, 4.0}};
  rows[5] = {{0, 1.0}, {2, -2.0}, {4, 3.0}, {6, -4.0}, {8, 5.0},
             {10, -6.0}, {12, 7.0}};
  rows[6] = {{6, 1.5}};
  rows[10] = {{9, -0.5}, {10, 8.0}, {11, -0.5}};
  IndexVector rp(static_cast<std::size_t>(n) + 1, 0);
  IndexVector ci;
  Vector vals;
  for (index_t i = 0; i < n; ++i) {
    for (const auto& [c, v] : rows[static_cast<std::size_t>(i)]) {
      ci.push_back(c);
      vals.push_back(v);
    }
    rp[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(ci.size());
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
}

/// Rows in identical pairs, the first pair of odd length 3, with
/// columns that keep the (c, c+1) pattern across the row end into the
/// next row: a node-block test that ignored the length would take it.
CsrMatrix odd_pair_matrix() {
  const std::vector<std::vector<index_t>> cols = {
      {1, 2, 0}, {1, 2, 0}, {1, 2}, {1, 2},
      {3, 4},    {3, 4},    {5, 6}, {5, 6}};
  IndexVector rp(1, 0);
  IndexVector ci;
  Vector vals;
  for (const auto& row : cols) {
    for (const index_t c : row) {
      ci.push_back(c);
      vals.push_back(1.0 + 0.25 * static_cast<real_t>(ci.size()));
    }
    rp.push_back(static_cast<index_t>(ci.size()));
  }
  return CsrMatrix(8, 8, std::move(rp), std::move(ci), std::move(vals));
}

std::vector<CsrMatrix> matrix_family() {
  std::vector<CsrMatrix> fam;
  fam.push_back(sparse::laplace2d(7, 5));
  fam.push_back(sparse::laplace2d(16, 16));
  fam.push_back(sparse::random_spd(97, 5));
  fam.push_back(sparse::tridiag(33, 4.0, -1.0));
  Vector eig(24);
  for (std::size_t i = 0; i < eig.size(); ++i)
    eig[i] = 0.5 + static_cast<real_t>(i);
  fam.push_back(sparse::diagonal_matrix(eig));
  fam.push_back(sparse::convection_diffusion_2d(9, 11, 8.0, -3.0));
  fam.push_back(ragged_matrix());
  fam.push_back(odd_pair_matrix());
  fam.push_back(sparse::tridiag(1, 3.0, 0.0));  // single row
  fam.push_back(sparse::tridiag(3, 3.0, -1.0));  // n < every chunk width
  fam.push_back(sparse::tridiag(8, 3.0, -1.0));  // n == default chunk
  return fam;
}

const int kChunks[] = {4, 8, 16, 0};  // 0 = platform default

TEST(SellSpmv, BitIdenticalToCsrAcrossFamilyAndChunks) {
  for (const CsrMatrix& a : matrix_family()) {
    const std::size_t n = static_cast<std::size_t>(a.rows());
    const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 17);
    Vector y_ref(n, 0.0), y(n, 0.0);
    a.spmv(x, y_ref);
    for (const int c : kChunks) {
      const SellMatrix s = SellMatrix::from_csr(a, c);
      EXPECT_EQ(s.nnz(), a.nnz());
      la::fill(y, 0.0);
      s.spmv(x, y);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(y[i], y_ref[i]) << "row " << i << " chunk " << c;
    }
  }
}

TEST(SellSpmv, SpmvAddBitIdenticalToCsr) {
  for (const CsrMatrix& a : matrix_family()) {
    const std::size_t n = static_cast<std::size_t>(a.rows());
    const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 23);
    Vector y_ref = test_vector(n, 29);
    Vector y = y_ref;
    a.spmv_add(x, y_ref);
    const SellMatrix s = SellMatrix::from_csr(a, 8);
    s.spmv_add(x, y);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y[i], y_ref[i]);
  }
}

TEST(SellSpmv, RoundTripsToCsrExactly) {
  for (const CsrMatrix& a : matrix_family()) {
    for (const int c : kChunks) {
      const CsrMatrix back = SellMatrix::from_csr(a, c).to_csr();
      ASSERT_EQ(back.rows(), a.rows());
      ASSERT_EQ(back.cols(), a.cols());
      ASSERT_EQ(back.nnz(), a.nnz());
      const auto rp = a.row_ptr(), rp2 = back.row_ptr();
      const auto ci = a.col_idx(), ci2 = back.col_idx();
      const auto v = a.values(), v2 = back.values();
      for (std::size_t k = 0; k < rp.size(); ++k) ASSERT_EQ(rp2[k], rp[k]);
      for (std::size_t k = 0; k < ci.size(); ++k) ASSERT_EQ(ci2[k], ci[k]);
      for (std::size_t k = 0; k < v.size(); ++k) ASSERT_EQ(v2[k], v[k]);
    }
  }
}

TEST(SellSpmv, RowSubsetBlocksComposeToFullApply) {
  for (const CsrMatrix& a : matrix_family()) {
    const index_t n = a.rows();
    IndexVector even, odd, none;
    for (index_t i = 0; i < n; ++i) ((i % 2 == 0) ? even : odd).push_back(i);
    const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 37);
    Vector y_ref(static_cast<std::size_t>(n), 0.0);
    a.spmv(x, y_ref);

    const SellMatrix se = SellMatrix::from_csr_rows(a, even, 8);
    const SellMatrix so = SellMatrix::from_csr_rows(a, odd, 8);
    const SellMatrix s0 = SellMatrix::from_csr_rows(a, none, 8);
    EXPECT_EQ(se.nnz() + so.nnz(), a.nnz());
    EXPECT_EQ(s0.nnz(), 0);
    Vector y(static_cast<std::size_t>(n), 0.0);
    se.spmv(x, y);
    so.spmv(x, y);
    s0.spmv(x, y);  // no-op on empty subset
    for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], y_ref[i]);
  }
}

// ---- Node-block chunks: 2-dof elasticity operators, whose lane pairs
// qualify for the one-column-per-2x2-block layout, must stay exact in
// every apply form and kernel body; operators that do not qualify must
// fall back chunk by chunk.

/// A converted operator: `a` with only `rows` stored (all rows when
/// `rows` is empty).
struct ElasticityCase {
  std::string name;
  std::shared_ptr<const CsrMatrix> a;
  IndexVector rows;
};

/// Interior rows (not interface and coupled to no interface column) and
/// the rest — the same split RankKernel builds with overlap on.
void split_rows(const CsrMatrix& a, std::span<const index_t> iface,
                IndexVector& interior, IndexVector& coupled) {
  std::vector<char> is_iface(static_cast<std::size_t>(a.rows()), 0);
  for (const index_t i : iface) is_iface[static_cast<std::size_t>(i)] = 1;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (index_t i = 0; i < a.rows(); ++i) {
    bool inner = is_iface[static_cast<std::size_t>(i)] == 0;
    for (index_t k = rp[i]; inner && k < rp[i + 1]; ++k)
      inner = is_iface[static_cast<std::size_t>(ci[k])] == 0;
    (inner ? interior : coupled).push_back(i);
  }
}

/// The rank operators of `part`: full, coupled and interior per rank.
void add_rank_cases(const std::string& tag,
                    const partition::EddPartition& part,
                    std::vector<ElasticityCase>& out) {
  for (int r = 0; r < part.nparts(); ++r) {
    const auto& sub = part.subs[static_cast<std::size_t>(r)];
    auto a = std::make_shared<const CsrMatrix>(sub.k_loc);
    IndexVector interior, coupled;
    split_rows(*a, sub.interface_local_dofs, interior, coupled);
    const std::string rank = tag + " rank " + std::to_string(r);
    out.push_back({rank + " full", a, {}});
    out.push_back({rank + " coupled", a, coupled});
    out.push_back({rank + " interior", a, interior});
  }
}

/// Q4 plate whose x = 0 edge is on rollers (only the x component fixed)
/// and whose corner node is pinned: the lone free y dofs shift the
/// node-major pairing and the rows next to the rollers have odd length.
CsrMatrix roller_plate() {
  const fem::Mesh mesh = fem::structured_quad(9, 5, 9.0, 5.0);
  fem::DofMap dofs(mesh.num_nodes(), 2);
  const IndexVector edge = mesh.nodes_at_x(0.0);
  for (const index_t n : edge) dofs.fix(n, 0);
  dofs.fix(edge.front(), 1);
  dofs.finalize();
  return fem::assemble(mesh, dofs, fem::Material{}, fem::Operator::Stiffness);
}

const std::vector<ElasticityCase>& elasticity_cases() {
  static const std::vector<ElasticityCase> cases = [] {
    std::vector<ElasticityCase> c;
    add_rank_cases("Mesh10 P=4",
                   exp::make_edd(fem::make_table2_cantilever(10), 4), c);
    fem::CantileverSpec q8;
    q8.nx = 12;
    q8.ny = 5;
    q8.elem_type = fem::ElemType::Quad8;
    const fem::CantileverProblem q8p = fem::make_cantilever(q8);
    c.push_back({"Q8 12x5", std::make_shared<const CsrMatrix>(q8p.stiffness),
                 {}});
    add_rank_cases("Q8 12x5 P=3", exp::make_edd(q8p, 3), c);
    c.push_back({"roller plate",
                 std::make_shared<const CsrMatrix>(roller_plate()), {}});
    return c;
  }();
  return cases;
}

SellMatrix convert(const ElasticityCase& ec, int chunk) {
  return ec.rows.empty() ? SellMatrix::from_csr(*ec.a, chunk)
                         : SellMatrix::from_csr_rows(*ec.a, ec.rows, chunk);
}

/// The stored rows of `ec` (all rows when its subset is empty).
IndexVector stored_rows(const ElasticityCase& ec) {
  if (!ec.rows.empty()) return ec.rows;
  IndexVector all(static_cast<std::size_t>(ec.a->rows()));
  for (index_t i = 0; i < ec.a->rows(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  return all;
}

TEST(SellBlock, ElasticityBitIdenticalToCsr) {
  for (const ElasticityCase& ec : elasticity_cases()) {
    const CsrMatrix& a = *ec.a;
    const std::size_t n = static_cast<std::size_t>(a.rows());
    const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 53);
    const Vector y0 = test_vector(n, 59);
    Vector y_ref(n, 0.0), y_add_ref = y0;
    a.spmv(x, y_ref);
    a.spmv_add(x, y_add_ref);
    const IndexVector rows = stored_rows(ec);
    for (const int c : {4, 8, 16}) {
      const SellMatrix s = convert(ec, c);
      Vector y(n, -1.0e300), y_add = y0;
      s.spmv(x, y);
      s.spmv_add(x, y_add);
      for (const index_t r : rows) {
        ASSERT_EQ(y[r], y_ref[r]) << ec.name << " row " << r << " C=" << c;
        ASSERT_EQ(y_add[r], y_add_ref[r])
            << ec.name << " row " << r << " C=" << c;
      }
      // Rows outside the subset are left alone.
      std::size_t untouched = 0;
      for (std::size_t i = 0; i < n; ++i) untouched += y[i] == -1.0e300;
      EXPECT_EQ(untouched, n - rows.size()) << ec.name;
    }
  }
}

TEST(SellBlock, ElasticityRoundTripsToCsrExactly) {
  for (const ElasticityCase& ec : elasticity_cases()) {
    const CsrMatrix& a = *ec.a;
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    const auto v = a.values();
    for (const int c : {4, 8, 16}) {
      const CsrMatrix back = convert(ec, c).to_csr();
      ASSERT_EQ(back.rows(), a.rows());
      ASSERT_EQ(back.cols(), a.cols());
      const auto rp2 = back.row_ptr();
      const auto ci2 = back.col_idx();
      const auto v2 = back.values();
      for (const index_t r : stored_rows(ec)) {
        ASSERT_EQ(rp2[r + 1] - rp2[r], rp[r + 1] - rp[r]) << ec.name;
        for (index_t j = 0; j < rp[r + 1] - rp[r]; ++j) {
          ASSERT_EQ(ci2[rp2[r] + j], ci[rp[r] + j]) << ec.name << " C=" << c;
          ASSERT_EQ(v2[rp2[r] + j], v[rp[r] + j]) << ec.name << " C=" << c;
        }
      }
    }
  }
}

TEST(SellBlock, EverySupportedBodyBitIdentical) {
  using sparse::detail::SellBody;
  std::vector<ElasticityCase> cases = elasticity_cases();
  for (CsrMatrix& a : matrix_family())
    cases.push_back({"family", std::make_shared<const CsrMatrix>(a), {}});
  int bodies = 0;
  for (const SellBody body :
       {SellBody::Portable, SellBody::Avx2, SellBody::Avx512}) {
    if (!sparse::detail::sell_body_supported(body)) continue;
    ++bodies;
    for (const ElasticityCase& ec : cases) {
      const CsrMatrix& a = *ec.a;
      const std::size_t n = static_cast<std::size_t>(a.rows());
      const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 61);
      const Vector y0 = test_vector(n, 67);
      Vector y_ref(n, 0.0), y_add_ref = y0;
      a.spmv(x, y_ref);
      a.spmv_add(x, y_add_ref);
      const SellMatrix s = convert(ec, 8);
      Vector y(n, 0.0), y_add = y0;
      sparse::detail::sell_spmv(s, body, x, y, false);
      sparse::detail::sell_spmv(s, body, x, y_add, true);
      for (const index_t r : stored_rows(ec)) {
        ASSERT_EQ(y[r], y_ref[r])
            << ec.name << " body " << static_cast<int>(body) << " row " << r;
        ASSERT_EQ(y_add[r], y_add_ref[r])
            << ec.name << " body " << static_cast<int>(body) << " row " << r;
      }
    }
  }
  EXPECT_GE(bodies, 1);
  // The SIMD bodies cover C=8 only; asking for one at another width is
  // a typed error, not a silent fallback.
  const SellMatrix s4 = SellMatrix::from_csr(sparse::laplace2d(4, 4), 4);
  Vector x(16, 1.0), y(16, 0.0);
  for (const SellBody body : {SellBody::Avx2, SellBody::Avx512})
    EXPECT_THROW(sparse::detail::sell_spmv(s4, body, x, y, false), Error);
}

TEST(SellBlock, SplitRankKernelOnElasticityBitIdentical) {
  const partition::EddPartition part =
      exp::make_edd(fem::make_table2_cantilever(6), 4);
  for (const auto& sub : part.subs) {
    const CsrMatrix& k = sub.k_loc;
    const std::size_t n = static_cast<std::size_t>(k.rows());
    Vector d = k.row_norms1();
    for (auto& di : d) di = 1.0 / std::sqrt(di);
    CsrMatrix scaled = k;
    scaled.scale_symmetric(d);
    const Vector x = test_vector(n, 71);
    Vector y_ref(n, 0.0);
    scaled.spmv(x, y_ref);
    for (const int c : kChunks) {
      KernelOptions ko;
      ko.chunk = c;
      const RankKernel kern(k, Vector(d), sub.interface_local_dofs, ko);
      ASSERT_TRUE(kern.split());
      Vector y(n, 0.0), y2(n, -1.0e300);
      kern.apply(x, y);
      kern.apply_coupled(x, y2);
      kern.apply_interior(x, y2);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(y[i], y_ref[i]) << "dof " << i << " C=" << c;
        ASSERT_EQ(y2[i], y_ref[i]) << "dof " << i << " C=" << c;
      }
    }
  }
}

TEST(SellBlock, TableTwoRankOperatorsAreNodeBlocked) {
  // A silent fallback to per-entry columns would only show as a slower
  // benchmark; pin the layout here instead.
  for (int mesh = 2; mesh <= 10; mesh += 4) {
    std::vector<ElasticityCase> cases;
    add_rank_cases("Mesh" + std::to_string(mesh) + " P=4",
                   exp::make_edd(fem::make_table2_cantilever(mesh), 4),
                   cases);
    for (const ElasticityCase& ec : cases) {
      const SellMatrix s = convert(ec, 0);
      EXPECT_GE(static_cast<double>(s.block_chunks()),
                0.95 * static_cast<double>(s.chunks()))
          << ec.name << ": " << s.block_chunks() << " of " << s.chunks();
      // Node blocks store a quarter of the per-entry columns.
      if (s.block_chunks() == s.chunks()) {
        EXPECT_EQ(4 * s.stored_cols(), s.padded_nnz()) << ec.name;
      }
    }
  }
  // The constrained plate still has block chunks where pairing holds,
  // but its shifted and odd-length rows must fall back.
  const SellMatrix roller = SellMatrix::from_csr(roller_plate());
  EXPECT_GT(roller.block_chunks(), 0);
  EXPECT_LT(roller.block_chunks(), roller.chunks());
}

TEST(SellBlock, ScalarAndThreeDofFamiliesKeepPerEntryColumns) {
  for (const std::string fam : {"hetero2d", "brick3d"}) {
    const fem::FamilyProblem fp = fem::make_problem(fem::default_spec(fam));
    const SellMatrix g = SellMatrix::from_csr(fp.prob.stiffness);
    EXPECT_EQ(g.block_chunks(), 0) << fam;
    EXPECT_EQ(g.stored_cols(), g.padded_nnz()) << fam;
    const partition::EddPartition part = exp::make_edd(fp, 2);
    for (const auto& sub : part.subs)
      EXPECT_EQ(SellMatrix::from_csr(sub.k_loc).block_chunks(), 0) << fam;
  }
}

// ---- RankKernel: every (format, overlap) combination must agree with
// the eager-scaled CSR reference, whole-apply and split-apply alike.

TEST(RankKernelTest, AllConfigsBitIdenticalToScaledCsr) {
  const CsrMatrix k = sparse::laplace2d(11, 9);
  const std::size_t n = static_cast<std::size_t>(k.rows());
  Vector d = k.row_norms1();
  for (std::size_t i = 0; i < n; ++i) d[i] = 1.0 / std::sqrt(d[i]);
  // An arbitrary scattered "interface": every 7th dof.
  IndexVector iface;
  for (index_t i = 0; i < k.rows(); i += 7) iface.push_back(i);

  CsrMatrix scaled = k;
  scaled.scale_symmetric(d);
  const Vector x = test_vector(n, 41);
  Vector y_ref(n, 0.0);
  scaled.spmv(x, y_ref);

  for (const auto format :
       {KernelOptions::Format::Csr, KernelOptions::Format::Sell}) {
    for (const bool overlap : {false, true}) {
      for (const int c : kChunks) {
        KernelOptions ko;
        ko.format = format;
        ko.overlap = overlap;
        ko.chunk = c;
        const RankKernel a(k, Vector(d), iface, ko);
        EXPECT_EQ(a.split(), overlap);
        Vector y(n, 0.0);
        a.apply(x, y);
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y[i], y_ref[i]);
        if (a.split()) {
          // The two half-applies must partition the rows: coupled then
          // interior writes every entry exactly once.
          Vector y2(n, -1.0e300);
          a.apply_coupled(x, y2);
          a.apply_interior(x, y2);
          for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y2[i], y_ref[i]);
        }
      }
    }
  }

  // No interface dofs => never split, regardless of the overlap knob.
  const RankKernel whole(k, Vector(d), IndexVector{},
                         KernelOptions{KernelOptions::Format::Sell, true});
  EXPECT_FALSE(whole.split());
}

// ---- Distributed: kernel format and exchange overlap are bit-neutral
// for every solver path, and leave the Table-1 exchange counts alone.

std::vector<KernelOptions> kernel_configs() {
  std::vector<KernelOptions> cfgs;
  for (const auto format :
       {KernelOptions::Format::Csr, KernelOptions::Format::Sell})
    for (const bool overlap : {false, true}) {
      KernelOptions ko;
      ko.format = format;
      ko.overlap = overlap;
      cfgs.push_back(ko);
    }
  return cfgs;
}

TEST(DistKernels, SolveEddBitNeutralAcrossKernelConfigs) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  for (const auto variant :
       {core::EddVariant::Basic, core::EddVariant::Enhanced}) {
    std::vector<core::DistSolve> runs;
    for (const KernelOptions& ko : kernel_configs()) {
      core::SolveOptions opts;
      opts.tol = 1e-8;
      opts.kernels = ko;
      runs.push_back(solve_edd(part, prob.load, poly, opts, variant));
      ASSERT_TRUE(runs.back().converged);
    }
    const core::DistSolve& ref = runs.front();
    for (std::size_t r = 1; r < runs.size(); ++r) {
      EXPECT_EQ(runs[r].iterations, ref.iterations);
      ASSERT_EQ(runs[r].history.size(), ref.history.size());
      for (std::size_t i = 0; i < ref.history.size(); ++i)
        ASSERT_EQ(runs[r].history[i], ref.history[i]) << "iteration " << i;
      ASSERT_EQ(runs[r].x.size(), ref.x.size());
      for (std::size_t i = 0; i < ref.x.size(); ++i)
        ASSERT_EQ(runs[r].x[i], ref.x[i]) << "dof " << i;
      // Overlap restructures each exchange but never adds or drops one.
      ASSERT_EQ(runs[r].rank_counters.size(), ref.rank_counters.size());
      for (std::size_t s = 0; s < ref.rank_counters.size(); ++s)
        EXPECT_EQ(runs[r].rank_counters[s].neighbor_exchanges,
                  ref.rank_counters[s].neighbor_exchanges);
    }
  }
}

TEST(DistKernels, SolveEddCgBitNeutralAcrossKernelConfigs) {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 3);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  std::vector<core::DistSolve> runs;
  for (const KernelOptions& ko : kernel_configs()) {
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ko;
    runs.push_back(core::solve_edd_cg(part, prob.load, poly, opts));
    ASSERT_TRUE(runs.back().converged);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].history.size(), runs[0].history.size());
    for (std::size_t i = 0; i < runs[0].history.size(); ++i)
      ASSERT_EQ(runs[r].history[i], runs[0].history[i]);
    for (std::size_t i = 0; i < runs[0].x.size(); ++i)
      ASSERT_EQ(runs[r].x[i], runs[0].x[i]);
  }
}

TEST(DistKernels, BatchSolveBitNeutralAcrossKernelConfigs) {
  fem::CantileverSpec spec;
  spec.nx = 9;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const int p = 3;
  const partition::EddPartition part = exp::make_edd(prob, p);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  std::vector<Vector> rhs;
  rhs.push_back(Vector(prob.load.begin(), prob.load.end()));
  rhs.push_back(test_vector(prob.load.size(), 47));

  par::Team team(p);
  std::vector<core::BatchSolveResult> runs;
  for (const KernelOptions& ko : kernel_configs()) {
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ko;
    const core::EddOperatorState op =
        core::build_edd_operator(team, part, poly, nullptr, nullptr, ko);
    runs.push_back(core::solve_edd_batch(team, part, op, rhs, opts));
    ASSERT_TRUE(runs.back().comm_error.empty());
    for (const auto& item : runs.back().items)
      ASSERT_TRUE(item.converged);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].x.size(), runs[0].x.size());
    for (std::size_t b = 0; b < runs[0].x.size(); ++b) {
      for (std::size_t i = 0; i < runs[0].x[b].size(); ++i)
        ASSERT_EQ(runs[r].x[b][i], runs[0].x[b][i])
            << "rhs " << b << " dof " << i;
      ASSERT_EQ(runs[r].items[b].history.size(),
                runs[0].items[b].history.size());
      for (std::size_t i = 0; i < runs[0].items[b].history.size(); ++i)
        ASSERT_EQ(runs[r].items[b].history[i],
                  runs[0].items[b].history[i]);
    }
  }
}

// ---- EbeStore: the matrix-free element container under Format::Ebe.
// Bit-identity with assembled CSR cannot hold for a general mesh (the
// element sweep reassociates row sums), so the exact tests use shapes
// where the accumulation order coincides — a single dense element — and
// the distributed tests check the format-neutral invariants instead:
// identical iteration counts, identical exchange counters, ulp-bounded
// solutions.

/// One dense element covering every dof: the EBE sweep's per-row
/// accumulation runs in ascending column order, exactly like the CSR row
/// loop, so apply and scaling must match bit for bit.
sparse::EbeStore dense_single_element(const la::DenseMatrix& ke) {
  IndexVector ids(static_cast<std::size_t>(ke.rows()));
  for (index_t i = 0; i < ke.rows(); ++i)
    ids[static_cast<std::size_t>(i)] = i;
  const auto data = ke.data();
  return sparse::EbeStore(ke.rows(), ke.rows(), std::move(ids),
                          std::vector<real_t>(data.begin(), data.end()));
}

la::DenseMatrix dense_test_matrix(index_t n, std::uint64_t seed) {
  la::DenseMatrix m(n, n);
  const Vector v = test_vector(static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(n),
                               seed);
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c)
      m(r, c) = v[static_cast<std::size_t>(r) * n + c] +
                (r == c ? 10.0 : 0.0);
  return m;
}

CsrMatrix csr_from_dense(const la::DenseMatrix& m) {
  const index_t n = m.rows();
  IndexVector rp(static_cast<std::size_t>(n) + 1, 0);
  IndexVector ci;
  Vector vals;
  for (index_t r = 0; r < n; ++r) {
    for (index_t c = 0; c < n; ++c) {
      ci.push_back(c);
      vals.push_back(m(r, c));
    }
    rp[static_cast<std::size_t>(r) + 1] = as_index(ci.size());
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
}

TEST(EbeStore, SingleDenseElementApplyBitIdenticalToCsr) {
  const index_t n = 12;
  const la::DenseMatrix ke = dense_test_matrix(n, 53);
  const sparse::EbeStore store = dense_single_element(ke);
  const CsrMatrix a = csr_from_dense(ke);
  const Vector x = test_vector(static_cast<std::size_t>(n), 59);
  Vector y_ref(static_cast<std::size_t>(n), 0.0);
  a.spmv(x, y_ref);
  Vector y(static_cast<std::size_t>(n), 0.0);
  store.apply_add(0, store.num_elems(), x, y);
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], y_ref[i]);
}

TEST(EbeStore, ScaleFoldBitIdenticalToCsrScaleSymmetric) {
  const index_t n = 9;
  const la::DenseMatrix ke = dense_test_matrix(n, 61);
  sparse::EbeStore store = dense_single_element(ke);
  CsrMatrix a = csr_from_dense(ke);
  Vector d = a.row_norms1();
  for (auto& v : d) v = 1.0 / std::sqrt(v);
  a.scale_symmetric(d);
  store.scale_symmetric(d);
  const auto ref = a.values();
  const auto got = store.values();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(got[k], ref[k]) << "entry " << k;
}

TEST(EbeStore, ConstructionRejectsMalformedInput) {
  // edofs outside [1, kMaxEbeElemDofs].
  EXPECT_THROW(sparse::EbeStore(4, 0, IndexVector{}, {}), Error);
  EXPECT_THROW(sparse::EbeStore(4, sparse::kMaxEbeElemDofs + 1,
                                IndexVector{}, {}),
               Error);
  // dof_ids not a multiple of edofs.
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, 1, 2}, Vector(4, 0.0)),
               Error);
  // values size mismatch.
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, 1}, Vector(3, 0.0)),
               Error);
  // Out-of-bounds dof id, and an id below the -1 marker.
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, 4}, Vector(4, 0.0)),
               Error);
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, -2}, Vector(4, 0.0)),
               Error);
  // Valid: constrained markers and an empty store.
  EXPECT_NO_THROW(sparse::EbeStore(4, 2, IndexVector{-1, 3}, Vector(4, 1.0)));
  EXPECT_NO_THROW(sparse::EbeStore(0, 2, IndexVector{}, {}));
}

TEST(EbeStore, PermutedRejectsNonPermutations) {
  const la::DenseMatrix ke = dense_test_matrix(3, 67);
  const sparse::EbeStore store = dense_single_element(ke);
  const IndexVector dup = {0, 0};
  const IndexVector oob = {1};
  EXPECT_THROW((void)store.permuted(dup), Error);
  EXPECT_THROW((void)store.permuted(oob), Error);
  const IndexVector id_order = {0};
  const sparse::EbeStore same = store.permuted(id_order);
  EXPECT_EQ(same.num_elems(), store.num_elems());
}

// ---- RankKernel Format::Ebe: built from a real partition's element
// store, checked against the scalar-CSR kernel.

struct EbeFixture {
  fem::CantileverProblem prob;
  partition::EddPartition part;
  EbeFixture() : prob(fem::make_cantilever(make_spec())),
                 part(exp::make_edd(prob, 4)) {}
  static fem::CantileverSpec make_spec() {
    fem::CantileverSpec s;
    s.nx = 10;
    s.ny = 5;
    return s;
  }
};

/// Local positive scaling for kernel-level tests (the solver's d is
/// globally exchanged; any positive diagonal exercises the contract).
Vector local_scaling(const CsrMatrix& k) {
  Vector d = k.row_norms1();
  for (auto& v : d) v = v > 0.0 ? 1.0 / std::sqrt(v) : 1.0;
  return d;
}

TEST(RankKernelEbe, HalvesComposeBitwiseToWholeApply) {
  const EbeFixture fx;
  for (const auto& sub : fx.part.subs) {
    ASSERT_NE(sub.elem_store, nullptr);
    const Vector d = local_scaling(sub.k_loc);
    KernelOptions ko;
    ko.format = KernelOptions::Format::Ebe;
    ko.overlap = true;
    const RankKernel a(sub.k_loc, Vector(d), sub.interface_local_dofs, ko,
                       sub.elem_store.get());
    ASSERT_TRUE(a.additive());
    const std::size_t n = static_cast<std::size_t>(sub.n_local());
    const Vector x = test_vector(n, 71);
    Vector y_whole(n, 0.0), y_split(n, 0.0);
    a.apply(x, y_whole);
    // Elements are stored [coupled | interior], so the Enhanced-order
    // split (coupled first) replays apply()'s scatter-add order exactly.
    la::fill(y_split, 0.0);
    a.apply_coupled(x, y_split);
    a.apply_interior(x, y_split);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y_split[i], y_whole[i]);
  }
}

TEST(RankKernelEbe, ApplyMatchesCsrWithinUlpBound) {
  const EbeFixture fx;
  for (const auto& sub : fx.part.subs) {
    const Vector d = local_scaling(sub.k_loc);
    KernelOptions csr;
    csr.format = KernelOptions::Format::Csr;
    csr.overlap = false;
    const RankKernel ref(sub.k_loc, Vector(d), sub.interface_local_dofs,
                         csr);
    KernelOptions ebe;
    ebe.format = KernelOptions::Format::Ebe;
    ebe.overlap = false;
    const RankKernel a(sub.k_loc, Vector(d), sub.interface_local_dofs, ebe,
                       sub.elem_store.get());
    EXPECT_EQ(a.apply_flops(), sub.elem_store->apply_flops());
    const std::size_t n = static_cast<std::size_t>(sub.n_local());
    const Vector x = test_vector(n, 73);
    Vector y_ref(n, 0.0), y(n, 0.0);
    ref.apply(x, y_ref);
    a.apply(x, y);
    // Reassociation bound: the element sweep and the row loop agree to a
    // few ulps of the row magnitude Σ|v_k x_k| — 1e-13 relative covers
    // the handful of contributing elements per row with a wide margin.
    real_t scale = 1.0;
    for (std::size_t i = 0; i < n; ++i)
      scale = std::max(scale, std::abs(y_ref[i]));
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-13 * scale) << "dof " << i;
  }
}

TEST(RankKernelEbe, ApplyManyBitIdenticalToPerLaneApply) {
  const EbeFixture fx;
  const auto& sub = fx.part.subs.front();
  const Vector d = local_scaling(sub.k_loc);
  KernelOptions ko;
  ko.format = KernelOptions::Format::Ebe;
  ko.overlap = true;
  const RankKernel a(sub.k_loc, Vector(d), sub.interface_local_dofs, ko,
                     sub.elem_store.get());
  const std::size_t n = static_cast<std::size_t>(sub.n_local());
  std::vector<Vector> xs = {test_vector(n, 79), test_vector(n, 83),
                            test_vector(n, 89)};
  std::vector<Vector> ys(xs.size(), Vector(n));
  std::vector<const Vector*> xp;
  std::vector<Vector*> yp;
  for (std::size_t b = 0; b < xs.size(); ++b) {
    xp.push_back(&xs[b]);
    yp.push_back(&ys[b]);
  }
  a.apply_many(xp, yp);
  // The element-major sweep runs each lane through the identical
  // per-element gather/multiply/scatter order as a standalone apply.
  for (std::size_t b = 0; b < xs.size(); ++b) {
    Vector y_one(n, 0.0);
    a.apply(xs[b], y_one);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(ys[b][i], y_one[i]);
  }
}

TEST(RankKernelEbe, TypedErrorsWithoutElementData) {
  const EbeFixture fx;
  const auto& sub = fx.part.subs.front();
  const Vector d = local_scaling(sub.k_loc);
  KernelOptions ko;
  ko.format = KernelOptions::Format::Ebe;
  // No element store: typed error, not UB.
  EXPECT_THROW(RankKernel(sub.k_loc, Vector(d), sub.interface_local_dofs,
                          ko, nullptr),
               Error);
}

// ---- Distributed Format::Ebe: the format must preserve the solver's
// observable contract — iteration counts, exchange counters, convergence
// — against the Csr reference, and the Enhanced discipline must be
// bit-neutral in the overlap knob (its split replays apply()'s order).

std::vector<KernelOptions> ebe_configs() {
  std::vector<KernelOptions> cfgs;
  for (const bool overlap : {false, true}) {
    KernelOptions ko;
    ko.format = KernelOptions::Format::Ebe;
    ko.overlap = overlap;
    cfgs.push_back(ko);
  }
  return cfgs;
}

TEST(DistKernelsEbe, SolveEddPreservesIterationsAndExchangeCounts) {
  const EbeFixture fx;
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  for (const auto variant :
       {core::EddVariant::Basic, core::EddVariant::Enhanced}) {
    core::SolveOptions ref_opts;
    ref_opts.tol = 1e-8;
    ref_opts.kernels.format = KernelOptions::Format::Csr;
    ref_opts.kernels.overlap = false;
    const core::DistSolve ref =
        solve_edd(fx.part, fx.prob.load, poly, ref_opts, variant);
    ASSERT_TRUE(ref.converged);

    const real_t xscale = la::nrm_inf(ref.x);
    for (const KernelOptions& ko : ebe_configs()) {
      core::SolveOptions opts;
      opts.tol = 1e-8;
      opts.kernels = ko;
      const core::DistSolve run =
          solve_edd(fx.part, fx.prob.load, poly, opts, variant);
      ASSERT_TRUE(run.converged);
      // The format-neutral contract: same iteration trajectory length
      // and the Table-1 exchange counts untouched.
      EXPECT_EQ(run.iterations, ref.iterations);
      EXPECT_EQ(run.history.size(), ref.history.size());
      ASSERT_EQ(run.rank_counters.size(), ref.rank_counters.size());
      for (std::size_t s = 0; s < ref.rank_counters.size(); ++s)
        EXPECT_EQ(run.rank_counters[s].neighbor_exchanges,
                  ref.rank_counters[s].neighbor_exchanges)
            << "rank " << s;
      // Solutions agree to the reassociation ulp bound.
      ASSERT_EQ(run.x.size(), ref.x.size());
      for (std::size_t i = 0; i < ref.x.size(); ++i)
        ASSERT_NEAR(run.x[i], ref.x[i], 1e-8 * xscale) << "dof " << i;
    }
  }
}

TEST(DistKernelsEbe, EnhancedOverlapIsBitNeutral) {
  const EbeFixture fx;
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  std::vector<core::DistSolve> runs;
  for (const KernelOptions& ko : ebe_configs()) {
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ko;
    runs.push_back(solve_edd(fx.part, fx.prob.load, poly, opts,
                             core::EddVariant::Enhanced));
    ASSERT_TRUE(runs.back().converged);
  }
  // Enhanced splits coupled-then-interior — the stored element order —
  // so turning overlap on must not move a single bit.  (Basic's split
  // runs interior first, a different scatter-add order, so it is only
  // ulp-close; the iteration/exchange contract above covers it.)
  const core::DistSolve& ref = runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].iterations, ref.iterations);
    ASSERT_EQ(runs[r].history.size(), ref.history.size());
    for (std::size_t i = 0; i < ref.history.size(); ++i)
      ASSERT_EQ(runs[r].history[i], ref.history[i]) << "iteration " << i;
    ASSERT_EQ(runs[r].x.size(), ref.x.size());
    for (std::size_t i = 0; i < ref.x.size(); ++i)
      ASSERT_EQ(runs[r].x[i], ref.x[i]) << "dof " << i;
  }
}

TEST(DistKernelsEbe, SolveEddCgPreservesConvergence) {
  const EbeFixture fx;
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  core::SolveOptions ref_opts;
  ref_opts.tol = 1e-8;
  ref_opts.kernels.format = KernelOptions::Format::Csr;
  ref_opts.kernels.overlap = false;
  const core::DistSolve ref =
      core::solve_edd_cg(fx.part, fx.prob.load, poly, ref_opts);
  ASSERT_TRUE(ref.converged);
  const real_t xscale = la::nrm_inf(ref.x);

  for (const KernelOptions& ko : ebe_configs()) {
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ko;
    const core::DistSolve run =
        core::solve_edd_cg(fx.part, fx.prob.load, poly, opts);
    ASSERT_TRUE(run.converged);
    EXPECT_EQ(run.iterations, ref.iterations);
    for (std::size_t i = 0; i < ref.x.size(); ++i)
      ASSERT_NEAR(run.x[i], ref.x[i], 1e-8 * xscale) << "dof " << i;
  }
}

TEST(DistKernelsEbe, BatchSolvePreservesConvergence) {
  const EbeFixture fx;
  const int p = fx.part.nparts();
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  std::vector<Vector> rhs;
  rhs.push_back(Vector(fx.prob.load.begin(), fx.prob.load.end()));
  rhs.push_back(test_vector(fx.prob.load.size(), 97));

  par::Team team(p);
  core::SolveOptions ref_opts;
  ref_opts.tol = 1e-8;
  ref_opts.kernels.format = KernelOptions::Format::Csr;
  ref_opts.kernels.overlap = false;
  const core::EddOperatorState ref_op = core::build_edd_operator(
      team, fx.part, poly, nullptr, nullptr, ref_opts.kernels);
  const core::BatchSolveResult ref =
      core::solve_edd_batch(team, fx.part, ref_op, rhs, ref_opts);
  ASSERT_TRUE(ref.comm_error.empty());

  std::vector<core::BatchSolveResult> runs;
  for (const KernelOptions& ko : ebe_configs()) {
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ko;
    const core::EddOperatorState op =
        core::build_edd_operator(team, fx.part, poly, nullptr, nullptr, ko);
    runs.push_back(core::solve_edd_batch(team, fx.part, op, rhs, opts));
    ASSERT_TRUE(runs.back().comm_error.empty());
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].items.size(), ref.items.size());
    for (std::size_t b = 0; b < ref.items.size(); ++b) {
      ASSERT_TRUE(runs[r].items[b].converged);
      EXPECT_EQ(runs[r].items[b].iterations, ref.items[b].iterations)
          << "rhs " << b;
      real_t xscale = 1.0;
      for (const real_t v : ref.x[b]) xscale = std::max(xscale, std::abs(v));
      for (std::size_t i = 0; i < ref.x[b].size(); ++i)
        ASSERT_NEAR(runs[r].x[b][i], ref.x[b][i], 1e-8 * xscale)
            << "rhs " << b << " dof " << i;
    }
  }
  // The batch split order (coupled before interior) equals the stored
  // element order, so the Ebe batch is bit-neutral in the overlap knob.
  for (std::size_t b = 0; b < rhs.size(); ++b)
    for (std::size_t i = 0; i < runs[0].x[b].size(); ++i)
      ASSERT_EQ(runs[1].x[b][i], runs[0].x[b][i])
          << "rhs " << b << " dof " << i;
}

TEST(DistKernelsEbe, LocalMatrixOverrideIsRejected) {
  const EbeFixture fx;
  core::PolySpec poly;
  poly.kind = core::PolyKind::None;
  core::SolveOptions opts;
  opts.kernels.format = KernelOptions::Format::Ebe;
  std::vector<CsrMatrix> override_mats;
  for (const auto& sub : fx.part.subs) override_mats.push_back(sub.k_loc);
  EXPECT_THROW((void)solve_edd(fx.part, fx.prob.load, poly, opts,
                               core::EddVariant::Enhanced, &override_mats),
               Error);
  EXPECT_THROW((void)core::solve_edd_cg(fx.part, fx.prob.load, poly, opts,
                                        &override_mats),
               Error);
  par::Team team(fx.part.nparts());
  EXPECT_THROW((void)core::build_edd_operator(team, fx.part, poly,
                                              &override_mats, nullptr,
                                              opts.kernels),
               Error);
}

// ---- Acceptance (ISSUE 9): Format::Ebe solves the paper's Table-2
// meshes through both EDD disciplines with iteration counts and
// per-rank exchange counts identical to Format::Csr.

TEST(DistKernelsEbe, Table2MeshesMatchCsrIterationForIteration) {
  for (const int mesh_number : {1, 2}) {
    const fem::CantileverProblem prob =
        fem::make_table2_cantilever(mesh_number);
    const int p = mesh_number == 1 ? 2 : 4;
    const partition::EddPartition part = exp::make_edd(prob, p);
    core::PolySpec poly;
    poly.kind = core::PolyKind::Gls;
    poly.degree = 3;

    for (const auto variant :
         {core::EddVariant::Basic, core::EddVariant::Enhanced}) {
      core::SolveOptions copts;
      copts.tol = 1e-8;
      copts.kernels.format = KernelOptions::Format::Csr;
      const core::DistSolve csr =
          solve_edd(part, prob.load, poly, copts, variant);
      ASSERT_TRUE(csr.converged);

      core::SolveOptions eopts;
      eopts.tol = 1e-8;
      eopts.kernels.format = KernelOptions::Format::Ebe;
      const core::DistSolve ebe =
          solve_edd(part, prob.load, poly, eopts, variant);
      ASSERT_TRUE(ebe.converged);

      EXPECT_EQ(ebe.iterations, csr.iterations)
          << "Mesh" << mesh_number << " variant "
          << (variant == core::EddVariant::Basic ? "Basic" : "Enhanced");
      EXPECT_EQ(ebe.restarts, csr.restarts);
      ASSERT_EQ(ebe.rank_counters.size(), csr.rank_counters.size());
      for (std::size_t s = 0; s < csr.rank_counters.size(); ++s)
        EXPECT_EQ(ebe.rank_counters[s].neighbor_exchanges,
                  csr.rank_counters[s].neighbor_exchanges)
            << "rank " << s;
    }
  }
}

// ---- Regression (satellite bugfix): a right-hand side small enough
// that Arnoldi/CG inner products underflow into the sqrt_nonneg clamp
// region must terminate cleanly (converged, finite solution), never
// divide by a clamped-to-zero norm.

TEST(ArnoldiUnderflow, TinyRhsTerminatesCleanlyAndConverges) {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 3);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;
  core::SolveOptions opts;
  opts.tol = 1e-6;

  // Reference at normal scale.
  const core::DistSolve ref = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(ref.converged);

  // ~1e-160 scaling: residual norms sit near 1e-160, so every squared
  // inner product (~1e-320) is subnormal and the clamp is live.
  const real_t scale = 1e-160;
  Vector f_tiny(prob.load.size());
  for (std::size_t i = 0; i < f_tiny.size(); ++i)
    f_tiny[i] = scale * prob.load[i];

  const core::DistSolve tiny = solve_edd(part, f_tiny, poly, opts);
  ASSERT_TRUE(tiny.converged);
  const real_t xref = la::nrm_inf(ref.x);
  for (std::size_t i = 0; i < tiny.x.size(); ++i) {
    ASSERT_TRUE(std::isfinite(tiny.x[i]));
    // The solve is not exactly scale-equivariant in the subnormal range
    // (squared inner products lose bits there), but the solution must
    // still track the scaled reference to a few digits.
    ASSERT_NEAR(tiny.x[i], scale * ref.x[i], 1e-2 * scale * xref);
  }

  // CG's rho quotients keep fewer bits than Arnoldi norms, so probe it a
  // little above the FGMRES scale — squared inner products (~1e-310) are
  // still subnormal, which is the clamp region under test.
  Vector f_cg(prob.load.size());
  for (std::size_t i = 0; i < f_cg.size(); ++i)
    f_cg[i] = 1e-155 * prob.load[i];
  const core::DistSolve cg = core::solve_edd_cg(part, f_cg, poly, opts);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < cg.x.size(); ++i)
    ASSERT_TRUE(std::isfinite(cg.x[i]));
}

TEST(ArnoldiUnderflow, InvalidSolveOptionsAreRejected) {
  fem::CantileverSpec spec;
  spec.nx = 4;
  spec.ny = 2;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 2);
  core::PolySpec poly;
  poly.kind = core::PolyKind::None;
  core::SolveOptions bad;
  bad.tol = 0.0;  // would defeat every convergence guard
  EXPECT_THROW((void)solve_edd(part, prob.load, poly, bad), Error);
  bad.tol = 1e-6;
  bad.restart = 0;
  EXPECT_THROW((void)solve_edd(part, prob.load, poly, bad), Error);
}

}  // namespace
}  // namespace pfem
