// Per-subdomain operator kernels: format selection (scalar CSR vs
// vectorized SELL-C-σ), build-time norm-1 scaling, and the interior/interface
// row split that lets the polynomial apply overlap the nearest-neighbor
// exchange with interior compute.
//
// RankKernel wraps one subdomain's scaled operator Â = D K D behind a
// uniform apply() so the distributed solvers never touch storage details:
//
//   - format Csr:  a prescaled CSR copy, scalar row loop — the reference
//     kernel the other format is checked against bit for bit.
//   - format Sell: SELL-C-σ (platform chunk width and sort window) with
//     D K D folded into the stored values at build time by
//     scale_symmetric, the same roundings as the Csr format, so the two
//     are bit-identical.  2-dof operators convert to node-block chunks
//     (one column per 2x2 block, see sparse/sell.hpp).
//
// With overlap on, rows are classified once at build time:
//   interior — not an interface dof AND coupled to no interface column;
//     safe to compute while an exchange is in flight in either
//     discipline (Basic's input vector has only its interface entries
//     zeroed mid-exchange, which interior rows never read; Enhanced's
//     output stash touches only interface dofs, which interior rows
//     never write).
//   coupled  — everything else (interface rows and their neighbors).
// Both blocks keep whole rows in original column order, so the split
// apply is bit-identical to the full one.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"

namespace pfem::core {

/// Kernel knob carried by SolveOptions / ServiceConfig.  Defaults pick
/// the vectorized SELL path with exchange overlap; {Format::Csr,
/// overlap=false} is the scalar reference.
struct KernelOptions {
  enum class Format : std::uint8_t {
    Csr,   ///< scalar CSR, eagerly scaled (the reference)
    Sell,  ///< SELL-C-σ, D K D folded into the stored values
  };
  Format format = Format::Sell;
  /// Split interior/interface rows and overlap the neighbor exchange
  /// with interior compute inside the polynomial apply.
  bool overlap = true;
};

namespace detail {
/// A row subset of a CSR matrix with scatter to original row ids — the
/// scalar-CSR form of a split block.
struct CsrRowsBlock {
  IndexVector rows;     ///< original row id per compact row
  IndexVector row_ptr;  ///< compact, rows.size()+1
  IndexVector col;
  Vector val;
  void spmv(std::span<const real_t> x, std::span<real_t> y) const;
};
}  // namespace detail

class RankKernel {
 public:
  RankKernel() = default;

  /// Build from the UNSCALED subdomain matrix `k` and the norm-1 scaling
  /// diagonal `d` (already globalized and inverted-square-rooted).  Both
  /// formats fold the scaling in once at build time.
  RankKernel(const sparse::CsrMatrix& k, Vector d,
             std::span<const index_t> interface_dofs,
             const KernelOptions& opts);

  /// Split blocks were built — the overlapped exchange path is available.
  [[nodiscard]] bool split() const noexcept { return split_; }
  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] const KernelOptions& options() const noexcept {
    return opts_;
  }

  /// y <- Â x over all rows.
  void apply(std::span<const real_t> x, std::span<real_t> y) const;
  /// y[r] <- (Â x)_r for interface-coupled rows only (requires split()).
  void apply_coupled(std::span<const real_t> x, std::span<real_t> y) const;
  /// y[r] <- (Â x)_r for interior rows only (requires split()).
  void apply_interior(std::span<const real_t> x, std::span<real_t> y) const;

  /// Multi-RHS forms for the batched service path: lane i of ys receives
  /// the apply of lane i of xs, one single apply per lane (bit-identical
  /// to calling the single forms).
  void apply_many(std::span<const Vector* const> xs,
                  std::span<Vector* const> ys) const;
  void apply_coupled_many(std::span<const Vector* const> xs,
                          std::span<Vector* const> ys) const;
  void apply_interior_many(std::span<const Vector* const> xs,
                           std::span<Vector* const> ys) const;

  /// Flops of one full apply: 2*nnz in either format.
  [[nodiscard]] std::uint64_t apply_flops() const noexcept {
    return 2ull * nnz_;
  }

 private:
  KernelOptions opts_;
  bool split_ = false;
  index_t n_ = 0;
  std::uint64_t nnz_ = 0;
  sparse::CsrMatrix csr_own_;
  detail::CsrRowsBlock csr_coupled_, csr_interior_;
  sparse::SellMatrix sell_full_, sell_coupled_, sell_interior_;
};

}  // namespace pfem::core
