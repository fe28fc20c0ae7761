// SELL-C-σ sliced-ELLPACK matrix — the vectorized SpMV storage.
//
// Rows are grouped into chunks of C consecutive slots; within a chunk the
// values are stored column-major (step j of lane l lives at
// base + j*C + l), so one inner-loop step advances C independent row
// accumulators with unit-stride loads — the layout AMGCL-style backends
// use to get SIMD out of FE matrices whose rows are too short for
// row-wise vectorization.  Within windows of σ rows a stable sort by
// descending row length packs similar-length rows into the same chunk to
// bound zero padding; the slot→row permutation is stored and results are
// scattered back, so callers never see the reordering.
//
// Node-block chunks.  Vector-valued FE operators with two dofs per node
// (plane elasticity, dofs numbered node-major) couple nodes through 2x2
// blocks: rows 2s and 2s+1 share one column list, and that list comes
// as (c, c+1) couples.  Conversion detects every chunk where, for each
// lane pair (2s, 2s+1), both rows have the same even length, the same
// columns, and columns (c, c+1) at steps (2t, 2t+1).  Such a chunk
// stores ONE column per lane pair per block step (steps 2t and 2t+1)
// instead of one per entry — 9 instead of 12 bytes per stored entry —
// and the kernels load the pair x[c], x[c+1] contiguously instead of
// gathering.  Every other chunk keeps one column per entry.
//
// Bit-identity contract (what the solvers rely on): every row's partial
// sums are accumulated in the ORIGINAL CSR column order, one mul-then-add
// per stored entry, exactly like the scalar CSR loop — the σ permutation
// moves whole rows between slots and never reassociates a row's sum, and
// a node-block step adds step 2t before step 2t+1 — so spmv() is
// bit-identical to CsrMatrix::spmv for finite inputs.  Padded steps
// contribute `+ 0.0 * x[0]` (and `+ 0.0 * x[1]` in a node-block chunk),
// which is exact for finite x.
#pragma once

#include <span>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace pfem::sparse {

class SellMatrix;

namespace detail {
/// Kernel bodies of the C=8 SELL apply.  spmv()/spmv_add() pick the
/// widest one the CPU supports; tests drive each body directly.
enum class SellBody { Portable, Avx2, Avx512 };
/// True when `body` can run on this CPU (Portable always can).
[[nodiscard]] bool sell_body_supported(SellBody body);
/// spmv (add=false) or spmv_add (add=true) through one body.  The SIMD
/// bodies cover C=8 only; other widths require SellBody::Portable.
void sell_spmv(const SellMatrix& a, SellBody body, std::span<const real_t> x,
               std::span<real_t> y, bool add);
}  // namespace detail

class SellMatrix {
 public:
  SellMatrix() = default;

  /// Convert a full CSR matrix.  chunk/sigma of 0 pick platform defaults
  /// (C=8, σ=8C); chunk must be one of the vector-friendly widths the
  /// kernel templates cover ({4, 8, 16}) or any other positive value for
  /// the generic fallback path.
  [[nodiscard]] static SellMatrix from_csr(const CsrMatrix& a, int chunk = 0,
                                           int sigma = 0);

  /// Convert only the given rows of `a` (each id in [0, a.rows())); the
  /// kernels scatter results to the ORIGINAL row ids, so a row-subset
  /// block can write straight into a full-length y.  Used by the
  /// interior/interface split operator.
  [[nodiscard]] static SellMatrix from_csr_rows(const CsrMatrix& a,
                                                std::span<const index_t> rows,
                                                int chunk = 0, int sigma = 0);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept { return nnz_; }
  [[nodiscard]] index_t stored_rows() const noexcept { return stored_rows_; }
  [[nodiscard]] int chunk() const noexcept { return c_; }
  [[nodiscard]] int sigma() const noexcept { return sigma_; }
  [[nodiscard]] index_t chunks() const noexcept { return nchunks_; }
  /// Stored entries including zero padding (padding ratio diagnostics).
  [[nodiscard]] index_t padded_nnz() const noexcept {
    return chunk_ptr_.empty() ? 0 : chunk_ptr_.back();
  }
  /// Slot -> original row id permutation; -1 marks a padding slot.
  [[nodiscard]] std::span<const index_t> slot_row() const { return slot_row_; }
  /// Stored column indices: padded_nnz() minus 3/4 of every node-block
  /// chunk's entries.
  [[nodiscard]] index_t stored_cols() const noexcept {
    return static_cast<index_t>(col_.size());
  }
  /// Chunks stored as node blocks (see the header comment).
  [[nodiscard]] index_t block_chunks() const noexcept {
    index_t n = 0;
    for (const char b : chunk_block_) n += b;
    return n;
  }

  /// y[r] <- (A x)_r for every stored row r; other entries of y are
  /// untouched.  Bit-identical to the scalar CSR row loop.
  void spmv(std::span<const real_t> x, std::span<real_t> y) const;

  /// y[r] <- y[r] + (A x)_r for every stored row r.
  void spmv_add(std::span<const real_t> x, std::span<real_t> y) const;

  /// Round-trip back to CSR in original row order (identity on from_csr
  /// input; subset rows of from_csr_rows input, others empty).
  [[nodiscard]] CsrMatrix to_csr() const;

  /// Flops of one SpMV over the stored rows: 2*nnz (padding excluded).
  [[nodiscard]] std::uint64_t spmv_flops() const {
    return 2ull * static_cast<std::uint64_t>(nnz_);
  }

  /// Platform default chunk width (rows per slice).
  static constexpr int kDefaultChunk = 8;

 private:
  friend void detail::sell_spmv(const SellMatrix&, detail::SellBody,
                                std::span<const real_t>, std::span<real_t>,
                                bool);

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t nnz_ = 0;
  index_t stored_rows_ = 0;
  int c_ = 0;
  int sigma_ = 0;
  index_t nchunks_ = 0;
  IndexVector chunk_ptr_;  ///< nchunks_+1 value offsets (chunk k spans w*C)
  IndexVector col_ptr_;    ///< nchunks_+1 column offsets (w*C or w*C/4)
  IndexVector slot_row_;   ///< nchunks_*C original row per lane, -1 = pad
  IndexVector slot_len_;   ///< nchunks_*C true row length per lane
  /// Per chunk: generic chunks hold one column per entry, column-major
  /// like the values; node-block chunks hold the column c of lane pair s
  /// at block step t at offset t*(C/2) + s (lanes 2s and 2s+1 read
  /// x[c] at step 2t and x[c+1] at step 2t+1).  Padding columns are 0.
  IndexVector col_;
  Vector val_;                     ///< padded, column-major per chunk
  std::vector<char> chunk_block_;  ///< per chunk: 1 = node-block layout
};

}  // namespace pfem::sparse
