#include "sparse/sell.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

// SIMD bodies for the default chunk width (C = 8) on x86-64, selected
// at runtime so the binary still runs on machines without AVX2/AVX-512F.
// Only mul/add intrinsics are used — never FMA — and each SIMD lane
// performs the scalar kernel's exact per-entry rounding sequence, so
// these paths are bit-identical to the portable loop below (and to the
// scalar CSR kernel; see tests/test_kernels.cpp).
#if defined(__x86_64__) && defined(__GNUC__)
#define PFEM_SELL_X86 1
#include <immintrin.h>
#endif

namespace pfem::sparse {

namespace {

/// The stored arrays a kernel body walks.
struct Chunks {
  index_t n;
  const index_t* chunk_ptr;
  const index_t* col_ptr;
  const char* block;
  const index_t* slot_row;
  const index_t* col;
  const real_t* val;
};

inline void scatter(const index_t* rows, const real_t* acc, int c, real_t* y,
                    bool add) {
  for (int l = 0; l < c; ++l) {
    if (rows[l] < 0) continue;
    if (add) {
      y[rows[l]] += acc[l];
    } else {
      y[rows[l]] = acc[l];
    }
  }
}

// Portable body.  CT > 0 fixes the chunk width at compile time so the
// compiler keeps the C accumulators in registers; CT = 0 is the generic
// fallback for widths outside {4, 8, 16}.  A generic chunk walks each
// lane's entries in original CSR column order; a node-block chunk adds
// step 2t (x[c]) and then step 2t+1 (x[c+1]) per lane, the same order.
// Padded entries carry val=0 and fold in as +0.0*x[0] (and x[1]).
template <int CT>
void spmv_chunks(const Chunks& m, int cdyn, const real_t* x, real_t* y,
                 bool add) {
  const int C = CT > 0 ? CT : cdyn;
  real_t acc_fixed[CT > 0 ? CT : 1] = {};
  Vector acc_dyn(CT > 0 ? 0 : static_cast<std::size_t>(C));
  real_t* acc = CT > 0 ? acc_fixed : acc_dyn.data();
  for (index_t k = 0; k < m.n; ++k) {
    const index_t base = m.chunk_ptr[k];
    const index_t w = (m.chunk_ptr[k + 1] - base) / C;
    const real_t* v = m.val + base;
    const index_t* c = m.col + m.col_ptr[k];
    for (int l = 0; l < C; ++l) acc[l] = 0.0;
    if (m.block[k] != 0) {
      for (index_t t = 0; t < w / 2; ++t) {
        const real_t* v0 = v + static_cast<std::size_t>(2 * t) * C;
        const index_t* ct = c + static_cast<std::size_t>(t) * (C / 2);
        for (int l = 0; l < C; ++l) acc[l] += v0[l] * x[ct[l / 2]];
        for (int l = 0; l < C; ++l) acc[l] += v0[C + l] * x[ct[l / 2] + 1];
      }
    } else {
      for (index_t j = 0; j < w; ++j) {
        const real_t* vj = v + static_cast<std::size_t>(j) * C;
        const index_t* cj = c + static_cast<std::size_t>(j) * C;
        for (int l = 0; l < C; ++l) acc[l] += vj[l] * x[cj[l]];
      }
    }
    scatter(m.slot_row + static_cast<std::size_t>(k) * C, acc, C, y, add);
  }
}

#ifdef PFEM_SELL_X86

// GCC's own AVX-512 headers route several intrinsics (cast/insert)
// through _mm512_undefined_pd(), which -Wmaybe-uninitialized flags
// inside every caller.  Known header false positive (GCC PR 105593);
// silence it for the SIMD bodies only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

bool cpu_has_avx2() {
  static const bool b = __builtin_cpu_supports("avx2");
  return b;
}

bool cpu_has_avx512f() {
  static const bool b = __builtin_cpu_supports("avx512f");
  return b;
}

// Masked-gather wrappers: the plain gather intrinsics leave their source
// operand undefined, which GCC (correctly) flags with -Wmaybe-
// uninitialized; an explicit zero source with an all-ones mask is the
// same operation without the warning.
__attribute__((target("avx2"))) inline __m256d gather4(const real_t* base,
                                                       __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

__attribute__((target("avx512f"))) inline __m512d gather8(const real_t* base,
                                                          __m256i idx) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx, base, 8);
}

// The x couples of two lane pairs: [x[c0], x[c0+1], x[c1], x[c1+1]].
__attribute__((target("avx2"))) inline __m256d load_pairs(const real_t* x,
                                                          index_t c0,
                                                          index_t c1) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(x + c0)),
                              _mm_loadu_pd(x + c1), 1);
}

__attribute__((target("avx2"))) void spmv_chunks8_avx2(const Chunks& m,
                                                       const real_t* x,
                                                       real_t* y, bool add) {
  for (index_t k = 0; k < m.n; ++k) {
    const index_t base = m.chunk_ptr[k];
    const index_t w = (m.chunk_ptr[k + 1] - base) / 8;
    const real_t* v = m.val + base;
    const index_t* c = m.col + m.col_ptr[k];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    if (m.block[k] != 0) {
      for (index_t t = 0; t < w / 2; ++t) {
        const index_t* ct = c + static_cast<std::size_t>(t) * 4;
        const real_t* v0 = v + static_cast<std::size_t>(t) * 16;
        const __m256d p01 = load_pairs(x, ct[0], ct[1]);
        const __m256d p23 = load_pairs(x, ct[2], ct[3]);
        // unpacklo/hi duplicate x[c] (step 2t) / x[c+1] (step 2t+1)
        // into both lanes of each pair.
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(v0),
                                                 _mm256_unpacklo_pd(p01, p01)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(v0 + 4),
                                                 _mm256_unpacklo_pd(p23, p23)));
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(v0 + 8),
                                                 _mm256_unpackhi_pd(p01, p01)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(v0 + 12),
                                                 _mm256_unpackhi_pd(p23, p23)));
      }
    } else {
      for (index_t j = 0; j < w; ++j) {
        const index_t* cj = c + static_cast<std::size_t>(j) * 8;
        const real_t* vj = v + static_cast<std::size_t>(j) * 8;
        const __m128i i0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cj));
        const __m128i i1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cj + 4));
        acc0 = _mm256_add_pd(acc0,
                             _mm256_mul_pd(_mm256_loadu_pd(vj), gather4(x, i0)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_loadu_pd(vj + 4), gather4(x, i1)));
      }
    }
    alignas(32) real_t a[8];
    _mm256_store_pd(a, acc0);
    _mm256_store_pd(a + 4, acc1);
    scatter(m.slot_row + static_cast<std::size_t>(k) * 8, a, 8, y, add);
  }
}

// One node-block step of a C=8 chunk: lanes 2s, 2s+1 add v[2t]*x[c_s]
// and then v[2t+1]*x[c_s+1], the CSR order.
__attribute__((target("avx512f"))) inline __m512d block_step8(
    __m512d acc, const real_t* x, const index_t* ct, const real_t* v0) {
  const __m512d p =
      _mm512_insertf64x4(_mm512_castpd256_pd512(load_pairs(x, ct[0], ct[1])),
                         load_pairs(x, ct[2], ct[3]), 1);
  acc = _mm512_add_pd(
      acc, _mm512_mul_pd(_mm512_loadu_pd(v0), _mm512_unpacklo_pd(p, p)));
  return _mm512_add_pd(
      acc, _mm512_mul_pd(_mm512_loadu_pd(v0 + 8), _mm512_unpackhi_pd(p, p)));
}

__attribute__((target("avx512f"))) void spmv_chunks8_avx512(const Chunks& m,
                                                            const real_t* x,
                                                            real_t* y,
                                                            bool add) {
  for (index_t k = 0; k < m.n; ++k) {
    const index_t base = m.chunk_ptr[k];
    const index_t w = (m.chunk_ptr[k + 1] - base) / 8;
    const real_t* v = m.val + base;
    const index_t* c = m.col + m.col_ptr[k];
    __m512d acc = _mm512_setzero_pd();
    // Both paths keep the value stream ~8 steps ahead of the loads; the
    // hardware prefetcher alone leaves DRAM bandwidth on the table once
    // the matrix falls out of L2.
    if (m.block[k] != 0) {
      for (index_t t = 0; t < w / 2; ++t) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         v + static_cast<std::size_t>(t + 4) * 16),
                     _MM_HINT_T0);
        acc = block_step8(acc, x, c + t * 4, v + t * 16);
      }
    } else {
      for (index_t j = 0; j < w; ++j) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         v + static_cast<std::size_t>(j + 8) * 8),
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(
                         c + static_cast<std::size_t>(j + 16) * 8),
                     _MM_HINT_T0);
        const __m256i cj = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            c + static_cast<std::size_t>(j) * 8));
        const __m512d vj =
            _mm512_loadu_pd(v + static_cast<std::size_t>(j) * 8);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(vj, gather8(x, cj)));
      }
    }
    alignas(64) real_t a[8];
    _mm512_store_pd(a, acc);
    scatter(m.slot_row + static_cast<std::size_t>(k) * 8, a, 8, y, add);
  }
}

#pragma GCC diagnostic pop

#endif  // PFEM_SELL_X86

detail::SellBody best_body() {
#ifdef PFEM_SELL_X86
  if (cpu_has_avx512f()) return detail::SellBody::Avx512;
  if (cpu_has_avx2()) return detail::SellBody::Avx2;
#endif
  return detail::SellBody::Portable;
}

// Lanes (2s, 2s+1) of a chunk form node blocks when both rows have the
// same even length and the same columns, and each row's entries come as
// (c, c+1) at steps (2t, 2t+1).  A pad lane has length 0, so a pad pair
// qualifies and a real/pad pair only when the real row is empty.
bool is_block_chunk(const index_t* lane_row, const index_t* lane_len, int c,
                    std::span<const index_t> rp,
                    std::span<const index_t> ci) {
  if (c % 2 != 0) return false;
  for (int s = 0; s < c; s += 2) {
    const index_t len = lane_len[s];
    if (len != lane_len[s + 1] || len % 2 != 0) return false;
    if (len == 0) continue;
    const index_t* c0 = ci.data() + rp[lane_row[s]];
    const index_t* c1 = ci.data() + rp[lane_row[s + 1]];
    for (index_t j = 0; j < len; j += 2) {
      if (c0[j] != c1[j] || c0[j + 1] != c1[j + 1] || c0[j + 1] != c0[j] + 1)
        return false;
    }
  }
  return true;
}

}  // namespace

SellMatrix SellMatrix::from_csr(const CsrMatrix& a, int chunk, int sigma) {
  IndexVector all(static_cast<std::size_t>(a.rows()));
  std::iota(all.begin(), all.end(), index_t{0});
  return from_csr_rows(a, all, chunk, sigma);
}

SellMatrix SellMatrix::from_csr_rows(const CsrMatrix& a,
                                     std::span<const index_t> rows, int chunk,
                                     int sigma) {
  const int c = chunk > 0 ? chunk : kDefaultChunk;
  const int sg = sigma > 0 ? std::max(sigma, c) : 8 * c;
  PFEM_CHECK(c >= 1 && c <= 4096);

  const auto nr = static_cast<index_t>(rows.size());
  for (const index_t r : rows) PFEM_CHECK(r >= 0 && r < a.rows());

  SellMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.stored_rows_ = nr;
  m.c_ = c;
  m.sigma_ = sg;
  m.nchunks_ = (nr + c - 1) / c;

  // σ-window sort: within each window of sg subset positions, stable-sort
  // by descending row length.  Stability keeps equal-length rows in the
  // caller's order, so conversion is deterministic (and the two dofs of
  // a node stay in adjacent, pair-aligned slots).
  IndexVector order(static_cast<std::size_t>(nr));
  std::iota(order.begin(), order.end(), index_t{0});
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto av = a.values();
  auto len = [&](index_t i) { return rp[rows[i] + 1] - rp[rows[i]]; };
  for (index_t w0 = 0; w0 < nr; w0 += sg) {
    const index_t w1 = std::min<index_t>(w0 + sg, nr);
    std::stable_sort(order.begin() + w0, order.begin() + w1,
                     [&](index_t i, index_t j) { return len(i) > len(j); });
  }

  // Slot assignment, chunk widths and the node-block test, then the
  // value and column offsets of every chunk.
  const auto nslots = static_cast<std::size_t>(m.nchunks_) * c;
  m.slot_row_.assign(nslots, index_t{-1});
  m.slot_len_.assign(nslots, index_t{0});
  m.chunk_ptr_.assign(static_cast<std::size_t>(m.nchunks_) + 1, index_t{0});
  m.col_ptr_.assign(static_cast<std::size_t>(m.nchunks_) + 1, index_t{0});
  m.chunk_block_.assign(static_cast<std::size_t>(m.nchunks_), 0);
  for (index_t k = 0; k < m.nchunks_; ++k) {
    index_t w = 0;
    for (int l = 0; l < c; ++l) {
      const index_t pos = k * c + l;
      if (pos >= nr) break;
      const index_t row = rows[order[pos]];
      const index_t rl = rp[row + 1] - rp[row];
      m.slot_row_[static_cast<std::size_t>(pos)] = row;
      m.slot_len_[static_cast<std::size_t>(pos)] = rl;
      w = std::max(w, rl);
    }
    const bool block = is_block_chunk(m.slot_row_.data() + k * c,
                                      m.slot_len_.data() + k * c, c, rp, ci);
    m.chunk_block_[static_cast<std::size_t>(k)] = block ? 1 : 0;
    m.chunk_ptr_[k + 1] = m.chunk_ptr_[k] + w * c;
    m.col_ptr_[k + 1] = m.col_ptr_[k] + (block ? w * c / 4 : w * c);
  }

  m.col_.assign(static_cast<std::size_t>(m.col_ptr_.back()), index_t{0});
  m.val_.assign(static_cast<std::size_t>(m.chunk_ptr_.back()), real_t{0.0});
  index_t nnz = 0;
  for (index_t k = 0; k < m.nchunks_; ++k) {
    const index_t base = m.chunk_ptr_[k];
    index_t* col = m.col_.data() + m.col_ptr_[k];
    const bool block = m.chunk_block_[static_cast<std::size_t>(k)] != 0;
    for (int l = 0; l < c; ++l) {
      const index_t row = m.slot_row_[static_cast<std::size_t>(k) * c + l];
      if (row < 0) continue;
      const index_t rl = rp[row + 1] - rp[row];
      for (index_t j = 0; j < rl; ++j) {
        m.val_[static_cast<std::size_t>(base + j * c + l)] = av[rp[row] + j];
        if (!block) {
          col[j * c + l] = ci[rp[row] + j];
        } else if (l % 2 == 0 && j % 2 == 0) {
          col[(j / 2) * (c / 2) + l / 2] = ci[rp[row] + j];
        }
      }
      nnz += rl;
    }
  }
  m.nnz_ = nnz;
  return m;
}

namespace detail {

bool sell_body_supported(SellBody body) {
#ifdef PFEM_SELL_X86
  if (body == SellBody::Avx512) return cpu_has_avx512f();
  if (body == SellBody::Avx2) return cpu_has_avx2();
#endif
  return body == SellBody::Portable;
}

void sell_spmv(const SellMatrix& a, SellBody body, std::span<const real_t> x,
               std::span<real_t> y, bool add) {
  PFEM_DEBUG_CHECK(x.size() == static_cast<std::size_t>(a.cols_));
  PFEM_DEBUG_CHECK(y.size() == static_cast<std::size_t>(a.rows_));
  PFEM_CHECK_MSG(sell_body_supported(body) &&
                     (body == SellBody::Portable || a.c_ == 8),
                 "SELL kernel body not available for chunk " << a.c_);
  const Chunks m{a.nchunks_,        a.chunk_ptr_.data(), a.col_ptr_.data(),
                 a.chunk_block_.data(), a.slot_row_.data(), a.col_.data(),
                 a.val_.data()};
#ifdef PFEM_SELL_X86
  if (body == SellBody::Avx512) {
    spmv_chunks8_avx512(m, x.data(), y.data(), add);
    return;
  }
  if (body == SellBody::Avx2) {
    spmv_chunks8_avx2(m, x.data(), y.data(), add);
    return;
  }
#endif
  switch (a.c_) {
    case 4: spmv_chunks<4>(m, 4, x.data(), y.data(), add); break;
    case 8: spmv_chunks<8>(m, 8, x.data(), y.data(), add); break;
    case 16: spmv_chunks<16>(m, 16, x.data(), y.data(), add); break;
    default: spmv_chunks<0>(m, a.c_, x.data(), y.data(), add);
  }
}

}  // namespace detail

void SellMatrix::spmv(std::span<const real_t> x, std::span<real_t> y) const {
  detail::sell_spmv(*this, c_ == 8 ? best_body() : detail::SellBody::Portable,
                    x, y, false);
}

void SellMatrix::spmv_add(std::span<const real_t> x,
                          std::span<real_t> y) const {
  detail::sell_spmv(*this, c_ == 8 ? best_body() : detail::SellBody::Portable,
                    x, y, true);
}

CsrMatrix SellMatrix::to_csr() const {
  IndexVector row_ptr(static_cast<std::size_t>(rows_) + 1, index_t{0});
  const auto nslots = static_cast<index_t>(slot_row_.size());
  for (index_t s = 0; s < nslots; ++s) {
    if (slot_row_[s] >= 0) row_ptr[slot_row_[s] + 1] = slot_len_[s];
  }
  for (index_t i = 0; i < rows_; ++i) row_ptr[i + 1] += row_ptr[i];

  IndexVector col(static_cast<std::size_t>(row_ptr.back()));
  Vector val(static_cast<std::size_t>(row_ptr.back()));
  for (index_t k = 0; k < nchunks_; ++k) {
    const index_t base = chunk_ptr_[k];
    const index_t* ck = col_.data() + col_ptr_[k];
    const bool block = chunk_block_[static_cast<std::size_t>(k)] != 0;
    for (int l = 0; l < c_; ++l) {
      const auto slot = static_cast<std::size_t>(k) * c_ + l;
      const index_t row = slot_row_[slot];
      if (row < 0) continue;
      for (index_t j = 0; j < slot_len_[slot]; ++j) {
        col[row_ptr[row] + j] =
            block ? ck[(j / 2) * (c_ / 2) + l / 2] + j % 2 : ck[j * c_ + l];
        val[row_ptr[row] + j] = val_[base + j * c_ + l];
      }
    }
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col),
                   std::move(val));
}

}  // namespace pfem::sparse
