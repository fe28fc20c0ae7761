// Shared test fixture for the degenerate-operator paths: a local-matrix
// override that kills one global dof.
#pragma once

#include <memory>
#include <vector>

#include "partition/edd.hpp"
#include "sparse/csr.hpp"

namespace pfem::testing_support {

/// Local-matrix override with every coefficient of one global dof's row
/// and column zeroed on every rank: norm-1 scaling meets an all-zero
/// row at build time and must throw the typed BadOperatorError.
inline std::shared_ptr<const std::vector<sparse::CsrMatrix>>
zeroed_dof_override(const partition::EddPartition& part, index_t dead_dof) {
  auto mats = std::make_shared<std::vector<sparse::CsrMatrix>>();
  for (const auto& sub : part.subs) {
    sparse::CsrMatrix k = sub.k_loc;
    const auto rp = k.row_ptr();
    const auto ci = k.col_idx();
    const auto vals = k.values();  // mutable span
    for (index_t i = 0; i < k.rows(); ++i) {
      const index_t gi = sub.local_to_global[static_cast<std::size_t>(i)];
      for (index_t p = rp[static_cast<std::size_t>(i)];
           p < rp[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t gj = sub.local_to_global[static_cast<std::size_t>(
            ci[static_cast<std::size_t>(p)])];
        if (gi == dead_dof || gj == dead_dof)
          vals[static_cast<std::size_t>(p)] = 0.0;
      }
    }
    mats->push_back(std::move(k));
  }
  return mats;
}

}  // namespace pfem::testing_support
