#include "partition/edd.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.hpp"

namespace pfem::partition {

index_t EddPartition::total_interface_dofs() const {
  index_t total = 0;
  for (const EddSubdomain& s : subs)
    total += as_index(s.interface_local_dofs.size());
  return total;
}

int EddPartition::max_neighbors() const {
  int m = 0;
  for (const EddSubdomain& s : subs)
    m = std::max(m, static_cast<int>(s.neighbors.size()));
  return m;
}

EddPartition build_edd_partition(const fem::Mesh& mesh,
                                 const fem::DofMap& dofs,
                                 const fem::Material& mat, fem::Operator op,
                                 const IndexVector& elem_part, int nparts) {
  PFEM_CHECK(nparts >= 1);
  PFEM_CHECK(elem_part.size() == static_cast<std::size_t>(mesh.num_elems()));
  const index_t n_global = dofs.num_free();

  EddPartition part;
  part.n_global = n_global;
  part.subs.resize(static_cast<std::size_t>(nparts));

  // Element lists per part.
  for (index_t e = 0; e < mesh.num_elems(); ++e) {
    const index_t p = elem_part[e];
    PFEM_CHECK(p >= 0 && p < nparts);
    part.subs[static_cast<std::size_t>(p)].elems.push_back(e);
  }

  // Which parts touch each global dof.
  std::vector<std::set<index_t>> touching(static_cast<std::size_t>(n_global));
  for (index_t e = 0; e < mesh.num_elems(); ++e) {
    const index_t p = elem_part[e];
    for (index_t g : fem::element_dofs(mesh, dofs, e))
      if (g >= 0) touching[static_cast<std::size_t>(g)].insert(p);
  }

  // Local numbering per part: sorted global dofs the part touches.
  std::vector<IndexVector> g2l(
      static_cast<std::size_t>(nparts),
      IndexVector(static_cast<std::size_t>(n_global), -1));
  for (index_t g = 0; g < n_global; ++g) {
    for (index_t p : touching[static_cast<std::size_t>(g)]) {
      EddSubdomain& sub = part.subs[static_cast<std::size_t>(p)];
      g2l[static_cast<std::size_t>(p)][static_cast<std::size_t>(g)] =
          as_index(sub.local_to_global.size());
      sub.local_to_global.push_back(g);
    }
  }

  // Interface lists: for each pair (s, t) sharing a dof, both record the
  // shared dof in ascending global order — identical order on both ends.
  std::map<std::pair<index_t, index_t>, IndexVector> shared;  // (s,t)->gdofs
  for (index_t g = 0; g < n_global; ++g) {
    const auto& parts = touching[static_cast<std::size_t>(g)];
    if (parts.size() < 2) continue;
    for (auto it = parts.begin(); it != parts.end(); ++it) {
      for (auto jt = std::next(it); jt != parts.end(); ++jt) {
        shared[{*it, *jt}].push_back(g);
      }
    }
  }
  for (const auto& [key, gdofs] : shared) {
    const auto [s, t] = key;
    EddSubdomain& sub_s = part.subs[static_cast<std::size_t>(s)];
    EddSubdomain& sub_t = part.subs[static_cast<std::size_t>(t)];
    EddSubdomain::Neighbor ns{static_cast<int>(t), {}};
    EddSubdomain::Neighbor nt{static_cast<int>(s), {}};
    for (index_t g : gdofs) {
      ns.shared_local_dofs.push_back(
          g2l[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)]);
      nt.shared_local_dofs.push_back(
          g2l[static_cast<std::size_t>(t)][static_cast<std::size_t>(g)]);
    }
    sub_s.neighbors.push_back(std::move(ns));
    sub_t.neighbors.push_back(std::move(nt));
  }
  for (EddSubdomain& sub : part.subs) {
    std::sort(sub.neighbors.begin(), sub.neighbors.end(),
              [](const auto& a, const auto& b) { return a.rank < b.rank; });
    std::set<index_t> iface;
    for (const auto& nb : sub.neighbors)
      iface.insert(nb.shared_local_dofs.begin(), nb.shared_local_dofs.end());
    sub.interface_local_dofs.assign(iface.begin(), iface.end());
  }

  // Multiplicity and local matrices.
  for (int p = 0; p < nparts; ++p) {
    EddSubdomain& sub = part.subs[static_cast<std::size_t>(p)];
    sub.multiplicity.resize(sub.local_to_global.size());
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
      sub.multiplicity[l] = as_index(
          touching[static_cast<std::size_t>(sub.local_to_global[l])].size());
    sub.k_loc = fem::assemble_subset(mesh, dofs, mat, op, sub.elems,
                                     g2l[static_cast<std::size_t>(p)],
                                     sub.n_local());
  }
  return part;
}

sparse::CsrMatrix assemble_edd_local(const fem::Mesh& mesh,
                                     const fem::DofMap& dofs,
                                     const fem::Material& mat,
                                     fem::Operator op,
                                     const EddPartition& part, int s) {
  PFEM_CHECK(s >= 0 && s < part.nparts());
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  IndexVector g2l(static_cast<std::size_t>(part.n_global), -1);
  for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
    g2l[static_cast<std::size_t>(sub.local_to_global[l])] = as_index(l);
  return fem::assemble_subset(mesh, dofs, mat, op, sub.elems, g2l,
                              sub.n_local());
}

Vector edd_scatter(const EddPartition& part, int s,
                   std::span<const real_t> global) {
  PFEM_CHECK(s >= 0 && s < part.nparts());
  PFEM_CHECK(global.size() == static_cast<std::size_t>(part.n_global));
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  Vector local(sub.local_to_global.size());
  for (std::size_t l = 0; l < local.size(); ++l)
    local[l] = global[static_cast<std::size_t>(sub.local_to_global[l])];
  return local;
}

Vector edd_gather_local(const EddPartition& part,
                        const std::vector<Vector>& local_vectors) {
  PFEM_CHECK(local_vectors.size() == part.subs.size());
  Vector global(static_cast<std::size_t>(part.n_global), 0.0);
  for (std::size_t s = 0; s < part.subs.size(); ++s) {
    const EddSubdomain& sub = part.subs[s];
    PFEM_CHECK(local_vectors[s].size() == sub.local_to_global.size());
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
      global[static_cast<std::size_t>(sub.local_to_global[l])] +=
          local_vectors[s][l];
  }
  return global;
}

Vector edd_gather_global(const EddPartition& part,
                         const std::vector<Vector>& global_vectors) {
  PFEM_CHECK(global_vectors.size() == part.subs.size());
  Vector global(static_cast<std::size_t>(part.n_global), 0.0);
  std::vector<bool> seen(static_cast<std::size_t>(part.n_global), false);
  for (std::size_t s = 0; s < part.subs.size(); ++s) {
    const EddSubdomain& sub = part.subs[s];
    PFEM_CHECK(global_vectors[s].size() == sub.local_to_global.size());
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l) {
      const auto g = static_cast<std::size_t>(sub.local_to_global[l]);
      if (!seen[g]) {
        global[g] = global_vectors[s][l];
        seen[g] = true;
      }
    }
  }
  return global;
}

}  // namespace pfem::partition
