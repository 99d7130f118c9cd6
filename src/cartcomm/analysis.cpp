#include "cartcomm/analysis.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "cartcomm/tree.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

std::vector<int> dimension_order(const Neighborhood& nb, DimOrder order) {
  const int d = nb.ndims();
  std::vector<int> perm(static_cast<std::size_t>(d));
  std::iota(perm.begin(), perm.end(), 0);
  if (order == DimOrder::natural) return perm;
  const std::vector<int> ck = nb.distinct_nonzero_per_dim();
  std::stable_sort(perm.begin(), perm.end(), [&](int a, int b) {
    const int ca = ck[static_cast<std::size_t>(a)];
    const int cb = ck[static_cast<std::size_t>(b)];
    return order == DimOrder::increasing_ck ? ca < cb : ca > cb;
  });
  return perm;
}

namespace {

// Count tree edges for the members `idx` of `nb`, expanding dimensions
// perm[level], perm[level+1], ... Each distinct non-zero coordinate value
// among the members adds one edge (one copy of the data block) plus the
// edges of its subtree; members with coordinate zero stay on this process
// and continue at the next level without an edge.
long long subtree_edges(const Neighborhood& nb, std::span<const int> perm,
                        std::vector<int>& idx, std::size_t level) {
  if (level == perm.size() || idx.empty()) return 0;
  const int k = perm[level];
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return nb.coord(a, k) < nb.coord(b, k); });
  long long edges = 0;
  std::size_t s = 0;
  while (s < idx.size()) {
    std::size_t e = s;
    while (e < idx.size() && nb.coord(idx[e], k) == nb.coord(idx[s], k)) ++e;
    std::vector<int> group(idx.begin() + static_cast<std::ptrdiff_t>(s),
                           idx.begin() + static_cast<std::ptrdiff_t>(e));
    const bool moves = nb.coord(idx[s], k) != 0;
    edges += (moves ? 1 : 0) + subtree_edges(nb, perm, group, level + 1);
    s = e;
  }
  return edges;
}

}  // namespace

long long allgather_volume(const Neighborhood& nb, std::span<const int> perm) {
  MPL_REQUIRE(perm.size() == static_cast<std::size_t>(nb.ndims()),
              "allgather_volume: permutation arity mismatch");
  std::vector<int> idx(static_cast<std::size_t>(nb.count()));
  std::iota(idx.begin(), idx.end(), 0);
  return subtree_edges(nb, perm, idx, 0);
}

long long allgather_volume(const Neighborhood& nb, DimOrder order) {
  return allgather_volume(nb, dimension_order(nb, order));
}

long long reduce_volume(const Neighborhood& nb, std::span<const int> perm) {
  const detail::AllgatherTree tree = detail::build_tree(nb, perm);
  const detail::TreeClasses dag = detail::classify(tree, false);
  long long v = 0;
  std::set<std::pair<int, int>> carried;
  for (std::size_t level = 0; level < tree.edges.size(); ++level) {
    carried.clear();
    for (const detail::TreeEdge& e : tree.edges[level]) {
      carried.emplace(e.coordinate,
                      dag.of[level + 1][static_cast<std::size_t>(e.child)]);
    }
    v += static_cast<long long>(carried.size());
  }
  return v;
}

long long reduce_volume(const Neighborhood& nb, DimOrder order) {
  return reduce_volume(nb, dimension_order(nb, order));
}

NeighborhoodStats analyze(const Neighborhood& nb) {
  NeighborhoodStats s;
  s.t = nb.count();
  s.trivial_rounds = nb.trivial_rounds();
  s.combining_rounds = nb.combining_rounds();
  s.alltoall_volume = nb.alltoall_volume();
  s.allgather_volume = allgather_volume(nb, DimOrder::increasing_ck);
  const long long denom = s.alltoall_volume - s.t;
  if (denom <= 0) {
    s.cutoff_ratio = std::numeric_limits<double>::infinity();
  } else {
    s.cutoff_ratio =
        static_cast<double>(s.t - s.combining_rounds) / static_cast<double>(denom);
  }
  return s;
}

double predicted_cutoff_bytes(const NeighborhoodStats& stats,
                              const mpl::NetConfig& net) {
  // Linear cost per send-receive: alpha + beta*m with alpha ~ L + 2o (per
  // message fixed cost in the LogGP model). Combined messages additionally
  // pay the datatype-engine packing cost at both ends, so their effective
  // per-byte rate is G + 2*G_pack.
  const double alpha = net.L + 2.0 * net.o;
  const double beta = net.G + 2.0 * net.G_pack;
  if (beta <= 0.0) return std::numeric_limits<double>::infinity();
  return (alpha / beta) * stats.cutoff_ratio;
}

}  // namespace cartcomm
