#include "cartcomm/analysis.hpp"

#include <algorithm>
#include <numeric>

#include "cartcomm/tree.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

namespace {

// The dimensions ordered by their C_k values `ck` (ties by index).
std::vector<int> order_by_ck(std::span<const int> ck, DimOrder order) {
  std::vector<int> perm(ck.size());
  std::iota(perm.begin(), perm.end(), 0);
  if (order == DimOrder::natural) return perm;
  std::stable_sort(perm.begin(), perm.end(), [&](int a, int b) {
    const int ca = ck[static_cast<std::size_t>(a)];
    const int cb = ck[static_cast<std::size_t>(b)];
    return order == DimOrder::increasing_ck ? ca < cb : ca > cb;
  });
  return perm;
}

}  // namespace

std::vector<int> dimension_order(const Neighborhood& nb, DimOrder order) {
  return order_by_ck(order == DimOrder::natural
                         ? std::vector<int>(static_cast<std::size_t>(nb.ndims()))
                         : nb.distinct_nonzero_per_dim(),
                     order);
}

long long allgather_volume(const Neighborhood& nb, std::span<const int> perm) {
  return static_cast<long long>(detail::build_tree(nb, perm).all_edges.size());
}

long long allgather_volume(const Neighborhood& nb, DimOrder order) {
  return allgather_volume(nb, dimension_order(nb, order));
}

long long reduce_volume(const Neighborhood& nb, std::span<const int> perm) {
  const detail::AllgatherTree tree = detail::build_tree(nb, perm);
  const detail::TreeClasses dag = detail::classify(tree, false);
  // A level's edges come sorted by coordinate: count each child class
  // once per run of equal coordinates.
  long long v = 0;
  std::vector<int> run_of;  // child class -> start of the run that carried it
  for (std::size_t level = 0; level + 1 < tree.levels(); ++level) {
    const std::span<const detail::TreeEdge> edges = tree.edges(level);
    run_of.assign(dag.classes[level + 1].size(), -1);
    int run = 0;
    for (std::size_t q = 0; q < edges.size(); ++q) {
      if (edges[q].coordinate != edges[static_cast<std::size_t>(run)].coordinate) {
        run = static_cast<int>(q);
      }
      int& r = run_of[static_cast<std::size_t>(
          dag.of[level + 1][static_cast<std::size_t>(edges[q].child)])];
      v += r != run;
      r = run;
    }
  }
  return v;
}

long long reduce_volume(const Neighborhood& nb, DimOrder order) {
  return reduce_volume(nb, dimension_order(nb, order));
}

NeighborhoodStats analyze(const Neighborhood& nb) {
  NeighborhoodStats s;
  s.t = nb.count();
  for (int i = 0; i < s.t; ++i) {
    const int z = nb.nonzeros(i);
    s.trivial_rounds += z > 0;
    s.alltoall_volume += z;
  }
  const std::vector<int> ck = nb.distinct_nonzero_per_dim();
  s.combining_rounds = std::accumulate(ck.begin(), ck.end(), 0);
  s.allgather_volume =
      allgather_volume(nb, order_by_ck(ck, DimOrder::increasing_ck));
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
