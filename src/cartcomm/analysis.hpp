// Schedule analysis: communication rounds, volumes, and the cut-off
// threshold of Section 3 (Propositions 3.1-3.3, Table 1).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "cartcomm/neighborhood.hpp"
#include "mpl/netmodel.hpp"

namespace cartcomm {

/// Dimension processing order for the allgather tree (Section 3.2 /
/// Figure 2). The paper prefers increasing C_k; the others exist for the
/// ablation study.
enum class DimOrder { natural, increasing_ck, decreasing_ck };

/// Permutation of dimensions according to `order` (ties by dimension index).
std::vector<int> dimension_order(const Neighborhood& nb, DimOrder order);

/// Number of edges of the allgather routing tree built in the given
/// dimension permutation — the per-process allgather communication volume
/// (Proposition 3.3).
long long allgather_volume(const Neighborhood& nb, std::span<const int> perm);

/// Convenience: allgather volume for a DimOrder policy.
long long allgather_volume(const Neighborhood& nb,
                           DimOrder order = DimOrder::increasing_ck);

/// Per-process volume of the message-combining neighbor reduce built in the
/// given dimension permutation: the number of distinct (level, coordinate,
/// class) triples of the tree hash-consed into its shared-partial DAG
/// (tree.hpp), one block each. Never above allgather_volume; C on product
/// neighborhoods, where every level holds one class. reduce_scatter has
/// no equal subtrees and moves allgather_volume blocks.
long long reduce_volume(const Neighborhood& nb, std::span<const int> perm);

/// Convenience: reduce volume for a DimOrder policy.
long long reduce_volume(const Neighborhood& nb,
                        DimOrder order = DimOrder::increasing_ck);

/// Summary statistics for one neighborhood (one row of Table 1).
struct NeighborhoodStats {
  int t = 0;                ///< neighborhood size (list length, self included)
  int trivial_rounds = 0;   ///< rounds of the trivial algorithm (non-zero vectors)
  int combining_rounds = 0; ///< C = sum of C_k
  long long alltoall_volume = 0;   ///< V = sum of z_i
  long long allgather_volume = 0;  ///< tree edges, increasing-C_k order
  /// Cut-off ratio (t - C)/(V - t) from Section 3.1; the message-combining
  /// alltoall wins for block sizes m < (alpha/beta) * cutoff_ratio. Table 1
  /// computes this with t = the full list length (self included), which is
  /// the convention used here. +infinity when V <= t (combining never loses
  /// on volume).
  double cutoff_ratio = 0.0;
};

NeighborhoodStats analyze(const Neighborhood& nb);

/// Block size in bytes below which the message-combining alltoall is
/// predicted to beat the trivial algorithm under the given cost model
/// (alpha = L + 2o per message, beta = G per byte).
double predicted_cutoff_bytes(const NeighborhoodStats& stats,
                              const mpl::NetConfig& net);

}  // namespace cartcomm
