// The allgather routing tree of Algorithm 2, factored out so that both the
// allgather schedule builder and the message-combining Cartesian reduction
// (which runs the tree in reverse, sharing equal subtrees) use one
// construction. It is flat: one permutation of the neighbor indices, in
// which every node's members are a range, and per-level node and edge
// ranges, built in O(t·d + coordinate ranges) with O(d) allocations.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "cartcomm/neighborhood.hpp"

namespace cartcomm::detail {

struct TreeNode {
  int begin = 0;       ///< members: AllgatherTree::order[begin, end)
  int end = 0;
  int parent = -1;     ///< index in the previous level (-1 for root)
  int coordinate = 0;  ///< k-th coordinate of the edge from the parent
};

/// A communicated (non-zero coordinate) edge between consecutive levels.
struct TreeEdge {
  int parent;      ///< node index in level(l)
  int child;       ///< node index in level(l + 1)
  int coordinate;  ///< the non-zero k-th coordinate value
};

struct AllgatherTree {
  std::vector<int> perm;   ///< dimension processed at each level
  std::vector<int> order;  ///< neighbor indices; each node a contiguous range
  /// Level l is nodes[level_begin[l], level_begin[l+1]): the root, then the
  /// nodes after processing dimension perm[l-1]. A node's children are
  /// contiguous in the next level, in increasing coordinate; a leaf's
  /// members are in increasing index order.
  std::vector<TreeNode> nodes;
  std::vector<int> level_begin;
  /// Communicated edges between levels l and l+1, sorted by coordinate and
  /// then by parent (one round per distinct value: C_k rounds).
  std::vector<TreeEdge> all_edges;
  std::vector<int> edge_begin;

  [[nodiscard]] std::size_t levels() const { return level_begin.size() - 1; }
  [[nodiscard]] std::span<const TreeNode> level(std::size_t l) const {
    return std::span(nodes).subspan(
        static_cast<std::size_t>(level_begin[l]),
        static_cast<std::size_t>(level_begin[l + 1] - level_begin[l]));
  }
  [[nodiscard]] std::span<const TreeEdge> edges(std::size_t l) const {
    return std::span(all_edges).subspan(
        static_cast<std::size_t>(edge_begin[l]),
        static_cast<std::size_t>(edge_begin[l + 1] - edge_begin[l]));
  }
  [[nodiscard]] std::span<const int> members(const TreeNode& n) const {
    return std::span(order).subspan(static_cast<std::size_t>(n.begin),
                                    static_cast<std::size_t>(n.end - n.begin));
  }
};

AllgatherTree build_tree(const Neighborhood& nb, std::span<const int> perm);

/// One class of equal subtrees at one tree level (see classify).
struct TreeClass {
  int rep = -1;  ///< first node of the class in its level
  /// (coordinate, child class) of each child, in increasing coordinate;
  /// empty at the leaf level.
  std::vector<std::pair<int, int>> children;
};

/// The tree hash-consed bottom-up into per-level classes: the DAG a
/// reduction runs. A node's partial aggregate at a process depends only on
/// which send blocks its subtree contributes from which relative offsets,
/// so nodes of one class compute the same partial and one message can
/// carry it for all of them. A leaf is keyed by the send blocks it
/// contributes: the multiplicity of block 0 for a neighbor reduce (every
/// source contributes the same block), the members' own block indices
/// when `distinct_leaves` (reduce_scatter: no two leaves are equal, so the
/// DAG is the tree). An inner node is keyed by its children's
/// (coordinate, class) pairs.
struct TreeClasses {
  std::vector<std::vector<int>> of;  ///< of[level][node]: class id
  /// classes[level][id], ids numbered in order of first occurrence.
  std::vector<std::vector<TreeClass>> classes;
};

TreeClasses classify(const AllgatherTree& t, bool distinct_leaves);

}  // namespace cartcomm::detail
