// The allgather routing tree of Algorithm 2, factored out so that both the
// allgather schedule builder and the message-combining Cartesian reduction
// (which runs the tree in reverse, sharing equal subtrees) use one
// construction.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "cartcomm/neighborhood.hpp"

namespace cartcomm::detail {

struct TreeNode {
  std::vector<int> members;  ///< neighbor indices sharing this prefix
  std::vector<int> path;     ///< accumulated offset (full arity)
  int parent = -1;           ///< index in the previous level (-1 for root)
  int coordinate = 0;        ///< k-th coordinate of the edge from the parent
};

/// A communicated (non-zero coordinate) edge between consecutive levels.
struct TreeEdge {
  int parent;      ///< node index in levels[level]
  int child;       ///< node index in levels[level + 1]
  int coordinate;  ///< the non-zero k-th coordinate value
};

struct AllgatherTree {
  /// levels[0] holds the root; levels[l+1] the nodes after processing
  /// dimension perm[l]. Members within each node are stably sorted by the
  /// processed coordinate, identically on every process. The children of
  /// a node are contiguous in the next level, in increasing coordinate.
  std::vector<std::vector<TreeNode>> levels;
  /// edges[l]: communicated edges between levels l and l+1, stably sorted
  /// by coordinate (one round per distinct value: C_k rounds).
  std::vector<std::vector<TreeEdge>> edges;
  std::vector<int> perm;  ///< dimension processed at each level
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
