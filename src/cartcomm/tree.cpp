#include "cartcomm/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "mpl/error.hpp"

namespace cartcomm::detail {

AllgatherTree build_tree(const Neighborhood& nb, std::span<const int> perm) {
  const int d = nb.ndims();
  MPL_REQUIRE(perm.size() == static_cast<std::size_t>(d),
              "build_tree: permutation arity mismatch");

  AllgatherTree t;
  t.perm.assign(perm.begin(), perm.end());
  t.levels.emplace_back();
  {
    TreeNode root;
    root.members.resize(static_cast<std::size_t>(nb.count()));
    for (int i = 0; i < nb.count(); ++i) root.members[static_cast<std::size_t>(i)] = i;
    root.path.assign(static_cast<std::size_t>(d), 0);
    t.levels.back().push_back(std::move(root));
  }
  t.edges.resize(static_cast<std::size_t>(d));

  for (std::size_t level = 0; level < perm.size(); ++level) {
    const int k = perm[level];
    t.levels.emplace_back();
    std::vector<TreeNode>& cur = t.levels[level];
    std::vector<TreeNode>& nxt = t.levels[level + 1];
    for (std::size_t u = 0; u < cur.size(); ++u) {
      std::vector<int>& mem = cur[u].members;
      std::stable_sort(mem.begin(), mem.end(), [&](int a, int b) {
        return nb.coord(a, k) < nb.coord(b, k);
      });
      std::size_t s = 0;
      while (s < mem.size()) {
        const int c = nb.coord(mem[s], k);
        std::size_t e = s;
        while (e < mem.size() && nb.coord(mem[e], k) == c) ++e;
        TreeNode child;
        child.members.assign(mem.begin() + static_cast<std::ptrdiff_t>(s),
                             mem.begin() + static_cast<std::ptrdiff_t>(e));
        child.path = cur[u].path;
        child.path[static_cast<std::size_t>(k)] += c;
        child.parent = static_cast<int>(u);
        child.coordinate = c;
        if (c != 0) {
          t.edges[level].push_back(
              {static_cast<int>(u), static_cast<int>(nxt.size()), c});
        }
        nxt.push_back(std::move(child));
        s = e;
      }
    }
    // One round per distinct coordinate value: sort edges by value,
    // stably, so every process assembles identical rounds.
    std::stable_sort(t.edges[level].begin(), t.edges[level].end(),
                     [](const TreeEdge& a, const TreeEdge& b) {
                       return a.coordinate < b.coordinate;
                     });
  }
  return t;
}

TreeClasses classify(const AllgatherTree& t, bool distinct_leaves) {
  const std::size_t nlevels = t.levels.size();
  TreeClasses c;
  c.of.resize(nlevels);
  c.classes.resize(nlevels);
  // Leaves: keyed by the send blocks they contribute.
  {
    const std::vector<TreeNode>& leaves = t.levels.back();
    std::map<std::size_t, int> by_multiplicity;
    std::vector<int>& of = c.of.back();
    of.resize(leaves.size());
    for (std::size_t v = 0; v < leaves.size(); ++v) {
      int id = static_cast<int>(v);  // distinct blocks: every leaf its own
      if (!distinct_leaves) {
        id = by_multiplicity
                 .try_emplace(leaves[v].members.size(),
                              static_cast<int>(by_multiplicity.size()))
                 .first->second;
      }
      if (id == static_cast<int>(c.classes.back().size())) {
        c.classes.back().push_back({static_cast<int>(v), {}});
      }
      of[v] = id;
    }
  }
  // Inner levels, deepest first: keyed by (coordinate, child class). The
  // children of cur[u] are the contiguous run of nxt whose parent is u.
  std::vector<std::pair<int, int>> key;
  std::unordered_map<std::uint64_t, int> by_hash;
  for (std::size_t level = nlevels - 1; level-- > 0;) {
    const std::vector<TreeNode>& cur = t.levels[level];
    const std::vector<TreeNode>& nxt = t.levels[level + 1];
    std::vector<TreeClass>& classes = c.classes[level];
    std::vector<int>& of = c.of[level];
    of.resize(cur.size());
    by_hash.clear();
    std::size_t v = 0;
    for (std::size_t u = 0; u < cur.size(); ++u) {
      key.clear();
      std::uint64_t h = 1469598103934665603ull;
      for (; v < nxt.size() && nxt[v].parent == static_cast<int>(u); ++v) {
        key.emplace_back(nxt[v].coordinate, c.of[level + 1][v]);
        for (const int x : {key.back().first, key.back().second}) {
          h = (h ^ static_cast<std::uint32_t>(x)) * 1099511628211ull;
        }
      }
      const auto [it, fresh] =
          by_hash.try_emplace(h, static_cast<int>(classes.size()));
      int id = it->second;
      if (!fresh && classes[static_cast<std::size_t>(id)].children != key) {
        // Hash collision: fall back to a scan of this level's classes.
        id = -1;
        for (std::size_t j = 0; j < classes.size() && id < 0; ++j) {
          if (classes[j].children == key) id = static_cast<int>(j);
        }
      }
      if (fresh || id < 0) {
        id = static_cast<int>(classes.size());
        classes.push_back({static_cast<int>(u), key});
      }
      of[u] = id;
    }
  }
  return c;
}

}  // namespace cartcomm::detail
