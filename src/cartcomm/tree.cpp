#include "cartcomm/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "mpl/error.hpp"

namespace cartcomm::detail {

AllgatherTree build_tree(const Neighborhood& nb, std::span<const int> perm) {
  MPL_REQUIRE(perm.size() == static_cast<std::size_t>(nb.ndims()),
              "build_tree: permutation arity mismatch");
  const std::size_t t = static_cast<std::size_t>(nb.count());

  AllgatherTree tr;
  tr.perm.assign(perm.begin(), perm.end());
  tr.order.resize(t);
  std::iota(tr.order.begin(), tr.order.end(), 0);
  tr.nodes.push_back({0, static_cast<int>(t), -1, 0});
  tr.level_begin = {0, 1};
  tr.edge_begin = {0};

  // Per position of the current order: its node in this level, then its
  // member, node and coordinate in stable coordinate order.
  std::vector<int> node_at(t, 0), key(t), sm(t), sn(t), sc(t), child, fill;
  for (std::size_t level = 0; level < perm.size(); ++level) {
    const int k = perm[level];
    for (std::size_t p = 0; p < t; ++p) key[p] = nb.coord(tr.order[p], k);
    // A value's positions stay in order, so each (value, node) group is a
    // contiguous run, and the groups come in (value, node) order — the
    // order of the level's edges.
    stable_order(key, [&](std::size_t x, std::size_t p) {
      sm[x] = tr.order[p];
      sn[x] = node_at[p];
      sc[x] = key[p];
    });
    auto starts_group = [&](std::size_t x) {
      return x == 0 || sc[x] != sc[x - 1] || sn[x] != sn[x - 1];
    };
    // child[u]: u's first child in the next level; a node's children
    // are its distinct values, numbered in increasing value.
    const std::size_t first = static_cast<std::size_t>(tr.level_begin[level]);
    const std::size_t width = tr.nodes.size() - first;
    child.assign(width + 1, 0);
    for (std::size_t x = 0; x < t; ++x) {
      if (starts_group(x)) ++child[static_cast<std::size_t>(sn[x]) + 1];
    }
    std::partial_sum(child.begin(), child.end(), child.begin());
    fill.resize(width);
    for (std::size_t u = 0; u < width; ++u) fill[u] = tr.nodes[first + u].begin;
    const std::size_t base = tr.nodes.size();
    tr.nodes.resize(base + static_cast<std::size_t>(child[width]));
    tr.all_edges.reserve(tr.all_edges.size() + static_cast<std::size_t>(child[width]));
    // Place the members; a group's node ends where the next node begins.
    int cur = 0;
    std::size_t u = 0, id = 0;
    for (std::size_t x = 0; x < t; ++x) {
      if (starts_group(x)) {
        if (x > 0) fill[u] = cur;
        u = static_cast<std::size_t>(sn[x]);
        id = static_cast<std::size_t>(child[u]++);
        cur = fill[u];
        tr.nodes[base + id] = {cur, static_cast<int>(t), sn[x], sc[x]};
        if (sc[x] != 0) tr.all_edges.push_back({sn[x], static_cast<int>(id), sc[x]});
      }
      key[static_cast<std::size_t>(cur)] = static_cast<int>(id);
      tr.order[static_cast<std::size_t>(cur++)] = sm[x];
    }
    for (std::size_t v = base; v + 1 < tr.nodes.size(); ++v) {
      tr.nodes[v].end = tr.nodes[v + 1].begin;
    }
    node_at.swap(key);  // the new order's nodes
    tr.level_begin.push_back(static_cast<int>(tr.nodes.size()));
    tr.edge_begin.push_back(static_cast<int>(tr.all_edges.size()));
  }
  return tr;
}

TreeClasses classify(const AllgatherTree& t, bool distinct_leaves) {
  const std::size_t nlevels = t.levels();
  TreeClasses c;
  c.of.resize(nlevels);
  c.classes.resize(nlevels);
  // Leaves: keyed by the send blocks they contribute.
  {
    const std::span<const TreeNode> leaves = t.level(nlevels - 1);
    std::vector<int> by_multiplicity(t.order.size() + 1, -1);
    std::vector<int>& of = c.of.back();
    of.resize(leaves.size());
    for (std::size_t v = 0; v < leaves.size(); ++v) {
      int id = static_cast<int>(v);  // distinct blocks: every leaf its own
      if (!distinct_leaves) {
        int& m = by_multiplicity[static_cast<std::size_t>(leaves[v].end -
                                                          leaves[v].begin)];
        if (m < 0) m = static_cast<int>(c.classes.back().size());
        id = m;
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
    const std::span<const TreeNode> cur = t.level(level);
    const std::span<const TreeNode> nxt = t.level(level + 1);
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
