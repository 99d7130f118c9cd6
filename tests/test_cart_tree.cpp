// Property test for the flat allgather routing tree (cartcomm/tree.hpp):
// on randomly drawn neighborhoods and every dimension order, the flat
// tree, its hash-consed classes and the volumes derived from it must
// equal a straightforward recursive grouping kept here as the reference —
// one member list per node, grouped by a stable comparison sort
// level by level, edges sorted by coordinate, classes keyed through
// ordered maps. The tree reads no grid, so drawing the neighborhood
// covers tori and meshes alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cartcomm/analysis.hpp"
#include "cartcomm/tree.hpp"

using cartcomm::DimOrder;
using cartcomm::Neighborhood;

namespace {

struct RefNode {
  std::vector<int> members;  // increasing index order
  int parent = -1;
  int coordinate = 0;
};

struct RefEdge {
  int parent, child, coordinate;
};

struct RefTree {
  std::vector<std::vector<RefNode>> levels;
  std::vector<std::vector<RefEdge>> edges;
};

RefTree ref_tree(const Neighborhood& nb, const std::vector<int>& perm) {
  RefTree t;
  RefNode root;
  for (int i = 0; i < nb.count(); ++i) root.members.push_back(i);
  t.levels.push_back({root});
  for (std::size_t level = 0; level < perm.size(); ++level) {
    const int k = perm[level];
    std::vector<RefNode> next;
    std::vector<RefEdge> edges;
    for (std::size_t u = 0; u < t.levels[level].size(); ++u) {
      std::vector<int> mem = t.levels[level][u].members;
      std::stable_sort(mem.begin(), mem.end(), [&](int a, int b) {
        return nb.coord(a, k) < nb.coord(b, k);
      });
      for (std::size_t s = 0; s < mem.size();) {
        const int c = nb.coord(mem[s], k);
        RefNode child;
        child.parent = static_cast<int>(u);
        child.coordinate = c;
        for (; s < mem.size() && nb.coord(mem[s], k) == c; ++s) {
          child.members.push_back(mem[s]);
        }
        std::sort(child.members.begin(), child.members.end());
        if (c != 0) edges.push_back({static_cast<int>(u), static_cast<int>(next.size()), c});
        next.push_back(std::move(child));
      }
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const RefEdge& a, const RefEdge& b) {
                       return a.coordinate < b.coordinate;
                     });
    t.levels.push_back(std::move(next));
    t.edges.push_back(std::move(edges));
  }
  return t;
}

struct RefClasses {
  std::vector<std::vector<int>> of;
  std::vector<std::vector<std::pair<int, std::vector<std::pair<int, int>>>>> classes;
};

RefClasses ref_classify(const RefTree& t, bool distinct_leaves) {
  const std::size_t nlevels = t.levels.size();
  RefClasses c;
  c.of.resize(nlevels);
  c.classes.resize(nlevels);
  std::map<std::size_t, int> by_multiplicity;
  for (std::size_t v = 0; v < t.levels.back().size(); ++v) {
    int id = static_cast<int>(v);
    if (!distinct_leaves) {
      id = by_multiplicity
               .try_emplace(t.levels.back()[v].members.size(),
                            static_cast<int>(by_multiplicity.size()))
               .first->second;
    }
    if (id == static_cast<int>(c.classes.back().size())) {
      c.classes.back().push_back({static_cast<int>(v), {}});
    }
    c.of.back().push_back(id);
  }
  for (std::size_t level = nlevels - 1; level-- > 0;) {
    std::map<std::vector<std::pair<int, int>>, int> by_key;
    for (std::size_t u = 0; u < t.levels[level].size(); ++u) {
      std::vector<std::pair<int, int>> key;
      for (std::size_t v = 0; v < t.levels[level + 1].size(); ++v) {
        if (t.levels[level + 1][v].parent == static_cast<int>(u)) {
          key.emplace_back(t.levels[level + 1][v].coordinate, c.of[level + 1][v]);
        }
      }
      const auto [it, fresh] =
          by_key.try_emplace(key, static_cast<int>(c.classes[level].size()));
      if (fresh) c.classes[level].push_back({static_cast<int>(u), key});
      c.of[level].push_back(it->second);
    }
  }
  return c;
}

long long ref_reduce_volume(const RefTree& t, const RefClasses& dag) {
  long long v = 0;
  for (std::size_t level = 0; level < t.edges.size(); ++level) {
    std::set<std::pair<int, int>> carried;
    for (const RefEdge& e : t.edges[level]) {
      carried.emplace(e.coordinate,
                      dag.of[level + 1][static_cast<std::size_t>(e.child)]);
    }
    v += static_cast<long long>(carried.size());
  }
  return v;
}

std::string describe(const Neighborhood& nb, const std::vector<int>& perm) {
  std::ostringstream os;
  os << "d=" << nb.ndims() << " perm=[";
  for (const int k : perm) os << k << ' ';
  os << "] offsets=[";
  for (const int c : nb.flat()) os << c << ' ';
  os << ']';
  return os.str();
}

void expect_equal_trees(const Neighborhood& nb, const std::vector<int>& perm) {
  SCOPED_TRACE(describe(nb, perm));
  const RefTree ref = ref_tree(nb, perm);
  const cartcomm::detail::AllgatherTree flat = cartcomm::detail::build_tree(nb, perm);
  ASSERT_EQ(flat.levels(), ref.levels.size());
  for (std::size_t level = 0; level < ref.levels.size(); ++level) {
    const auto nodes = flat.level(level);
    ASSERT_EQ(nodes.size(), ref.levels[level].size()) << "level " << level;
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      const RefNode& r = ref.levels[level][v];
      EXPECT_EQ(nodes[v].parent, r.parent);
      EXPECT_EQ(nodes[v].coordinate, r.coordinate);
      const auto mem = flat.members(nodes[v]);
      std::vector<int> got(mem.begin(), mem.end());
      if (level + 1 < ref.levels.size()) std::sort(got.begin(), got.end());
      EXPECT_EQ(got, r.members) << "level " << level << " node " << v;
    }
  }
  for (std::size_t level = 0; level < ref.edges.size(); ++level) {
    const auto edges = flat.edges(level);
    ASSERT_EQ(edges.size(), ref.edges[level].size());
    for (std::size_t q = 0; q < edges.size(); ++q) {
      EXPECT_EQ(edges[q].parent, ref.edges[level][q].parent);
      EXPECT_EQ(edges[q].child, ref.edges[level][q].child);
      EXPECT_EQ(edges[q].coordinate, ref.edges[level][q].coordinate);
    }
  }
  for (const bool distinct : {false, true}) {
    const RefClasses rc = ref_classify(ref, distinct);
    const cartcomm::detail::TreeClasses fc = cartcomm::detail::classify(flat, distinct);
    EXPECT_EQ(fc.of, rc.of);
    ASSERT_EQ(fc.classes.size(), rc.classes.size());
    for (std::size_t level = 0; level < rc.classes.size(); ++level) {
      ASSERT_EQ(fc.classes[level].size(), rc.classes[level].size());
      for (std::size_t x = 0; x < rc.classes[level].size(); ++x) {
        EXPECT_EQ(fc.classes[level][x].rep, rc.classes[level][x].first);
        EXPECT_EQ(fc.classes[level][x].children, rc.classes[level][x].second);
      }
    }
  }
  long long edges = 0;
  for (const auto& e : ref.edges) edges += static_cast<long long>(e.size());
  EXPECT_EQ(cartcomm::allgather_volume(nb, perm), edges);
  EXPECT_EQ(cartcomm::reduce_volume(nb, perm),
            ref_reduce_volume(ref, ref_classify(ref, false)));
}

}  // namespace

TEST(CartTree, FlatTreeMatchesRecursiveGroupingOnDrawnNeighborhoods) {
  std::mt19937_64 rng(20261020);
  for (int iter = 0; iter < 300; ++iter) {
    const int d = 1 + static_cast<int>(rng() % 5);
    const int t = static_cast<int>(rng() % 40);
    // Mostly small offsets, so values and prefixes repeat; now and then a
    // wide range, which takes the comparison-sort path.
    const int span = iter % 10 == 9 ? 4000 : 1 + static_cast<int>(rng() % 6);
    std::vector<int> flat(static_cast<std::size_t>(t * d));
    for (int& c : flat) c = static_cast<int>(rng() % (2 * span + 1)) - span;
    if (t > 1 && rng() % 2 == 0) {  // a duplicated neighbor
      std::copy_n(flat.begin(), d, flat.end() - d);
    }
    const Neighborhood nb(d, std::move(flat));
    for (int k = 0; k < d; ++k) {  // C_k, wide ranges included
      std::set<int> values;
      for (int i = 0; i < t; ++i) {
        if (nb.coord(i, k) != 0) values.insert(nb.coord(i, k));
      }
      EXPECT_EQ(nb.distinct_nonzero(k), static_cast<int>(values.size()));
    }
    for (const DimOrder order :
         {DimOrder::natural, DimOrder::increasing_ck, DimOrder::decreasing_ck}) {
      expect_equal_trees(nb, cartcomm::dimension_order(nb, order));
    }
    std::vector<int> perm = cartcomm::dimension_order(nb, DimOrder::natural);
    std::shuffle(perm.begin(), perm.end(), rng);
    expect_equal_trees(nb, perm);
    if (HasFailure()) return;
  }
}

TEST(CartTree, FlatTreeMatchesRecursiveGroupingOnTheStencilFamily) {
  for (const Neighborhood& nb :
       {Neighborhood::stencil(5, 3, -1), Neighborhood::stencil(3, 4, -1),
        Neighborhood::moore(2, 2), Neighborhood::von_neumann(4, true),
        Neighborhood::von_neumann(3)}) {
    for (const DimOrder order :
         {DimOrder::natural, DimOrder::increasing_ck, DimOrder::decreasing_ck}) {
      expect_equal_trees(nb, cartcomm::dimension_order(nb, order));
    }
  }
}
