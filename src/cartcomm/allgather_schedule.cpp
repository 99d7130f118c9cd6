// Algorithm 2: computation of the message-combining allgather schedule.
//
// The block of each process is routed along the tree built by
// detail::build_tree (dimensions explored in a configurable order, by
// default increasing C_k as in the paper): in the phase for dimension k,
// all distinct non-zero k-th coordinates among that level's edges form the
// rounds, and all subtree blocks traveling to the same relative process
// are combined into one message. Per-process volume = number of tree
// edges.
//
// Storage: every communicated tree node parks its block either directly in
// the receive slot of a member that terminates at that node (all remaining
// coordinates zero), or in a dedicated temp slot. Duplicated terminating
// members are served by local copies in the final phase, as is the zero
// vector (copied from the send buffer).
//
// The walk below runs in the *compile* step and records an abstract
// placement program (CompiledPlan); build_allgather_schedule routes it
// through the plan cache and binds the program to the caller's buffers.
#include <algorithm>
#include <vector>

#include "cartcomm/build_schedule.hpp"
#include "cartcomm/plan.hpp"
#include "cartcomm/tree.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

namespace {

// Where a tree node's block instance lives on this process.
struct Storage {
  bool is_recv = false;
  int recv_slot = -1;  // member index when is_recv
  int temp_slot = -1;  // temp pool slot otherwise; -1 = the send buffer
};

}  // namespace

CompiledPlan compile_allgather_plan(const CartNeighborComm& cc,
                                    std::size_t block_bytes, DimOrder order) {
  const Neighborhood& nb = cc.neighborhood();
  const int d = nb.ndims();
  const std::size_t m = block_bytes;

  const std::vector<int> perm = dimension_order(nb, order);
  const detail::AllgatherTree tree = detail::build_tree(nb, perm);
  const std::size_t nlevels = tree.levels();
  auto first = [&](std::size_t level) {
    return static_cast<std::size_t>(tree.level_begin[level]);
  };

  // Member i terminates at level L (its coordinates in perm[L..d-1] are
  // all zero) iff L >= last[i], the level after its last non-zero hop.
  std::vector<std::size_t> last(static_cast<std::size_t>(nb.count()), 0);
  for (std::size_t l = 0; l < perm.size(); ++l) {
    for (int i = 0; i < nb.count(); ++i) {
      if (nb.coord(i, perm[l]) != 0) last[static_cast<std::size_t>(i)] = l + 1;
    }
  }

  // Assign storage (indexed like tree.nodes): root = send buffer;
  // zero-coordinate children inherit; communicated children park at a
  // terminating member's receive slot or in a fresh temp slot.
  std::vector<Storage> storage(tree.nodes.size());  // root: the send buffer
  int temp_slots = 0;
  for (std::size_t level = 1; level < nlevels; ++level) {
    const std::span<const detail::TreeNode> nodes = tree.level(level);
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      const detail::TreeNode& n = nodes[v];
      Storage& s = storage[first(level) + v];
      if (n.coordinate == 0) {
        s = storage[first(level - 1) + static_cast<std::size_t>(n.parent)];
        continue;
      }
      const std::span<const int> mem = tree.members(n);
      const auto term = std::find_if(mem.begin(), mem.end(), [&](int i) {
        return last[static_cast<std::size_t>(i)] <= level;
      });
      if (term != mem.end()) {
        s.is_recv = true;
        s.recv_slot = *term;
      } else {
        s.temp_slot = temp_slots++;
      }
    }
  }

  PlanBuilder builder;
  builder.allocate_temp(static_cast<std::size_t>(temp_slots) * m);

  auto placement = [&](const Storage& s) -> PlanPlacement {
    if (s.is_recv) return {PlanPlacement::Kind::recv_block, s.recv_slot};
    if (s.temp_slot < 0) return {PlanPlacement::Kind::send_block, 0};  // the one
    return {PlanPlacement::Kind::temp, 0, static_cast<std::size_t>(s.temp_slot) * m, m};
  };

  // origin[v] (indexed like tree.nodes): the instance of node v held here
  // originates at R - path(v) on the mesh (always, on tori). A node's path
  // is its parent's plus its coordinate in the dimension of its level.
  std::vector<char> origin(tree.nodes.size(), 1);
  for (std::size_t level = 1; level < nlevels; ++level) {
    const std::span<const detail::TreeNode> nodes = tree.level(level);
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      origin[first(level) + v] =
          origin[first(level - 1) + static_cast<std::size_t>(nodes[v].parent)] &&
          cc.on_mesh(perm[level - 1], -nodes[v].coordinate);
    }
  }
  auto origin_valid = [&](std::size_t level, int node) {
    return origin[first(level) + static_cast<std::size_t>(node)] != 0;
  };

  std::vector<int> offv(static_cast<std::size_t>(d), 0);
  for (std::size_t level = 0; level < perm.size(); ++level) {
    const int k = perm[level];
    const std::span<const detail::TreeEdge> evec = tree.edges(level);
    std::size_t s = 0;
    while (s < evec.size()) {
      const int c = evec[s].coordinate;
      std::size_t e = s;
      while (e < evec.size() && evec[e].coordinate == c) ++e;
      PlanRound round;
      round.send_items.reserve(e - s);
      round.recv_items.reserve(e - s);
      for (std::size_t q = s; q < e; ++q) {
        if (origin_valid(level, evec[q].parent)) {
          round.send_items.push_back(placement(
              storage[first(level) + static_cast<std::size_t>(evec[q].parent)]));
          ++round.blocks_sent;
        }
        if (origin_valid(level + 1, evec[q].child)) {
          round.recv_items.push_back(placement(
              storage[first(level + 1) + static_cast<std::size_t>(evec[q].child)]));
        }
      }
      offv[static_cast<std::size_t>(k)] = c;
      round.offset = offv;
      offv[static_cast<std::size_t>(k)] = 0;
      builder.add_round(std::move(round));
      s = e;
    }
    builder.end_phase();
  }

  // Final phase: local copies for every member whose receive slot is not
  // the parking location of its leaf node (duplicates and the self block).
  const std::span<const detail::TreeNode> leaves = tree.level(nlevels - 1);
  for (std::size_t v = 0; v < leaves.size(); ++v) {
    // Source off the mesh: untouched.
    if (!origin_valid(nlevels - 1, static_cast<int>(v))) continue;
    const Storage& s = storage[first(nlevels - 1) + v];
    for (const int i : tree.members(leaves[v])) {
      if (s.is_recv && s.recv_slot == i) continue;
      builder.add_copy(placement(s), {PlanPlacement::Kind::recv_block, i});
    }
  }
  return builder.finish();
}

PlanKey allgather_schedule_key(const CartNeighborComm& cc,
                               const SendBlock& send,
                               std::span<const RecvBlock> recvs,
                               DimOrder order) {
  const int t = cc.neighborhood().count();
  MPL_REQUIRE(recvs.size() == static_cast<std::size_t>(t),
              "allgather schedule: one receive block per neighbor");
  const std::size_t m = send.bytes();
  for (int i = 0; i < t; ++i) {
    MPL_REQUIRE(recvs[static_cast<std::size_t>(i)].bytes() == m,
                "allgather schedule: receive block size must equal the send "
                "block size (neighbor " + std::to_string(i) + ")");
  }
  return make_allgather_key(cc, send, recvs, order);
}

Schedule build_allgather_schedule(const CartNeighborComm& cc,
                                  const PlanKey& key, const SendBlock& send,
                                  std::span<const RecvBlock> recvs,
                                  DimOrder order) {
  const SendBlock sends[1] = {send};
  const auto plan = plan_cache_get(
      key, [&] { return compile_allgather_plan(cc, send.bytes(), order); });
  return plan->bind(cc, sends, recvs);
}

Schedule build_allgather_schedule(const CartNeighborComm& cc,
                                  const SendBlock& send,
                                  std::span<const RecvBlock> recvs,
                                  DimOrder order) {
  return build_allgather_schedule(
      cc, allgather_schedule_key(cc, send, recvs, order), send, recvs, order);
}

}  // namespace cartcomm
