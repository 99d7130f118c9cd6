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
#include <numeric>
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
  const mpl::CartGrid& grid = cc.grid();
  const std::span<const int> R = cc.coords();
  const int d = nb.ndims();
  const std::size_t m = block_bytes;

  const std::vector<int> perm = dimension_order(nb, order);
  const detail::AllgatherTree tree = detail::build_tree(nb, perm);

  // A member i terminates at level L if its coordinates in perm[L..d-1]
  // are all zero.
  auto terminates_at = [&](int i, std::size_t level) {
    for (std::size_t l = level; l < perm.size(); ++l) {
      if (nb.coord(i, perm[l]) != 0) return false;
    }
    return true;
  };

  // Assign storage: root = send buffer; zero-coordinate children inherit;
  // communicated children park at a terminating member's receive slot or
  // in a fresh temp slot.
  std::vector<std::vector<Storage>> storage(tree.levels.size());
  int temp_slots = 0;
  storage[0].push_back(Storage{});  // root: temp_slot = -1 -> send buffer
  for (std::size_t level = 0; level + 1 < tree.levels.size(); ++level) {
    const std::vector<detail::TreeNode>& nxt = tree.levels[level + 1];
    storage[level + 1].resize(nxt.size());
    for (std::size_t v = 0; v < nxt.size(); ++v) {
      const detail::TreeNode& n = nxt[v];
      if (n.coordinate == 0) {
        storage[level + 1][v] = storage[level][static_cast<std::size_t>(n.parent)];
        continue;
      }
      int term = -1;
      for (int i : n.members) {
        if (terminates_at(i, level + 1)) {
          term = i;
          break;
        }
      }
      Storage s;
      if (term >= 0) {
        s.is_recv = true;
        s.recv_slot = term;
      } else {
        s.temp_slot = temp_slots++;
      }
      storage[level + 1][v] = s;
    }
  }

  PlanBuilder builder;
  builder.allocate_temp(static_cast<std::size_t>(temp_slots) * m);

  auto placement = [&](const Storage& s) {
    PlanPlacement p;
    if (s.is_recv) {
      p.kind = PlanPlacement::Kind::recv_block;
      p.index = s.recv_slot;
    } else if (s.temp_slot < 0) {
      p.kind = PlanPlacement::Kind::send_block;
      p.index = 0;  // the single send block
    } else {
      p.kind = PlanPlacement::Kind::temp;
      p.offset = static_cast<std::size_t>(s.temp_slot) * m;
      p.bytes = m;
    }
    return p;
  };

  auto dim_ok = [&](int j, int delta) {
    if (grid.periodic(j)) return true;
    const int v = R[static_cast<std::size_t>(j)] + delta;
    return v >= 0 && v < grid.dims()[static_cast<std::size_t>(j)];
  };
  // The instance of a node held here originates at R - path(node); valid
  // iff that process lies on the mesh (always, on tori).
  auto origin_valid = [&](const std::vector<int>& path) {
    for (int j = 0; j < d; ++j) {
      if (!dim_ok(j, -path[static_cast<std::size_t>(j)])) return false;
    }
    return true;
  };

  std::vector<int> offv(static_cast<std::size_t>(d), 0);
  for (std::size_t level = 0; level < perm.size(); ++level) {
    const int k = perm[level];
    const std::vector<detail::TreeEdge>& evec = tree.edges[level];
    std::size_t s = 0;
    while (s < evec.size()) {
      const int c = evec[s].coordinate;
      std::size_t e = s;
      while (e < evec.size() && evec[e].coordinate == c) ++e;
      PlanRound round;
      for (std::size_t q = s; q < e; ++q) {
        const detail::TreeNode& parent =
            tree.levels[level][static_cast<std::size_t>(evec[q].parent)];
        const detail::TreeNode& child =
            tree.levels[level + 1][static_cast<std::size_t>(evec[q].child)];
        if (origin_valid(parent.path)) {
          round.send_items.push_back(placement(
              storage[level][static_cast<std::size_t>(evec[q].parent)]));
          ++round.blocks_sent;
        }
        if (origin_valid(child.path)) {
          round.recv_items.push_back(placement(
              storage[level + 1][static_cast<std::size_t>(evec[q].child)]));
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
  const std::vector<detail::TreeNode>& leaves = tree.levels.back();
  for (std::size_t v = 0; v < leaves.size(); ++v) {
    const detail::TreeNode& leaf = leaves[v];
    if (!origin_valid(leaf.path)) continue;  // source off the mesh: untouched
    const Storage& s = storage.back()[v];
    for (int i : leaf.members) {
      if (s.is_recv && s.recv_slot == i) continue;
      PlanPlacement dst;
      dst.kind = PlanPlacement::Kind::recv_block;
      dst.index = i;
      builder.add_copy(placement(s), dst);
    }
  }
  return builder.finish();
}

namespace {

PlanKey allgather_key_checked(const CartNeighborComm& cc,
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

std::shared_ptr<const CompiledPlan> allgather_plan(const CartNeighborComm& cc,
                                                   std::size_t m,
                                                   DimOrder order,
                                                   const PlanKey& key) {
  return plan_cache_get(key,
                        [&] { return compile_allgather_plan(cc, m, order); });
}

}  // namespace

Schedule build_allgather_schedule(const CartNeighborComm& cc,
                                  const SendBlock& send,
                                  std::span<const RecvBlock> recvs,
                                  DimOrder order) {
  const PlanKey key = allgather_key_checked(cc, send, recvs, order);
  const SendBlock sends[1] = {send};
  return allgather_plan(cc, send.bytes(), order, key)->bind(cc, sends, recvs);
}

std::shared_ptr<BoundSchedule> build_allgather_schedule_shared(
    const CartNeighborComm& cc, const SendBlock& send,
    std::span<const RecvBlock> recvs, DimOrder order) {
  const PlanKey key = allgather_key_checked(cc, send, recvs, order);
  const SendBlock sends[1] = {send};
  const PlanKey bkey = make_bound_key(key, cc.comm().rank(), sends, recvs);
  if (std::shared_ptr<BoundSchedule> s = schedule_cache_lookup(bkey)) {
    return s;
  }
  return schedule_cache_store(
      bkey,
      allgather_plan(cc, send.bytes(), order, key)->bind(cc, sends, recvs));
}

}  // namespace cartcomm
