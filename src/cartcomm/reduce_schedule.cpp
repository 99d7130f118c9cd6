// Reducing Cartesian schedules: the allgather routing tree of Algorithm 2
// run in *reverse*, with the reduction applied during unpack, and with
// equal subtrees shared (a DAG instead of a tree).
//
// Semantics. For a tree node u write S(u)@me = op over the members i of u
// of the contribution sendblock(i) of process me - N[i] + path(u). The
// root (path 0) is exactly the neighborhood reduction result at me. The
// recurrence S(u)@me = op over children v_c of S(v_c)@(me - c*e_k) turns
// the allgather tree around: in the phase for dimension k = perm[l]
// (levels are processed deepest first, so phase p handles level d-1-p),
// every process sends its partial aggregate S(v) to the process at +c*e_k
// and *folds* the aggregate arriving from -c*e_k into S(parent). Folding
// at every hop is the combine-on-the-fly unpack: the per-hop payload stays
// one block per partial.
//
// Shared partials. S(u)@me depends only on which send blocks u's subtree
// contributes from which offsets relative to me, not on path(u). The tree
// is hash-consed bottom-up into per-level classes (detail::classify): a
// leaf is keyed by the blocks it contributes (the multiplicity of block 0
// for a neighbor reduce, whose sources all send the same block; the
// members' own block indices for reduce_scatter), an inner node by its
// children's (coordinate, class) pairs. Every round of level l then
// carries one block per distinct (c, child class) pair, and the partial
// arriving for it is folded into every parent class holding that pair. On
// product neighborhoods (Moore, stencil boxes) each level is one class, so
// the reduce moves C blocks in C rounds — a separable dimension-by-
// dimension sum — instead of one block per tree edge; elsewhere the
// volume is the number of distinct (level, c, class) triples
// (reduce_volume), never above the tree's edge count. reduce_scatter has
// no equal leaves, so its DAG is exactly the tree.
//
// Mesh boundaries. A contribution i is present in S(u)@me iff both the
// consumer me + path(u) and the origin me + path(u) - N[i] lie on the
// mesh: every intermediate holder's coordinate in each dimension is either
// the consumer's or the origin's (each dimension flips exactly once along
// the chain), so the whole forwarding chain exists exactly then. A class
// partial is built in full (every on-mesh origin) wherever some node of
// the class has an on-mesh consumer, and a (c, class) block travels when
// some tree edge carrying it does. Sender and receiver of a round evaluate
// the same predicates (they share the consumers), so partial aggregates
// shrink consistently at mesh boundaries, per-process volume never
// exceeds the tree's, and no special-casing of PROC_NULL partners is
// needed beyond empty payloads.
//
// Storage. The root accumulator is the receive block itself. A class that
// exactly one parent class holds at coordinate zero lives in that
// parent's accumulator (its contributions fold straight through); every
// other class gets a dedicated temp slot, and every received block a
// staging slot the fold program drains after the phase. A shared
// accumulator may be sent and folded into in the same phase: sends pack
// at post time, and a phase's folds run only once it has drained.
//
// Fold order. The fold program is recorded in compile order and gated on
// phase indices: leaves fold their blocks in member order; each partial
// then takes its zero child first and the arrivals in increasing
// coordinate, deepest dimension first. On a product neighborhood that is
// S_k(x) = ((S_{k+1}(x) + S_{k+1}(x - c_1 e_k)) + S_{k+1}(x - c_2 e_k)) ...
// for c_1 < c_2 < ... The order is a pure function of the DAG, so float
// results are bit-identical regardless of message arrival order, fault
// seeds or jitter.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "cartcomm/build_schedule.hpp"
#include "cartcomm/plan.hpp"
#include "cartcomm/tree.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

namespace {

// Storage identity of a tree node's accumulator: the receive block (root
// and its zero-chain) or a temp slot.
struct RStorage {
  bool is_recv = false;
  int temp_slot = -1;
};

constexpr int kRecvStorageId = 0;

int storage_id(const RStorage& s) {
  return s.is_recv ? kRecvStorageId : 1 + s.temp_slot;
}

PlanPlacement storage_placement(const RStorage& s, std::size_t m) {
  if (s.is_recv) return {PlanPlacement::Kind::recv_block, 0};
  return {PlanPlacement::Kind::temp, 0, static_cast<std::size_t>(s.temp_slot) * m, m};
}

PlanPlacement send_block_placement(int i) {
  return {PlanPlacement::Kind::send_block, i};
}

// Fill the receive block with the op identity.
PlanFold identity_fold(std::size_t m, int fold_elems, int phase) {
  return {{}, storage_placement(RStorage{true, -1}, m), fold_elems, phase, false, true};
}

// The trivial reducing schedule: one round per non-zero neighbor vector in
// neighbor index order (identical on every process), received blocks
// staged and folded — together with the zero-offset local contributions —
// in neighbor index order. The fixed order makes it safe for
// non-commutative ops and identical to the straight-line oracle.
CompiledPlan compile_reduce_trivial(const CartNeighborComm& cc,
                                    ReduceVariant variant,
                                    std::size_t block_bytes, int fold_elems) {
  const Neighborhood& nb = cc.neighborhood();
  const int t = nb.count();
  const std::size_t m = block_bytes;
  const bool scatter = variant == ReduceVariant::reduce_scatter;

  PlanBuilder builder;
  bool inited = false;
  auto fold_into_recv = [&](PlanPlacement src) {
    builder.add_fold({src, storage_placement(RStorage{true, -1}, m), fold_elems,
                      0, !inited});
    inited = true;
  };

  for (int i = 0; i < t; ++i) {
    if (nb.nonzeros(i) == 0) {
      // Self contribution: no communication, folded in index order with
      // the staged arrivals.
      fold_into_recv(send_block_placement(scatter ? i : 0));
      continue;
    }
    PlanRound round;
    round.reduce = true;
    round.offset.assign(nb.offset(i).begin(), nb.offset(i).end());
    // A partner is PROC_NULL exactly when its offset leaves the mesh.
    if (cc.target_ranks()[static_cast<std::size_t>(i)] != mpl::PROC_NULL) {
      round.send_items.push_back(send_block_placement(scatter ? i : 0));
      ++round.blocks_sent;
    }
    if (cc.source_ranks()[static_cast<std::size_t>(i)] != mpl::PROC_NULL) {
      const PlanPlacement staging{PlanPlacement::Kind::temp, 0, builder.allocate_temp(m), m};
      round.recv_items.push_back(staging);
      fold_into_recv(staging);
    }
    builder.add_round(std::move(round));
  }
  if (!inited) {
    // Zero valid contributions (all sources off-mesh): the result is the
    // op identity.
    builder.add_fold(identity_fold(m, fold_elems, 0));
  }
  return builder.finish();
}

// The message-combining reducing schedule (see file comment).
CompiledPlan compile_reduce_combining(const CartNeighborComm& cc,
                                      ReduceVariant variant, DimOrder order,
                                      std::size_t block_bytes,
                                      int fold_elems) {
  const Neighborhood& nb = cc.neighborhood();
  const int d = nb.ndims();
  const std::size_t m = block_bytes;
  const bool scatter = variant == ReduceVariant::reduce_scatter;

  const std::vector<int> perm = dimension_order(nb, order);
  const detail::AllgatherTree tree = detail::build_tree(nb, perm);
  const detail::TreeClasses dag = detail::classify(tree, scatter);
  const std::size_t nlevels = tree.levels();

  auto first = [&](std::size_t level) {
    return static_cast<std::size_t>(tree.level_begin[level]);
  };
  // consumer[v] (indexed like tree.nodes): the process consuming S(v)@me,
  // me + path(v), is on the mesh. A node's path is its parent's plus its
  // coordinate in the dimension of its level.
  std::vector<char> consumer(tree.nodes.size(), 1);
  for (std::size_t level = 1; level < nlevels; ++level) {
    const std::span<const detail::TreeNode> nodes = tree.level(level);
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      consumer[first(level) + v] =
          consumer[first(level - 1) + static_cast<std::size_t>(nodes[v].parent)] &&
          cc.on_mesh(perm[level - 1], nodes[v].coordinate);
    }
  }
  // Contribution i seen from the consumer of a node at `level` that holds
  // it: the origin me + path - N[i] agrees with me in the dimensions of
  // the levels above, so it is on the mesh iff reach[i] <= level.
  std::vector<std::size_t> reach(static_cast<std::size_t>(nb.count()), 0);
  for (std::size_t l = 0; l < perm.size(); ++l) {
    for (int i = 0; i < nb.count(); ++i) {
      if (!cc.on_mesh(perm[l], -nb.coord(i, perm[l]))) reach[static_cast<std::size_t>(i)] = l + 1;
    }
  }
  auto any_member_ok = [&](std::size_t level, std::span<const int> members) {
    return std::any_of(members.begin(), members.end(), [&](int i) {
      return reach[static_cast<std::size_t>(i)] <= level;
    });
  };

  // needed[l][U]: some node of class U has its consumer on the mesh, so
  // this process must assemble S(U) in full.
  std::vector<std::vector<char>> needed(nlevels);
  for (std::size_t level = 0; level < nlevels; ++level) {
    needed[level].assign(dag.classes[level].size(), 0);
    for (std::size_t v = 0; v < dag.of[level].size(); ++v) {
      if (consumer[first(level) + v] != 0) {
        needed[level][static_cast<std::size_t>(dag.of[level][v])] = 1;
      }
    }
  }

  // Accumulator storage: root = receive block; a class that exactly one
  // parent class holds at coordinate zero lives in that parent's
  // accumulator (its contributions fold straight through); every other
  // class gets a dedicated temp slot. Sharing is safe even when the class
  // is also sent at the parent's level: sends pack at post time, and the
  // parent's folds run only after the phase has drained.
  std::vector<std::vector<RStorage>> storage(nlevels);
  int temp_slots = 0;
  storage[0].push_back(RStorage{true, -1});
  for (std::size_t level = 0; level + 1 < nlevels; ++level) {
    const std::size_t nnext = dag.classes[level + 1].size();
    std::vector<int> zero_of(nnext, -1);  // sole zero holder; -2 if several
    for (std::size_t u = 0; u < dag.classes[level].size(); ++u) {
      for (const auto& [c, v] : dag.classes[level][u].children) {
        int& z = zero_of[static_cast<std::size_t>(v)];
        if (c == 0) z = z == -1 ? static_cast<int>(u) : -2;
      }
    }
    storage[level + 1].resize(nnext);
    for (std::size_t v = 0; v < nnext; ++v) {
      const int u = zero_of[v];
      storage[level + 1][v] = u >= 0
                                  ? storage[level][static_cast<std::size_t>(u)]
                                  : RStorage{false, temp_slots++};
    }
  }

  PlanBuilder builder;
  builder.allocate_temp(static_cast<std::size_t>(temp_slots) * m);

  std::vector<char> inited(static_cast<std::size_t>(temp_slots) + 1, 0);
  auto record_fold = [&](PlanPlacement src, const RStorage& dst, int phase) {
    char& done = inited[static_cast<std::size_t>(storage_id(dst))];
    builder.add_fold({src, storage_placement(dst, m), fold_elems, phase, done == 0});
    done = 1;
  };

  // Leaf contributions (phase tag -1: before any send is packed). A leaf's
  // members all share the full offset vector N[i] = path, so their origin
  // is this process itself.
  const std::size_t leaf_level = nlevels - 1;
  for (std::size_t v = 0; v < dag.classes[leaf_level].size(); ++v) {
    if (needed[leaf_level][v] == 0) continue;
    const std::size_t rep =
        static_cast<std::size_t>(dag.classes[leaf_level][v].rep);
    for (const int i : tree.members(tree.level(leaf_level)[rep])) {
      record_fold(send_block_placement(scatter ? i : 0),
                  storage[leaf_level][v], -1);
    }
  }

  // Reverse execution: phase p handles level d-1-p. Every process emits
  // the identical round sequence (a function of the DAG alone), with
  // per-direction payloads empty where the mesh cuts the chain.
  struct Carried {
    int cls;                   // child class in level(level + 1)
    int edge;                  // first edge carrying it this round
    bool send = false;         // some edge's consumer is on the mesh
    std::vector<int> parents;  // distinct parent classes, edge order
  };
  std::vector<Carried> carried;
  std::vector<int> slot;
  std::vector<int> offv(static_cast<std::size_t>(d), 0);
  for (int p = 0; p < d; ++p) {
    const std::size_t level = static_cast<std::size_t>(d - 1 - p);
    const int k = perm[level];
    const std::span<const detail::TreeEdge> evec = tree.edges(level);
    const std::vector<RStorage>& up = storage[level];
    const std::vector<RStorage>& down = storage[level + 1];
    // What this phase's sends read: folds recorded below run only after
    // the phase has drained, when every send is already packed.
    const std::vector<char> ready = inited;
    // A partial folds its zero child first, then the arrivals in
    // increasing coordinate, so the combine order is fixed per class.
    for (std::size_t u = 0; u < up.size(); ++u) {
      if (needed[level][u] == 0) continue;
      for (const auto& [c, z] : dag.classes[level][u].children) {
        const RStorage& zs = down[static_cast<std::size_t>(z)];
        if (c == 0 && storage_id(zs) != storage_id(up[u]) &&
            inited[static_cast<std::size_t>(storage_id(zs))] != 0) {
          record_fold(storage_placement(zs, m), up[u], p);
        }
      }
    }
    slot.assign(dag.classes[level + 1].size(), -1);
    std::size_t s = 0;
    while (s < evec.size()) {
      const int c = evec[s].coordinate;
      std::size_t e = s;
      while (e < evec.size() && evec[e].coordinate == c) ++e;
      // One block per distinct child class of this round's edges.
      carried.clear();
      for (std::size_t q = s; q < e; ++q) {
        const int child = evec[q].child;
        const int v = dag.of[level + 1][static_cast<std::size_t>(child)];
        int& at = slot[static_cast<std::size_t>(v)];
        if (at < 0) {
          at = static_cast<int>(carried.size());
          carried.push_back({v, static_cast<int>(q), false, {}});
        }
        Carried& x = carried[static_cast<std::size_t>(at)];
        x.send = x.send || consumer[first(level + 1) + static_cast<std::size_t>(child)] != 0;
        const int u = dag.of[level][static_cast<std::size_t>(evec[q].parent)];
        if (std::find(x.parents.begin(), x.parents.end(), u) ==
            x.parents.end()) {
          x.parents.push_back(u);
        }
      }
      PlanRound round;
      round.reduce = true;
      round.send_items.reserve(carried.size());
      round.recv_items.reserve(carried.size());
      for (const Carried& x : carried) {
        slot[static_cast<std::size_t>(x.cls)] = -1;
        const detail::TreeEdge& rep = evec[static_cast<std::size_t>(x.edge)];
        const std::span<const int> members = tree.members(
            tree.level(level + 1)[static_cast<std::size_t>(rep.child)]);
        const RStorage& child_sto = down[static_cast<std::size_t>(x.cls)];
        if (x.send && any_member_ok(level + 1, members)) {
          // The aggregate must have been assembled by earlier folds
          // (deeper phases and leaf inits); a violation would send
          // uninitialized staging memory.
          MPL_REQUIRE(
              ready[static_cast<std::size_t>(storage_id(child_sto))] != 0,
              "reduce schedule: sending uninitialized aggregate (internal)");
          round.send_items.push_back(storage_placement(child_sto, m));
          ++round.blocks_sent;
        }
        // The same partial arriving from -c*e_k: contributions of the
        // child class, viewed from this process' parent consumers.
        bool wanted = false;
        for (const int u : x.parents) {
          wanted = wanted || needed[level][static_cast<std::size_t>(u)] != 0;
        }
        if (wanted && any_member_ok(level, members)) {
          const PlanPlacement staging{PlanPlacement::Kind::temp, 0,
                                      builder.allocate_temp(m), m};
          round.recv_items.push_back(staging);
          for (const int u : x.parents) {
            if (needed[level][static_cast<std::size_t>(u)] != 0) {
              record_fold(staging, up[static_cast<std::size_t>(u)], p);
            }
          }
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

  if (inited[kRecvStorageId] == 0) {
    // No contribution reaches this process at all: identity result.
    // Tagged past the last phase; applied in the final sweep.
    builder.add_fold(identity_fold(m, fold_elems, d));
  }
  return builder.finish();
}

/// The fold program walks each block as an array at its base address, so
/// a block's type must be one block at displacement 0 spanning its extent.
void require_dense(const mpl::Datatype& type, const char* what) {
  MPL_REQUIRE(type.valid() && type.dense() && type.lb() == 0,
              std::string("reduce schedule: ") + what +
                  " block datatype must be one block at displacement 0 "
                  "spanning its extent");
}

}  // namespace

CompiledPlan compile_reduce_plan(const CartNeighborComm& cc,
                                 ReduceVariant variant, bool combining,
                                 DimOrder order, std::size_t block_bytes,
                                 int fold_elems) {
  return combining ? compile_reduce_combining(cc, variant, order, block_bytes,
                                              fold_elems)
                   : compile_reduce_trivial(cc, variant, block_bytes,
                                            fold_elems);
}

PlanKey reduce_schedule_key(const CartNeighborComm& cc,
                            std::span<const SendBlock> sends,
                            const RecvBlock& recv, const mpl::ReduceOp& op,
                            ReduceVariant variant, bool combining,
                            DimOrder order) {
  const int t = cc.neighborhood().count();
  MPL_REQUIRE(op.valid(), "reduce schedule: invalid reduce op");
  MPL_REQUIRE(!combining || op.commutative(),
              "reduce schedule: the message-combining algorithm reassociates "
              "and reorders contributions; op '" + op.name() +
                  "' is not commutative (use Algorithm::trivial)");
  const std::size_t expected =
      variant == ReduceVariant::reduce_scatter ? static_cast<std::size_t>(t)
                                               : 1;
  MPL_REQUIRE(sends.size() == expected,
              "reduce schedule: wrong number of send blocks");
  const std::size_t m = recv.bytes();
  require_dense(recv.type, "receive");
  for (const SendBlock& b : sends) {
    require_dense(b.type, "send");
    MPL_REQUIRE(b.bytes() == m,
                "reduce schedule: send and receive blocks must have equal "
                "packed sizes");
  }
  MPL_REQUIRE(op.elem_size() > 0 && m % op.elem_size() == 0,
              "reduce schedule: block byte size must be a multiple of the op "
              "element size");
  // A t = 0 reduce_scatter has no send blocks (the plan is a pure identity
  // fill); key it on the receive block instead.
  const SendBlock rep =
      sends.empty() ? SendBlock{recv.addr, recv.count, recv.type} : sends[0];
  return make_reduce_key(cc, variant, combining, order, rep, op);
}

Schedule build_reduce_schedule(const CartNeighborComm& cc, const PlanKey& key,
                               std::span<const SendBlock> sends,
                               const RecvBlock& recv, const mpl::ReduceOp& op,
                               ReduceVariant variant, bool combining,
                               DimOrder order) {
  const std::size_t m = recv.bytes();
  const RecvBlock recvs[1] = {recv};
  const auto plan = plan_cache_get(key, [&] {
    return compile_reduce_plan(cc, variant, combining, order, m,
                               static_cast<int>(m / op.elem_size()));
  });
  return plan->bind(cc, sends, recvs, op);
}

Schedule build_reduce_schedule(const CartNeighborComm& cc,
                               std::span<const SendBlock> sends,
                               const RecvBlock& recv, const mpl::ReduceOp& op,
                               ReduceVariant variant, bool combining,
                               DimOrder order) {
  return build_reduce_schedule(
      cc, reduce_schedule_key(cc, sends, recv, op, variant, combining, order),
      sends, recv, op, variant, combining, order);
}

}  // namespace cartcomm
