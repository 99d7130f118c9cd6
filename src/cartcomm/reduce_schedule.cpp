// Reducing Cartesian schedules: the allgather routing tree of Algorithm 2
// run in *reverse*, with the reduction applied during unpack.
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
// one block per tree node, so the per-process volume equals the number of
// tree edges (the allgather volume) instead of the alltoall volume
// sum(z_i) — this is the V -> t shrinkage.
//
// Mesh boundaries. A contribution i is present in S(u)@me iff both the
// consumer me + path(u) and the origin me + path(u) - N[i] lie on the
// mesh: every intermediate holder's coordinate in each dimension is either
// the consumer's or the origin's (each dimension flips exactly once along
// the chain), so the whole forwarding chain exists exactly then. Sender
// and receiver of an edge evaluate the same predicate (they share the
// consumer), so partial aggregates shrink consistently at mesh boundaries
// and no special-casing of PROC_NULL partners is needed beyond empty
// payloads — this is what removes the old fully-periodic-only restriction.
//
// Storage. The root accumulator is the receive block itself; a child
// reached by a zero-coordinate edge shares its parent's accumulator (its
// contributions fold straight through); every communicated (non-zero
// coordinate) node gets a dedicated temp slot, and every receiving edge a
// staging slot the fold program drains after the phase. The fold program
// is recorded in compile order and gated on phase indices, so the combine
// order is a pure function of the tree — float results are bit-identical
// regardless of message arrival order, fault seeds or jitter.
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
  PlanPlacement p;
  if (s.is_recv) {
    p.kind = PlanPlacement::Kind::recv_block;
    p.index = 0;
  } else {
    p.kind = PlanPlacement::Kind::temp;
    p.offset = static_cast<std::size_t>(s.temp_slot) * m;
    p.bytes = m;
  }
  return p;
}

PlanPlacement send_block_placement(int i) {
  PlanPlacement p;
  p.kind = PlanPlacement::Kind::send_block;
  p.index = i;
  return p;
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
  const mpl::CartGrid& grid = cc.grid();
  const std::span<const int> R = cc.coords();
  const int d = nb.ndims();
  const int t = nb.count();
  const std::size_t m = block_bytes;
  const bool scatter = variant == ReduceVariant::reduce_scatter;

  auto dim_ok = [&](int j, int delta) {
    if (grid.periodic(j)) return true;
    const int v = R[static_cast<std::size_t>(j)] + delta;
    return v >= 0 && v < grid.dims()[static_cast<std::size_t>(j)];
  };
  auto target_on_mesh = [&](int i) {
    for (int j = 0; j < d; ++j) {
      if (!dim_ok(j, nb.coord(i, j))) return false;
    }
    return true;
  };
  auto source_on_mesh = [&](int i) {
    for (int j = 0; j < d; ++j) {
      if (!dim_ok(j, -nb.coord(i, j))) return false;
    }
    return true;
  };

  PlanBuilder builder;
  bool inited = false;
  auto fold_into_recv = [&](PlanPlacement src) {
    PlanFold f;
    f.src = src;
    f.dst = storage_placement(RStorage{true, -1}, m);
    f.count = fold_elems;
    f.phase = 0;
    f.init = !inited;
    inited = true;
    builder.add_fold(f);
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
    if (target_on_mesh(i)) {
      round.send_items.push_back(send_block_placement(scatter ? i : 0));
      ++round.blocks_sent;
    }
    if (source_on_mesh(i)) {
      PlanPlacement staging;
      staging.kind = PlanPlacement::Kind::temp;
      staging.offset = builder.allocate_temp(m);
      staging.bytes = m;
      round.recv_items.push_back(staging);
      fold_into_recv(staging);
    }
    builder.add_round(std::move(round));
  }
  if (!inited) {
    // Zero valid contributions (all sources off-mesh): the result is the
    // op identity.
    PlanFold f;
    f.dst = storage_placement(RStorage{true, -1}, m);
    f.count = fold_elems;
    f.phase = 0;
    f.identity = true;
    builder.add_fold(f);
  }
  return builder.finish();
}

// The message-combining reducing schedule (see file comment).
CompiledPlan compile_reduce_combining(const CartNeighborComm& cc,
                                      ReduceVariant variant, DimOrder order,
                                      std::size_t block_bytes,
                                      int fold_elems) {
  const Neighborhood& nb = cc.neighborhood();
  const mpl::CartGrid& grid = cc.grid();
  const std::span<const int> R = cc.coords();
  const int d = nb.ndims();
  const std::size_t m = block_bytes;
  const bool scatter = variant == ReduceVariant::reduce_scatter;

  const std::vector<int> perm = dimension_order(nb, order);
  const detail::AllgatherTree tree = detail::build_tree(nb, perm);
  const std::size_t nlevels = tree.levels.size();

  auto dim_ok = [&](int j, int delta) {
    if (grid.periodic(j)) return true;
    const int v = R[static_cast<std::size_t>(j)] + delta;
    return v >= 0 && v < grid.dims()[static_cast<std::size_t>(j)];
  };
  // The process consuming the aggregate S(u)@me is me + path(u).
  auto consumer_ok = [&](const std::vector<int>& path) {
    for (int j = 0; j < d; ++j) {
      if (!dim_ok(j, path[static_cast<std::size_t>(j)])) return false;
    }
    return true;
  };
  // Contribution i viewed from consumer offset `path`: its origin is
  // me + path - N[i].
  auto member_ok = [&](const std::vector<int>& path, int i) {
    for (int j = 0; j < d; ++j) {
      if (!dim_ok(j, path[static_cast<std::size_t>(j)] - nb.coord(i, j))) {
        return false;
      }
    }
    return true;
  };
  auto any_member_ok = [&](const std::vector<int>& path,
                           const std::vector<int>& members) {
    for (const int i : members) {
      if (member_ok(path, i)) return true;
    }
    return false;
  };
  // S(node)@me carries at least one contribution.
  auto node_present = [&](const detail::TreeNode& n) {
    return consumer_ok(n.path) && any_member_ok(n.path, n.members);
  };

  // Accumulator storage: root = receive block; zero-coordinate children
  // inherit; communicated nodes get dedicated temp slots.
  std::vector<std::vector<RStorage>> storage(nlevels);
  int temp_slots = 0;
  storage[0].push_back(RStorage{true, -1});
  for (std::size_t level = 0; level + 1 < nlevels; ++level) {
    const std::vector<detail::TreeNode>& nxt = tree.levels[level + 1];
    storage[level + 1].resize(nxt.size());
    for (std::size_t v = 0; v < nxt.size(); ++v) {
      const detail::TreeNode& n = nxt[v];
      if (n.coordinate == 0) {
        storage[level + 1][v] =
            storage[level][static_cast<std::size_t>(n.parent)];
      } else {
        storage[level + 1][v] = RStorage{false, temp_slots++};
      }
    }
  }

  PlanBuilder builder;
  builder.allocate_temp(static_cast<std::size_t>(temp_slots) * m);

  std::vector<char> inited(static_cast<std::size_t>(temp_slots) + 1, 0);
  auto record_fold = [&](PlanPlacement src, const RStorage& dst, int phase) {
    PlanFold f;
    f.src = src;
    f.dst = storage_placement(dst, m);
    f.count = fold_elems;
    f.phase = phase;
    f.init = inited[static_cast<std::size_t>(storage_id(dst))] == 0;
    inited[static_cast<std::size_t>(storage_id(dst))] = 1;
    builder.add_fold(f);
  };

  // Leaf contributions (phase tag -1: before any send is packed). A leaf's
  // members all share the full offset vector N[i] = path, so presence
  // reduces to the consumer me + N[i] being on the mesh.
  const std::vector<detail::TreeNode>& leaves = tree.levels.back();
  for (std::size_t v = 0; v < leaves.size(); ++v) {
    const detail::TreeNode& leaf = leaves[v];
    if (!consumer_ok(leaf.path)) continue;
    for (const int i : leaf.members) {
      record_fold(send_block_placement(scatter ? i : 0), storage.back()[v],
                  -1);
    }
  }

  // Reverse execution: phase p handles level d-1-p. Every process emits
  // the identical round sequence (a function of the tree alone), with
  // per-direction payloads empty where the mesh cuts the chain.
  std::vector<int> offv(static_cast<std::size_t>(d), 0);
  for (int p = 0; p < d; ++p) {
    const std::size_t level = static_cast<std::size_t>(d - 1 - p);
    const int k = perm[level];
    const std::vector<detail::TreeEdge>& evec = tree.edges[level];
    std::size_t s = 0;
    while (s < evec.size()) {
      const int c = evec[s].coordinate;
      std::size_t e = s;
      while (e < evec.size() && evec[e].coordinate == c) ++e;
      PlanRound round;
      round.reduce = true;
      for (std::size_t q = s; q < e; ++q) {
        const detail::TreeNode& parent =
            tree.levels[level][static_cast<std::size_t>(evec[q].parent)];
        const detail::TreeNode& child =
            tree.levels[level + 1][static_cast<std::size_t>(evec[q].child)];
        const RStorage& child_sto =
            storage[level + 1][static_cast<std::size_t>(evec[q].child)];
        if (node_present(child)) {
          // The aggregate must have been assembled by earlier folds
          // (deeper phases and leaf inits); a violation would send
          // uninitialized staging memory.
          MPL_REQUIRE(
              inited[static_cast<std::size_t>(storage_id(child_sto))] != 0,
              "reduce schedule: sending uninitialized aggregate (internal)");
          round.send_items.push_back(storage_placement(child_sto, m));
          ++round.blocks_sent;
        }
        // The same aggregate arriving from -c*e_k, viewed from this
        // process: consumer me + path(parent), contributions of child's
        // members.
        if (consumer_ok(parent.path) &&
            any_member_ok(parent.path, child.members)) {
          PlanPlacement staging;
          staging.kind = PlanPlacement::Kind::temp;
          staging.offset = builder.allocate_temp(m);
          staging.bytes = m;
          round.recv_items.push_back(staging);
          record_fold(staging,
                      storage[level][static_cast<std::size_t>(evec[q].parent)],
                      p);
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
    PlanFold f;
    f.dst = storage_placement(RStorage{true, -1}, m);
    f.count = fold_elems;
    f.phase = d;
    f.identity = true;
    builder.add_fold(f);
  }
  return builder.finish();
}

void require_dense(const mpl::Datatype& type, const char* what) {
  MPL_REQUIRE(type.valid() &&
                  static_cast<std::size_t>(type.extent()) == type.size(),
              std::string("reduce schedule: ") + what +
                  " block datatype must be dense (extent == size)");
}

struct ReduceArgs {
  PlanKey key;
  std::size_t block_bytes = 0;
  int fold_elems = 0;
};

ReduceArgs reduce_key_checked(const CartNeighborComm& cc,
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
  ReduceArgs a;
  a.key = make_reduce_key(cc, variant, combining, order, rep, op);
  a.block_bytes = m;
  a.fold_elems = static_cast<int>(m / op.elem_size());
  return a;
}

std::shared_ptr<const CompiledPlan> reduce_plan(const CartNeighborComm& cc,
                                                const ReduceArgs& a,
                                                ReduceVariant variant,
                                                bool combining,
                                                DimOrder order) {
  return plan_cache_get(a.key, [&] {
    return compile_reduce_plan(cc, variant, combining, order, a.block_bytes,
                               a.fold_elems);
  });
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

Schedule build_reduce_schedule(const CartNeighborComm& cc,
                               std::span<const SendBlock> sends,
                               const RecvBlock& recv, const mpl::ReduceOp& op,
                               ReduceVariant variant, bool combining,
                               DimOrder order) {
  const ReduceArgs a =
      reduce_key_checked(cc, sends, recv, op, variant, combining, order);
  const RecvBlock recvs[1] = {recv};
  return reduce_plan(cc, a, variant, combining, order)
      ->bind(cc, sends, recvs, op);
}

std::shared_ptr<BoundSchedule> build_reduce_schedule_shared(
    const CartNeighborComm& cc, std::span<const SendBlock> sends,
    const RecvBlock& recv, const mpl::ReduceOp& op, ReduceVariant variant,
    bool combining, DimOrder order) {
  const ReduceArgs a =
      reduce_key_checked(cc, sends, recv, op, variant, combining, order);
  const RecvBlock recvs[1] = {recv};
  const PlanKey bkey = make_bound_key(a.key, cc.comm().rank(), sends, recvs);
  if (std::shared_ptr<BoundSchedule> s = schedule_cache_lookup(bkey)) {
    return s;
  }
  return schedule_cache_store(bkey,
                              reduce_plan(cc, a, variant, combining, order)
                                  ->bind(cc, sends, recvs, op));
}

}  // namespace cartcomm
