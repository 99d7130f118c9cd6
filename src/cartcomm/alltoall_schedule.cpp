// Algorithm 1: computation of the message-combining alltoall schedule.
//
// Each data block i travels to its target along one hop per non-zero
// coordinate of N[i], dimension by dimension (coordinate-wise path
// expansion). In phase k, all blocks with equal non-zero k-th coordinate c
// form one round exchanged with the processes at relative +/- c*e_k; the
// blocks of a round are grouped into one absolute-address structured
// datatype per direction (the TypeApp calls of the paper), so the executor
// moves them without any intermediate packing.
//
// Between hops a block lands in a temp zone of the round that carried it:
// each round lists its blocks in the order they currently sit (send
// blocks by index, then temp blocks by offset), final arrivals go to
// their receive block, and the other arrivals land back to back in a temp
// range of their own. Consecutive entries then share one contiguous run
// of the round's datatype on both sides, and every temp byte is written
// once per execution and read only in a later phase, so no send of a
// round reads what a receive of the same round writes. Zone offsets are
// assigned to every member before mesh-boundary filtering, which keeps
// the order rank-independent (a boundary leaves a hole in the zone).
//
// The walk below runs in the *compile* step and records an abstract
// placement program (CompiledPlan); build_alltoall_schedule routes it
// through the plan cache and binds the program to the caller's buffers.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cartcomm/build_schedule.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

CompiledPlan compile_alltoall_plan(const CartNeighborComm& cc,
                                   std::span<const std::size_t> block_bytes) {
  const Neighborhood& nb = cc.neighborhood();
  const mpl::CartGrid& grid = cc.grid();
  const std::span<const int> R = cc.coords();
  const int t = nb.count();
  const int d = nb.ndims();
  const std::span<const std::size_t> bytes = block_bytes;

  // Per-coordinate boundary check: is R[j] + delta on the mesh?
  auto dim_ok = [&](int j, int delta) {
    if (grid.periodic(j)) return true;
    const int v = R[static_cast<std::size_t>(j)] + delta;
    return v >= 0 && v < grid.dims()[static_cast<std::size_t>(j)];
  };
  // This process relays block i in phase k iff the instance's origin and
  // final target both lie on the mesh (Section 2: on tori always true).
  auto sender_valid = [&](int i, int k) {
    for (int j = 0; j < d; ++j) {
      const int c = nb.coord(i, j);
      if (!dim_ok(j, j < k ? -c : +c)) return false;
    }
    return true;
  };
  auto receiver_valid = [&](int i, int k) {
    for (int j = 0; j < d; ++j) {
      const int c = nb.coord(i, j);
      if (!dim_ok(j, j <= k ? -c : +c)) return false;
    }
    return true;
  };

  // Where block i's instance sits between hops: its send block until the
  // first hop, then the temp offset it landed at.
  constexpr std::size_t kSendBlock = SIZE_MAX;
  std::vector<std::size_t> at(static_cast<std::size_t>(t), kSendBlock);
  std::vector<int> hops_left(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    hops_left[static_cast<std::size_t>(i)] = nb.nonzeros(i);
  }
  // Round order: send blocks by index, then temp blocks by offset (ties
  // between zero-byte blocks by index).
  auto sits_before = [&](int a, int b) {
    auto key = [&](int i) {
      const std::size_t off = at[static_cast<std::size_t>(i)];
      return std::pair(off == kSendBlock ? 0 : off + 1, i);
    };
    return key(a) < key(b);
  };

  PlanBuilder builder;
  std::vector<int> offv(static_cast<std::size_t>(d), 0);
  for (int k = 0; k < d; ++k) {
    std::vector<int> order = nb.order_by_dim(k);
    std::size_t s = 0;
    while (s < order.size()) {
      const int c = nb.coord(order[s], k);
      std::size_t e = s;
      while (e < order.size() && nb.coord(order[e], k) == c) ++e;
      if (c == 0) {
        s = e;
        continue;  // blocks that do not move in this dimension
      }
      const auto first = order.begin() + static_cast<std::ptrdiff_t>(s);
      const auto last = order.begin() + static_cast<std::ptrdiff_t>(e);
      std::sort(first, last, sits_before);
      PlanRound round;
      for (auto it = first; it != last; ++it) {
        const int i = *it;
        const std::size_t ui = static_cast<std::size_t>(i);
        PlanPlacement from{PlanPlacement::Kind::send_block, i};
        if (at[ui] != kSendBlock) {
          from = {PlanPlacement::Kind::temp, 0, at[ui], bytes[ui]};
        }
        if (sender_valid(i, k)) {
          round.send_items.push_back(from);
          ++round.blocks_sent;
        }
        PlanPlacement to{PlanPlacement::Kind::recv_block, i};
        if (--hops_left[ui] > 0) {
          at[ui] = builder.allocate_temp(bytes[ui]);
          to = {PlanPlacement::Kind::temp, 0, at[ui], bytes[ui]};
        }
        if (receiver_valid(i, k)) round.recv_items.push_back(to);
      }
      offv[static_cast<std::size_t>(k)] = c;
      round.offset = offv;
      offv[static_cast<std::size_t>(k)] = 0;
      builder.add_round(std::move(round));
      s = e;
    }
    builder.end_phase();
  }

  // Extra non-communication phase: the self blocks (zero vectors).
  for (int i = 0; i < t; ++i) {
    if (nb.nonzeros(i) != 0) continue;
    builder.add_copy({PlanPlacement::Kind::send_block, i},
                     {PlanPlacement::Kind::recv_block, i});
  }
  return builder.finish();
}

namespace {

/// Shared front half of both entry points: resolve the compiled plan
/// through the cache.
std::shared_ptr<const CompiledPlan> alltoall_plan(
    const CartNeighborComm& cc, std::span<const SendBlock> sends,
    const PlanKey& key) {
  return plan_cache_get(key, [&] {
    std::vector<std::size_t> bytes(sends.size());
    for (std::size_t i = 0; i < sends.size(); ++i) bytes[i] = sends[i].bytes();
    return compile_alltoall_plan(cc, bytes);
  });
}

PlanKey alltoall_key_checked(const CartNeighborComm& cc,
                             std::span<const SendBlock> sends,
                             std::span<const RecvBlock> recvs) {
  const int t = cc.neighborhood().count();
  MPL_REQUIRE(sends.size() == static_cast<std::size_t>(t) &&
                  recvs.size() == static_cast<std::size_t>(t),
              "alltoall schedule: one send and one receive block per neighbor");
  for (int i = 0; i < t; ++i) {
    MPL_REQUIRE(sends[static_cast<std::size_t>(i)].bytes() ==
                    recvs[static_cast<std::size_t>(i)].bytes(),
                "alltoall schedule: send/receive block size mismatch for "
                "neighbor " + std::to_string(i));
  }
  return make_alltoall_key(cc, sends, recvs);
}

}  // namespace

Schedule build_alltoall_schedule(const CartNeighborComm& cc,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs) {
  const PlanKey key = alltoall_key_checked(cc, sends, recvs);
  return alltoall_plan(cc, sends, key)->bind(cc, sends, recvs);
}

std::shared_ptr<BoundSchedule> build_alltoall_schedule_shared(
    const CartNeighborComm& cc, std::span<const SendBlock> sends,
    std::span<const RecvBlock> recvs) {
  const PlanKey key = alltoall_key_checked(cc, sends, recvs);
  const PlanKey bkey = make_bound_key(key, cc.comm().rank(), sends, recvs);
  if (std::shared_ptr<BoundSchedule> s = schedule_cache_lookup(bkey)) {
    return s;
  }
  return schedule_cache_store(
      bkey, alltoall_plan(cc, sends, key)->bind(cc, sends, recvs));
}

}  // namespace cartcomm
