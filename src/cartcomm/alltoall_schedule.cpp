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
#include <numeric>
#include <string>
#include <vector>

#include "cartcomm/build_schedule.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

CompiledPlan compile_alltoall_plan(const CartNeighborComm& cc,
                                   std::span<const std::size_t> block_bytes) {
  const Neighborhood& nb = cc.neighborhood();
  const int t = nb.count();
  const int d = nb.ndims();
  const std::span<const std::size_t> bytes = block_bytes;

  // This process relays block i in phase k iff the instance's origin
  // (dimensions j < k undone) and final target (dimensions j >= k ahead)
  // both lie on the mesh (Section 2: on tori always true), i.e. iff
  // first[i] <= k <= last[i]; it receives the instance iff that holds for
  // k + 1.
  std::vector<int> first(static_cast<std::size_t>(t), 0);
  std::vector<int> last(static_cast<std::size_t>(t), d);
  std::vector<int> hops_left(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    hops_left[ui] = nb.nonzeros(i);
    for (int j = 0; j < d; ++j) {
      if (!cc.on_mesh(j, -nb.coord(i, j)) && last[ui] == d) last[ui] = j;
      if (!cc.on_mesh(j, nb.coord(i, j))) first[ui] = j + 1;
    }
  }
  auto relays = [&](int i, int k) {
    return first[static_cast<std::size_t>(i)] <= k &&
           k <= last[static_cast<std::size_t>(i)];
  };

  // Where block i's instance sits between hops: its send block until the
  // first hop, then the temp offset it landed at.
  constexpr std::size_t kSendBlock = SIZE_MAX;
  std::vector<std::size_t> at(static_cast<std::size_t>(t), kSendBlock);
  // The blocks still in transit, in the order they sit: send blocks by
  // index, then temp blocks by offset (ties between zero-byte blocks by
  // index). A phase's stable bucketing keeps that order within each
  // round; the blocks that stay keep theirs, and the landed ones follow
  // at increasing offsets.
  std::vector<int> sits(static_cast<std::size_t>(t));
  std::iota(sits.begin(), sits.end(), 0);
  std::vector<int> key, order, next;
  next.reserve(static_cast<std::size_t>(t));

  PlanBuilder builder;
  std::vector<int> offv(static_cast<std::size_t>(d), 0);
  for (int k = 0; k < d; ++k) {
    key.resize(sits.size());
    next.clear();
    for (std::size_t p = 0; p < sits.size(); ++p) {
      key[p] = nb.coord(sits[p], k);
      if (key[p] == 0) next.push_back(sits[p]);  // does not move
    }
    order.resize(sits.size());  // the blocks in sits order, by coordinate
    stable_order(key, [&](std::size_t x, std::size_t p) { order[x] = sits[p]; });
    std::size_t s = 0;
    while (s < order.size()) {
      const int c = nb.coord(order[s], k);
      std::size_t e = s;
      while (e < order.size() && nb.coord(order[e], k) == c) ++e;
      if (c == 0) {
        s = e;
        continue;  // blocks that do not move in this dimension
      }
      // Every member is written, and the write positions advance for the
      // members this process relays: no branch on the mesh predicates.
      PlanRound round;
      round.send_items.resize(e - s);
      round.recv_items.resize(e - s);
      PlanPlacement* send = round.send_items.data();
      PlanPlacement* recv = round.recv_items.data();
      for (std::size_t q = s; q < e; ++q) {
        const int i = order[q];
        const std::size_t ui = static_cast<std::size_t>(i);
        *send = at[ui] == kSendBlock
                    ? PlanPlacement{PlanPlacement::Kind::send_block, i}
                    : PlanPlacement{PlanPlacement::Kind::temp, 0, at[ui], bytes[ui]};
        send += relays(i, k);
        *recv = {PlanPlacement::Kind::recv_block, i};
        if (--hops_left[ui] > 0) {
          at[ui] = builder.allocate_temp(bytes[ui]);
          *recv = {PlanPlacement::Kind::temp, 0, at[ui], bytes[ui]};
          next.push_back(i);
        }
        recv += relays(i, k + 1);
      }
      round.send_items.resize(static_cast<std::size_t>(send - round.send_items.data()));
      round.recv_items.resize(static_cast<std::size_t>(recv - round.recv_items.data()));
      round.blocks_sent = static_cast<long long>(round.send_items.size());
      offv[static_cast<std::size_t>(k)] = c;
      round.offset = offv;
      offv[static_cast<std::size_t>(k)] = 0;
      builder.add_round(std::move(round));
      s = e;
    }
    builder.end_phase();
    // Zero-byte blocks share their offset with the block landed after
    // them: each such run of equal offsets goes back to index order.
    for (auto run = next.begin(); run != next.end();) {
      const std::size_t off = at[static_cast<std::size_t>(*run)];
      const auto end = std::find_if(run, next.end(), [&](int i) {
        return at[static_cast<std::size_t>(i)] != off;
      });
      if (off != kSendBlock) std::sort(run, end);
      run = end;
    }
    sits.swap(next);
  }

  // Extra non-communication phase: the self blocks (zero vectors).
  for (int i = 0; i < t; ++i) {
    if (nb.nonzeros(i) != 0) continue;
    builder.add_copy({PlanPlacement::Kind::send_block, i},
                     {PlanPlacement::Kind::recv_block, i});
  }
  return builder.finish();
}

PlanKey alltoall_schedule_key(const CartNeighborComm& cc,
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

Schedule build_alltoall_schedule(const CartNeighborComm& cc,
                                 const PlanKey& key,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs) {
  const auto plan = plan_cache_get(key, [&] {
    std::vector<std::size_t> bytes(sends.size());
    for (std::size_t i = 0; i < sends.size(); ++i) bytes[i] = sends[i].bytes();
    return compile_alltoall_plan(cc, bytes);
  });
  return plan->bind(cc, sends, recvs);
}

Schedule build_alltoall_schedule(const CartNeighborComm& cc,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs,
                                 Algorithm alg) {
  std::size_t max_bytes = 0;
  for (const SendBlock& b : sends) max_bytes = std::max(max_bytes, b.bytes());
  const CartNeighborComm& rc =
      cc.route(Collective::alltoall, alg, max_bytes).view;
  return build_alltoall_schedule(rc, alltoall_schedule_key(rc, sends, recvs),
                                 sends, recvs);
}

}  // namespace cartcomm
