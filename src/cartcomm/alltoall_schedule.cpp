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
// Between hops a block is parked alternately in a temporary slot and its
// final receive-buffer slot (the paper's two-buffer alternation), which
// guarantees that within one round the send side reads from a different
// location than the receive side writes. On non-periodic meshes the
// receive-buffer leg of the alternation is only used when this process'
// own source for that index exists (so receive buffers of PROC_NULL
// sources are never scribbled on); a second temp slot substitutes.
//
// The walk below runs in the *compile* step and records an abstract
// placement program (CompiledPlan); build_alltoall_schedule routes it
// through the plan cache and binds the program to the caller's buffers.
#include <numeric>
#include <vector>

#include "cartcomm/build_schedule.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

namespace {

// Location of a block instance between hops.
enum class Loc { sendbuf, temp_a, temp_b, recvbuf };

}  // namespace

CompiledPlan compile_alltoall_plan(const CartNeighborComm& cc,
                                   std::span<const std::size_t> block_bytes) {
  const Neighborhood& nb = cc.neighborhood();
  const mpl::CartGrid& grid = cc.grid();
  const std::span<const int> R = cc.coords();
  const int t = nb.count();
  const int d = nb.ndims();
  const std::span<const std::size_t> bytes = block_bytes;

  std::vector<int> z(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) z[static_cast<std::size_t>(i)] = nb.nonzeros(i);

  // Whether this process' own source / target for index i exists (always
  // true on tori; PROC_NULL filtering on non-periodic meshes). A source's
  // PROC_NULL-ness is a function of the boundary signature, so reading it
  // here keeps the compile step pure in the cache key.
  const std::span<const int> source_rank = cc.source_ranks();

  // Temp slot offsets: slot A for every multi-hop block, slot B only for
  // multi-hop blocks that may not use their receive slot for parking.
  PlanBuilder builder;
  std::vector<std::size_t> off_a(static_cast<std::size_t>(t), 0);
  std::vector<std::size_t> off_b(static_cast<std::size_t>(t), 0);
  for (int i = 0; i < t; ++i) {
    if (z[static_cast<std::size_t>(i)] >= 2) {
      off_a[static_cast<std::size_t>(i)] =
          builder.allocate_temp(bytes[static_cast<std::size_t>(i)]);
    }
    if (z[static_cast<std::size_t>(i)] >= 3 &&
        source_rank[static_cast<std::size_t>(i)] == mpl::PROC_NULL) {
      off_b[static_cast<std::size_t>(i)] =
          builder.allocate_temp(bytes[static_cast<std::size_t>(i)]);
    }
  }

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

  auto placement = [&](Loc loc, int i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    PlanPlacement p;
    switch (loc) {
      case Loc::sendbuf:
        p.kind = PlanPlacement::Kind::send_block;
        p.index = i;
        break;
      case Loc::recvbuf:
        p.kind = PlanPlacement::Kind::recv_block;
        p.index = i;
        break;
      case Loc::temp_a:
        p.kind = PlanPlacement::Kind::temp;
        p.offset = off_a[ui];
        p.bytes = bytes[ui];
        break;
      case Loc::temp_b:
        p.kind = PlanPlacement::Kind::temp;
        p.offset = off_b[ui];
        p.bytes = bytes[ui];
        break;
    }
    return p;
  };

  std::vector<int> hops_done(static_cast<std::size_t>(t), 0);
  std::vector<Loc> cur(static_cast<std::size_t>(t), Loc::sendbuf);
  std::vector<int> offv(static_cast<std::size_t>(d), 0);

  for (int k = 0; k < d; ++k) {
    const std::vector<int> order = nb.order_by_dim(k);
    std::size_t s = 0;
    while (s < order.size()) {
      const int c = nb.coord(order[s], k);
      std::size_t e = s;
      while (e < order.size() && nb.coord(order[e], k) == c) ++e;
      if (c == 0) {
        s = e;
        continue;  // blocks that do not move in this dimension
      }
      PlanRound round;
      for (std::size_t q = s; q < e; ++q) {
        const int i = order[q];
        const std::size_t ui = static_cast<std::size_t>(i);
        const int remaining_after = z[ui] - hops_done[ui] - 1;
        if (sender_valid(i, k)) {
          round.send_items.push_back(placement(cur[ui], i));
          ++round.blocks_sent;
        }
        // Choose the parking location for the incoming instance: final
        // arrivals go to the receive slot; intermediates alternate between
        // temp and the receive slot (or a second temp slot when the
        // receive slot belongs to a PROC_NULL source).
        Loc next;
        if (remaining_after == 0) {
          next = Loc::recvbuf;
        } else if (source_rank[ui] != mpl::PROC_NULL) {
          next = (remaining_after % 2 == 1) ? Loc::temp_a : Loc::recvbuf;
        } else {
          next = (remaining_after % 2 == 1) ? Loc::temp_a : Loc::temp_b;
        }
        if (receiver_valid(i, k)) {
          round.recv_items.push_back(placement(next, i));
        }
        cur[ui] = next;
        ++hops_done[ui];
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
    if (z[static_cast<std::size_t>(i)] != 0) continue;
    builder.add_copy(placement(Loc::sendbuf, i), placement(Loc::recvbuf, i));
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
