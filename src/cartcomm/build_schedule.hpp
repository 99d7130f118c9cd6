// Message-combining schedule construction (Algorithms 1 and 2).
//
// Both builders are split into a rank-independent *compile* step and a
// per-call *bind* step (see plan.hpp): the entry points below validate
// their arguments, consult the process-global compiled-plan cache keyed
// on the canonical neighborhood signature, compile on a miss, and bind
// the (possibly cached) plan to the caller's buffers. The resulting
// Schedule is bit-identical to one built directly. Each *_schedule_key
// runs a builder's validation and returns its plan key without building,
// so a blocking one-shot call can test whether the schedule its
// communicator bound last still fits (coll.hpp); on a miss it builds from
// that key with the overload taking it.
#pragma once

#include <span>

#include "cartcomm/analysis.hpp"
#include "cartcomm/cart_comm.hpp"
#include "cartcomm/plan.hpp"

namespace cartcomm {

/// Algorithm 1: the message-combining alltoall schedule. One send and one
/// receive block per neighbor (regular and irregular variants differ only
/// in the descriptors). Per-neighbor send and receive blocks must have
/// equal packed sizes, and — as for all Cartesian collectives — all
/// processes must pass blocks of identical sizes per neighbor index.
/// Runs in d phases of sum(C_k) rounds; per-process volume sum(z_i) blocks
/// (Proposition 3.2). O(td) construction, local only (Proposition 3.1).
/// The offsets are those of the view cc.route(Collective::alltoall, alg,
/// largest block) returns: the routing neighborhood where an automatic
/// alltoall combines (the schedule it runs), cc's offsets as given
/// otherwise.
Schedule build_alltoall_schedule(const CartNeighborComm& cc,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs,
                                 Algorithm alg = Algorithm::automatic);

/// Algorithm 2: the message-combining allgather schedule. One send block
/// (replicated to all targets), one receive block per source neighbor; all
/// blocks must have the send block's packed size. The routing tree is
/// built over dimensions in the given order (the paper's default explores
/// dimensions by increasing C_k). Runs in d phases of sum(C_k) rounds;
/// per-process volume = number of tree edges (Proposition 3.3).
Schedule build_allgather_schedule(const CartNeighborComm& cc,
                                  const SendBlock& send,
                                  std::span<const RecvBlock> recvs,
                                  DimOrder order = DimOrder::increasing_ck);

/// The trivial algorithm (Listing 4) for alltoall and allgather (whose
/// send blocks are the replicated send block): one phase per non-zero
/// neighbor of one send-receive round moving block i as given, then the
/// zero-vector blocks by local copy. Built directly, in O(t·d), without the
/// plan cache.
Schedule build_trivial_schedule(const CartNeighborComm& cc,
                                std::span<const SendBlock> sends,
                                std::span<const RecvBlock> recvs);

/// Reducing schedules (the allgather tree run in reverse with
/// combine-on-unpack; reduce_schedule.cpp). `sends` holds one block for
/// ReduceVariant::reduce and t blocks for reduce_scatter; `recv` is the
/// single result block. Every block type must be dense at displacement 0
/// (one block at offset 0 spanning the extent) with a byte size that is a
/// multiple of the op element. With
/// `combining = false` the trivial one-phase schedule is built (required
/// for non-commutative ops).
Schedule build_reduce_schedule(const CartNeighborComm& cc,
                               std::span<const SendBlock> sends,
                               const RecvBlock& recv, const mpl::ReduceOp& op,
                               ReduceVariant variant, bool combining,
                               DimOrder order = DimOrder::increasing_ck);

/// The validated plan keys of the three plan-cached builders: each throws
/// where its builder would and returns the key the builder looks up.
[[nodiscard]] PlanKey alltoall_schedule_key(const CartNeighborComm& cc,
                                            std::span<const SendBlock> sends,
                                            std::span<const RecvBlock> recvs);
[[nodiscard]] PlanKey allgather_schedule_key(
    const CartNeighborComm& cc, const SendBlock& send,
    std::span<const RecvBlock> recvs, DimOrder order);
[[nodiscard]] PlanKey reduce_schedule_key(
    const CartNeighborComm& cc, std::span<const SendBlock> sends,
    const RecvBlock& recv, const mpl::ReduceOp& op, ReduceVariant variant,
    bool combining, DimOrder order);

/// The three builders from the key their *_schedule_key returned for the
/// same arguments (on `cc` itself: no routing): the plan of `key`, compiled
/// on a miss, bound to the blocks.
Schedule build_alltoall_schedule(const CartNeighborComm& cc,
                                 const PlanKey& key,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs);
Schedule build_allgather_schedule(const CartNeighborComm& cc,
                                  const PlanKey& key, const SendBlock& send,
                                  std::span<const RecvBlock> recvs,
                                  DimOrder order);
Schedule build_reduce_schedule(const CartNeighborComm& cc, const PlanKey& key,
                               std::span<const SendBlock> sends,
                               const RecvBlock& recv, const mpl::ReduceOp& op,
                               ReduceVariant variant, bool combining,
                               DimOrder order);

}  // namespace cartcomm
