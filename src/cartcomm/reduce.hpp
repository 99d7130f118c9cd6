// Reducing Cartesian collectives — the extension sketched in Sections 2.2
// and 5 of the paper (and in the earlier isomorphic-collectives proposal
// the paper cites as [16]), promoted to first-class schedule-native
// operations.
//
//  * cart_neighbor_reduce — recvbuf = op over the t source neighbors'
//    contribution blocks (the calling process participates once per zero
//    vector in the neighborhood).
//  * cart_neighbor_allreduce — like reduce, but the own block always
//    participates: the sparse allreduce over the t-neighborhood
//    (implemented as a reduce over the neighborhood with the zero vector
//    appended when absent).
//  * cart_reduce_scatter_block — every process contributes one block *per
//    neighbor* (block i toward the target at N[i]); each process receives
//    the reduction of the blocks addressed to it.
//
// Two algorithms, both executed as Schedules (visible to plans, the plan
// cache, verify and telemetry):
//
//  * trivial — one round per non-zero neighbor; received blocks fold into
//    the result in neighbor index order. Fixed order: safe for
//    non-commutative operators.
//  * combining — the allgather routing tree of Algorithm 2 run in
//    *reverse* with combine-on-the-fly unpack: partial aggregates flow
//    toward each consumer in C = sum C_k rounds with per-process volume =
//    tree edges (commutative ops only; see reduce_schedule.cpp). Works on
//    meshes: partial aggregates shrink consistently at the boundary.
//
// `automatic` picks combining when the op is commutative and the tree has
// fewer rounds than the trivial algorithm. All variants return the number
// of contribution blocks reduced into the result (the number of on-mesh
// sources, with multiplicity); when it is zero the result is the op's
// identity element. recvbuf must not alias sendbuf.
#pragma once

#include "cartcomm/cart_comm.hpp"
#include "cartcomm/coll.hpp"
#include "mpl/datatype.hpp"
#include "mpl/op.hpp"

namespace cartcomm {

int cart_neighbor_reduce(const void* sendbuf, void* recvbuf, int count,
                         const mpl::Datatype& type, const mpl::ReduceOp& op,
                         const CartNeighborComm& cc,
                         Algorithm alg = Algorithm::automatic,
                         DimOrder order = DimOrder::increasing_ck);

int cart_neighbor_allreduce(const void* sendbuf, void* recvbuf, int count,
                            const mpl::Datatype& type, const mpl::ReduceOp& op,
                            const CartNeighborComm& cc,
                            Algorithm alg = Algorithm::automatic,
                            DimOrder order = DimOrder::increasing_ck);

/// sendbuf holds t blocks of `count` elements (block i addressed to the
/// target at N[i]); recvbuf receives one block.
int cart_reduce_scatter_block(const void* sendbuf, void* recvbuf, int count,
                              const mpl::Datatype& type,
                              const mpl::ReduceOp& op,
                              const CartNeighborComm& cc,
                              Algorithm alg = Algorithm::automatic,
                              DimOrder order = DimOrder::increasing_ck);

// Persistent variants: the reducing schedule (including the trivial one —
// it is schedule-native too) is precomputed once and re-executed with zero
// setup via PersistentColl::execute()/start().

PersistentColl cart_neighbor_reduce_init(
    const void* sendbuf, void* recvbuf, int count, const mpl::Datatype& type,
    const mpl::ReduceOp& op, const CartNeighborComm& cc,
    Algorithm alg = Algorithm::automatic,
    DimOrder order = DimOrder::increasing_ck);

PersistentColl cart_neighbor_allreduce_init(
    const void* sendbuf, void* recvbuf, int count, const mpl::Datatype& type,
    const mpl::ReduceOp& op, const CartNeighborComm& cc,
    Algorithm alg = Algorithm::automatic,
    DimOrder order = DimOrder::increasing_ck);

PersistentColl cart_reduce_scatter_block_init(
    const void* sendbuf, void* recvbuf, int count, const mpl::Datatype& type,
    const mpl::ReduceOp& op, const CartNeighborComm& cc,
    Algorithm alg = Algorithm::automatic,
    DimOrder order = DimOrder::increasing_ck);

}  // namespace cartcomm
