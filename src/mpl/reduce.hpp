// Rank reductions over mpl::ReduceOp (op.hpp), the MPI_Op analogue. Buffers
// hold `count` elements of a datatype of the op's element size that is one
// block at displacement 0 spanning its extent. reduce, allreduce and
// reduce_scatter_block combine along a binomial tree, not in rank order, so
// they need a commutative op; scan and exscan keep the lower rank's partial
// on the left, so any associative op works.
#pragma once

#include "mpl/comm.hpp"
#include "mpl/datatype.hpp"
#include "mpl/op.hpp"

namespace mpl {

/// Element-wise reduction of `count` values to `out` on `root` (out may be
/// null on non-root processes). Binomial tree, ceil(log2 p) rounds.
void reduce(const void* in, void* out, int count, const Datatype& type,
            const ReduceOp& op, int root, const Comm& comm);

/// Reduce-to-all: binomial reduce to rank 0, then binomial broadcast.
void allreduce(const void* in, void* out, int count, const Datatype& type,
               const ReduceOp& op, const Comm& comm);

/// Single-value convenience overload.
template <typename T>
T allreduce(T value, const ReduceOp& op, const Comm& comm) {
  T out{};
  allreduce(&value, &out, 1, Datatype::of<T>(), op, comm);
  return out;
}

/// Inclusive prefix reduction over ranks: out on rank r combines the
/// inputs of ranks 0..r. Hillis-Steele doubling, ceil(log2 p) rounds.
void scan(const void* in, void* out, int count, const Datatype& type,
          const ReduceOp& op, const Comm& comm);

/// Exclusive prefix reduction: out on rank r combines ranks 0..r-1
/// (zero bytes on rank 0, like MPI_Exscan leaves it undefined).
void exscan(const void* in, void* out, int count, const Datatype& type,
            const ReduceOp& op, const Comm& comm);

/// Reduce-scatter with equal block sizes: element-wise reduction of p
/// blocks of `count` values, block r delivered to rank r.
void reduce_scatter_block(const void* in, void* out, int count,
                          const Datatype& type, const ReduceOp& op,
                          const Comm& comm);

}  // namespace mpl
