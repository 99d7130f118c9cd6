#include "cartcomm/reduce.hpp"

#include <span>
#include <vector>

#include "cartcomm/build_schedule.hpp"

namespace cartcomm {

namespace {

const char* at_bytes(const void* base, std::ptrdiff_t disp) {
  return static_cast<const char*>(base) + disp;
}

/// Number of contribution blocks folded into this process's result: the
/// on-mesh sources, with multiplicity. On a torus this is nb.count() on
/// every process.
int contribution_blocks(const CartNeighborComm& cc) {
  int n = 0;
  for (const int r : cc.source_ranks()) {
    if (r != mpl::PROC_NULL) ++n;
  }
  return n;
}

std::vector<SendBlock> reduce_sends(const void* sendbuf, int count,
                                    const mpl::Datatype& type,
                                    ReduceVariant variant, int t) {
  if (variant == ReduceVariant::reduce) {
    return {SendBlock{sendbuf, count, type}};
  }
  std::vector<SendBlock> v(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    const std::ptrdiff_t disp =
        static_cast<std::ptrdiff_t>(i) * count * type.extent();
    v[static_cast<std::size_t>(i)] = {at_bytes(sendbuf, disp), count, type};
  }
  return v;
}

/// The blocking entry points: both algorithms are planned, so a repeated
/// call with the same buffers and op runs from the slot of the view it
/// runs on (with_self() for an allreduce) without binding anything.
int run(Collective kind, const void* sendbuf, void* recvbuf, int count,
        const mpl::Datatype& type, const mpl::ReduceOp& op,
        ReduceVariant variant, const CartNeighborComm& cc, Algorithm alg,
        DimOrder order) {
  const std::vector<SendBlock> sends =
      reduce_sends(sendbuf, count, type, variant, cc.neighbor_count());
  const RecvBlock recv{recvbuf, count, type};
  return contribution_blocks(detail::run_oneshot(
      variant == ReduceVariant::reduce ? detail::OneShot::reduce
                                       : detail::OneShot::reduce_scatter,
      cc, {kind, sends, {&recv, 1}, alg, order, &op, variant}));
}

PersistentColl init(Collective kind, const void* sendbuf, void* recvbuf,
                    int count, const mpl::Datatype& type,
                    const mpl::ReduceOp& op, ReduceVariant variant,
                    const CartNeighborComm& cc, Algorithm alg,
                    DimOrder order) {
  const std::vector<SendBlock> sends =
      reduce_sends(sendbuf, count, type, variant, cc.neighbor_count());
  const RecvBlock recv{recvbuf, count, type};
  return detail::make_persistent(
      cc, {kind, sends, {&recv, 1}, alg, order, &op, variant});
}

}  // namespace

// -- blocking one-shot entry points -------------------------------------------

int cart_neighbor_reduce(const void* sendbuf, void* recvbuf, int count,
                         const mpl::Datatype& type, const mpl::ReduceOp& op,
                         const CartNeighborComm& cc, Algorithm alg,
                         DimOrder order) {
  return run(Collective::reduce, sendbuf, recvbuf, count, type, op,
             ReduceVariant::reduce, cc, alg, order);
}

int cart_neighbor_allreduce(const void* sendbuf, void* recvbuf, int count,
                            const mpl::Datatype& type, const mpl::ReduceOp& op,
                            const CartNeighborComm& cc, Algorithm alg,
                            DimOrder order) {
  return run(Collective::allreduce, sendbuf, recvbuf, count, type, op,
             ReduceVariant::reduce, cc, alg, order);
}

int cart_reduce_scatter_block(const void* sendbuf, void* recvbuf, int count,
                              const mpl::Datatype& type,
                              const mpl::ReduceOp& op,
                              const CartNeighborComm& cc, Algorithm alg,
                              DimOrder order) {
  return run(Collective::reduce, sendbuf, recvbuf, count, type, op,
             ReduceVariant::reduce_scatter, cc, alg, order);
}

// -- persistent entry points --------------------------------------------------

PersistentColl cart_neighbor_reduce_init(const void* sendbuf, void* recvbuf,
                                         int count, const mpl::Datatype& type,
                                         const mpl::ReduceOp& op,
                                         const CartNeighborComm& cc,
                                         Algorithm alg, DimOrder order) {
  return init(Collective::reduce, sendbuf, recvbuf, count, type, op,
              ReduceVariant::reduce, cc, alg, order);
}

PersistentColl cart_neighbor_allreduce_init(const void* sendbuf, void* recvbuf,
                                            int count,
                                            const mpl::Datatype& type,
                                            const mpl::ReduceOp& op,
                                            const CartNeighborComm& cc,
                                            Algorithm alg, DimOrder order) {
  return init(Collective::allreduce, sendbuf, recvbuf, count, type, op,
              ReduceVariant::reduce, cc, alg, order);
}

PersistentColl cart_reduce_scatter_block_init(
    const void* sendbuf, void* recvbuf, int count, const mpl::Datatype& type,
    const mpl::ReduceOp& op, const CartNeighborComm& cc, Algorithm alg,
    DimOrder order) {
  return init(Collective::reduce, sendbuf, recvbuf, count, type, op,
              ReduceVariant::reduce_scatter, cc, alg, order);
}

}  // namespace cartcomm
