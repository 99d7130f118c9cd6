#include "cartcomm/reduce.hpp"

#include <span>
#include <vector>

#include "cartcomm/build_schedule.hpp"

namespace cartcomm {

namespace {

const char* at_bytes(const void* base, std::ptrdiff_t disp) {
  return static_cast<const char*>(base) + disp;
}

/// Resolve `automatic` for a reducing collective. Unlike the movement
/// collectives there is no fully-periodic requirement — the combining
/// schedule handles mesh boundaries — but the op must be commutative
/// (partial aggregates reassociate and reorder contributions; the schedule
/// builder rejects an explicit combining request otherwise), and the
/// combining tree must actually save rounds over the trivial algorithm.
Algorithm resolve_reduce(const CartNeighborComm& cc, const mpl::ReduceOp& op,
                         Algorithm alg) {
  if (alg != Algorithm::automatic) return alg;
  const NeighborhoodStats& st = cc.stats();  // computed once, at creation
  const bool combine = op.commutative() && st.t > 0 &&
                       st.combining_rounds < st.trivial_rounds;
  return combine ? Algorithm::combining : Algorithm::trivial;
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

/// Blocking one-shot execution. Both algorithms are schedule-native, so
/// both run through the variant's slot on `cc`: a repeated call with the
/// same buffers and op runs the bound schedule without binding anything.
int run_reduce_oneshot(const CartNeighborComm& cc, const void* sendbuf,
                       void* recvbuf, int count, const mpl::Datatype& type,
                       const mpl::ReduceOp& op, ReduceVariant variant,
                       Algorithm alg, DimOrder order) {
  const bool combining =
      resolve_reduce(cc, op, alg) == Algorithm::combining;
  const std::vector<SendBlock> sends =
      reduce_sends(sendbuf, count, type, variant, cc.neighborhood().count());
  const RecvBlock recv{recvbuf, count, type};
  detail::run_in_slot(
      cc.oneshot_slot(variant == ReduceVariant::reduce
                          ? detail::OneShot::reduce
                          : detail::OneShot::reduce_scatter),
      cc.comm(), sends, std::span(&recv, 1), op.digest(),
      [&] {
        return reduce_schedule_key(cc, sends, recv, op, variant, combining,
                                   order);
      },
      [&] {
        return build_reduce_schedule(cc, sends, recv, op, variant, combining,
                                     order);
      });
  return contribution_blocks(cc);
}

}  // namespace

/// Internal factory assembling persistent reducing collectives (the
/// counterpart of CollBuilder in coll.cpp).
class ReduceBuilder {
 public:
  static PersistentColl make(const CartNeighborComm& cc, const void* sendbuf,
                             void* recvbuf, int count,
                             const mpl::Datatype& type,
                             const mpl::ReduceOp& op, ReduceVariant variant,
                             Algorithm alg, DimOrder order) {
    const std::vector<SendBlock> sends =
        reduce_sends(sendbuf, count, type, variant, cc.neighborhood().count());
    const RecvBlock recv{recvbuf, count, type};
    const Algorithm resolved = resolve_reduce(cc, op, alg);
    return {cc, resolved,
            build_reduce_schedule(cc, sends, recv, op, variant,
                                  resolved == Algorithm::combining, order)};
  }
};

// -- blocking one-shot entry points -------------------------------------------

int cart_neighbor_reduce(const void* sendbuf, void* recvbuf, int count,
                         const mpl::Datatype& type, const mpl::ReduceOp& op,
                         const CartNeighborComm& cc, Algorithm alg,
                         DimOrder order) {
  return run_reduce_oneshot(cc, sendbuf, recvbuf, count, type, op,
                            ReduceVariant::reduce, alg, order);
}

int cart_neighbor_allreduce(const void* sendbuf, void* recvbuf, int count,
                            const mpl::Datatype& type, const mpl::ReduceOp& op,
                            const CartNeighborComm& cc, Algorithm alg,
                            DimOrder order) {
  return run_reduce_oneshot(cc.with_self(), sendbuf, recvbuf, count, type, op,
                            ReduceVariant::reduce, alg, order);
}

int cart_reduce_scatter_block(const void* sendbuf, void* recvbuf, int count,
                              const mpl::Datatype& type,
                              const mpl::ReduceOp& op,
                              const CartNeighborComm& cc, Algorithm alg,
                              DimOrder order) {
  return run_reduce_oneshot(cc, sendbuf, recvbuf, count, type, op,
                            ReduceVariant::reduce_scatter, alg, order);
}

// -- persistent entry points --------------------------------------------------

PersistentColl cart_neighbor_reduce_init(const void* sendbuf, void* recvbuf,
                                         int count, const mpl::Datatype& type,
                                         const mpl::ReduceOp& op,
                                         const CartNeighborComm& cc,
                                         Algorithm alg, DimOrder order) {
  return ReduceBuilder::make(cc, sendbuf, recvbuf, count, type, op,
                             ReduceVariant::reduce, alg, order);
}

PersistentColl cart_neighbor_allreduce_init(const void* sendbuf, void* recvbuf,
                                            int count,
                                            const mpl::Datatype& type,
                                            const mpl::ReduceOp& op,
                                            const CartNeighborComm& cc,
                                            Algorithm alg, DimOrder order) {
  return ReduceBuilder::make(cc.with_self(), sendbuf, recvbuf, count, type, op,
                             ReduceVariant::reduce, alg, order);
}

PersistentColl cart_reduce_scatter_block_init(
    const void* sendbuf, void* recvbuf, int count, const mpl::Datatype& type,
    const mpl::ReduceOp& op, const CartNeighborComm& cc, Algorithm alg,
    DimOrder order) {
  return ReduceBuilder::make(cc, sendbuf, recvbuf, count, type, op,
                             ReduceVariant::reduce_scatter, alg, order);
}

}  // namespace cartcomm
