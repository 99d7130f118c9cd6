// The Cartesian Collective Communication operations (Section 2): alltoall
// and allgather in regular, v (per-neighbor counts/displacements) and w
// (per-neighbor byte displacements and datatypes) variants, each with a
// persistent *_init form that precomputes the communication schedule for
// repeated execution.
//
// Signatures follow the MPI neighborhood collectives: send/receive buffers
// hold one block per neighbor, in neighborhood (target/source) order.
// Block i of the send buffer goes to the target at relative offset N[i];
// block i of the receive buffer is filled from the source at -N[i].
//
// All processes must call collectively with block sizes that are identical
// per neighbor index across processes (automatically true for the regular
// variants; a documented requirement for v/w — the same discipline the
// paper's isomorphic neighborhoods impose).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cartcomm/build_schedule.hpp"
#include "cartcomm/cart_comm.hpp"

namespace cartcomm {

class PersistentColl;

namespace detail {

/// One call of a Cartesian collective as its entry point received it: the
/// blocks (one per neighbor for alltoall and allgather; for a reduction
/// the send blocks of `variant` and the one result block), the requested
/// algorithm and, for a reduction, the op.
struct Call {
  Collective kind;
  std::span<const SendBlock> sends;
  std::span<const RecvBlock> recvs;
  Algorithm alg;
  DimOrder order;
  const mpl::ReduceOp* op = nullptr;
  ReduceVariant variant = ReduceVariant::reduce;
};

/// The persistent operation of `call` on `cc`: route() decides, and the
/// schedule is built once.
PersistentColl make_persistent(const CartNeighborComm& cc, const Call& call);

/// Run `call` on `cc` once, blocking; returns the view it ran on. A
/// schedule with a plan key runs in the view's slot `slot`, made from the
/// key once on a miss (with the plan cache off the slot is neither read
/// nor written); the trivial movement schedule has nothing to compile and
/// is built per call.
const CartNeighborComm& run_oneshot(OneShot slot, const CartNeighborComm& cc,
                                    const Call& call);

/// Everything one persistent operation owns: the communicator handle, the
/// schedule of the resolved algorithm and the reusable execution working
/// set. Shared (refcounted) between the PersistentColl and every
/// CartRequest started from it, so an in-flight execution keeps
/// the schedule, its temp pools and the communicator alive even when the
/// PersistentColl itself is destroyed first — executing a stale handle is
/// an assertion, never a use-after-free. A one-shot slot holds one too.
struct PersistentState {
  mpl::Comm comm;
  Algorithm alg = Algorithm::trivial;
  Schedule sched;
  ExecutionScratch scratch;  // reused request table + receive slots
  int tag = kCartTag;  // this operation's own matching tag
  // At most one execution of an operation may be in flight (the schedule's
  // buffers and tag are shared); enforced by assertion.
  bool in_flight = false;
};

/// The blocking one-shot entry points that go through the plan cache;
/// each has a slot of its own on every communicator. The allreduce uses
/// the reduce slot of its with_self() view.
enum class OneShot : std::uint8_t {
  alltoall,
  alltoallv,
  alltoallw,
  allgather,
  allgatherv,
  allgatherw,
  reduce,
  reduce_scatter,
  count
};

/// The schedule one entry point bound last, with every input its bind
/// read beyond the communicator: the plan key (which holds the block
/// types and counts), every block address and, for a reduction, the op
/// digest. Bind is deterministic in these, so a call that matches all
/// of them may run the schedule as it stands: it is bit-identical to
/// what a fresh bind would produce, even when a buffer was freed and
/// another allocated at its address.
struct OneShotSlot {
  PlanKey key;  // no words until the first bind
  std::vector<const void*> addrs;  // every send, then every receive block
  std::uint64_t op_digest = 0;
  PersistentState st;  // tag kCartTag; in_flight while an execution runs

  /// Whether the slot holds exactly these inputs' schedule, counted as
  /// one plan-cache hit. A slot whose last execution threw never serves.
  [[nodiscard]] bool serves(const PlanKey& k, std::span<const SendBlock> sends,
                            std::span<const RecvBlock> recvs,
                            std::uint64_t digest);
  /// Hold `sched`, bound from these inputs, in place of the last schedule.
  void rebind(const mpl::Comm& comm, PlanKey k,
              std::span<const SendBlock> sends,
              std::span<const RecvBlock> recvs, std::uint64_t digest,
              Schedule sched);
};

struct OneShotSlots {
  std::array<OneShotSlot, static_cast<std::size_t>(OneShot::count)> slots;
};

}  // namespace detail

/// Handle for one in-flight non-blocking execution of a persistent
/// Cartesian collective (the non-blocking persistent mode the paper
/// anticipates, Section 2). Progress happens inside test()/wait(). The
/// request co-owns the operation's state, so it stays valid after the
/// PersistentColl it was started from is destroyed.
class CartRequest {
 public:
  CartRequest() = default;

  [[nodiscard]] bool done() const noexcept { return done_; }
  /// Make progress; returns true once the operation completed locally.
  /// Callers driving progress for its own sake should loop on the result
  /// or consult done() — a discarded completion flag hides a finished op.
  [[nodiscard]] bool test();
  /// Block until completion.
  void wait();

 private:
  friend class PersistentColl;
  std::shared_ptr<detail::PersistentState> st_;  // co-owned operation state
  Schedule::Execution exec_;
  bool done_ = true;
};

/// Precomputed collective (the *_init handles of Section 2). Executing is
/// blocking and collective; the schedule (and its temp buffer) is reused
/// across executions, and repeated executions reuse the request table and
/// receive request states, so the steady state performs no setup work and
/// no heap allocation.
class PersistentColl {
 public:
  PersistentColl() = default;

  /// Run the operation once (collective, blocking).
  void execute() const;

  /// Begin a non-blocking execution; complete it with CartRequest::wait().
  /// At most one execution of a given operation may be in flight (the
  /// schedule's buffers and tag are shared); executions of different
  /// operations may overlap freely, each matching on its own tag. The
  /// schedule advances its phases inside test()/wait(): the trivial
  /// algorithm posts every receive here and sends to one neighbor per
  /// phase, the combining algorithm runs one dimension per phase.
  [[nodiscard]] CartRequest start() const;

  /// The algorithm this operation was bound to: what
  /// CartNeighborComm::route() decided at init time.
  [[nodiscard]] Algorithm algorithm() const noexcept {
    return st_ ? st_->alg : Algorithm::trivial;
  }

  /// The precomputed schedule of the resolved algorithm; used by tests and
  /// benchmarks for introspection.
  [[nodiscard]] const Schedule& schedule() const;

 private:
  friend PersistentColl detail::make_persistent(const CartNeighborComm&,
                                               const detail::Call&);

  /// Draws the operation's matching tag from `cc`.
  PersistentColl(const CartNeighborComm& cc, Algorithm alg, Schedule sched);

  std::shared_ptr<detail::PersistentState> st_;
};

// -- alltoall family ----------------------------------------------------------

void alltoall(const void* sendbuf, int sendcount, const mpl::Datatype& sendtype,
              void* recvbuf, int recvcount, const mpl::Datatype& recvtype,
              const CartNeighborComm& cc,
              Algorithm alg = Algorithm::automatic);

void alltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, const mpl::Datatype& sendtype,
               void* recvbuf, std::span<const int> recvcounts,
               std::span<const int> rdispls, const mpl::Datatype& recvtype,
               const CartNeighborComm& cc,
               Algorithm alg = Algorithm::automatic);

void alltoallw(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const std::ptrdiff_t> sdispls_bytes,
               std::span<const mpl::Datatype> sendtypes, void* recvbuf,
               std::span<const int> recvcounts,
               std::span<const std::ptrdiff_t> rdispls_bytes,
               std::span<const mpl::Datatype> recvtypes,
               const CartNeighborComm& cc,
               Algorithm alg = Algorithm::automatic);

PersistentColl alltoall_init(const void* sendbuf, int sendcount,
                             const mpl::Datatype& sendtype, void* recvbuf,
                             int recvcount, const mpl::Datatype& recvtype,
                             const CartNeighborComm& cc,
                             Algorithm alg = Algorithm::automatic);

PersistentColl alltoallv_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const int> sdispls,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              std::span<const int> recvcounts,
                              std::span<const int> rdispls,
                              const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc,
                              Algorithm alg = Algorithm::automatic);

PersistentColl alltoallw_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const std::ptrdiff_t> sdispls_bytes,
                              std::span<const mpl::Datatype> sendtypes,
                              void* recvbuf, std::span<const int> recvcounts,
                              std::span<const std::ptrdiff_t> rdispls_bytes,
                              std::span<const mpl::Datatype> recvtypes,
                              const CartNeighborComm& cc,
                              Algorithm alg = Algorithm::automatic);

// -- allgather family ---------------------------------------------------------

void allgather(const void* sendbuf, int sendcount,
               const mpl::Datatype& sendtype, void* recvbuf, int recvcount,
               const mpl::Datatype& recvtype, const CartNeighborComm& cc,
               Algorithm alg = Algorithm::automatic);

void allgatherv(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts, std::span<const int> displs,
                const mpl::Datatype& recvtype, const CartNeighborComm& cc,
                Algorithm alg = Algorithm::automatic);

/// Allgather with per-source datatypes — the operation the paper adds
/// beyond MPI (Section 2.1): every source block has the send block's size
/// but its own layout and byte displacement in the receive buffer.
void allgatherw(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts,
                std::span<const std::ptrdiff_t> rdispls_bytes,
                std::span<const mpl::Datatype> recvtypes,
                const CartNeighborComm& cc,
                Algorithm alg = Algorithm::automatic);

PersistentColl allgather_init(const void* sendbuf, int sendcount,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              int recvcount, const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc,
                              Algorithm alg = Algorithm::automatic);

PersistentColl allgatherv_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const int> displs,
                               const mpl::Datatype& recvtype,
                               const CartNeighborComm& cc,
                               Algorithm alg = Algorithm::automatic);

PersistentColl allgatherw_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const std::ptrdiff_t> rdispls_bytes,
                               std::span<const mpl::Datatype> recvtypes,
                               const CartNeighborComm& cc,
                               Algorithm alg = Algorithm::automatic);

}  // namespace cartcomm
