#include "cartcomm/coll.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "cartcomm/build_schedule.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/error.hpp"
#include "telemetry/plan_cache.hpp"

namespace cartcomm {

namespace {

std::size_t max_block_bytes(std::span<const SendBlock> sends) {
  std::size_t m = 0;
  for (const SendBlock& s : sends) m = std::max(m, s.bytes());
  return m;
}

}  // namespace

/// Internal factory assembling PersistentColl objects for all variants.
class CollBuilder {
 public:
  static PersistentColl make(const CartNeighborComm& cc,
                             std::vector<SendBlock> sends,
                             std::vector<RecvBlock> recvs, bool allgather,
                             DimOrder order, Algorithm alg) {
    const auto [resolved, rc] = resolve(cc, sends, allgather, alg);
    return {cc, resolved,
            build_schedule(*rc, std::move(sends), std::move(recvs), allgather,
                           order, resolved)};
  }

  /// The algorithm a call requested as `alg` resolves to, and the
  /// communicator it builds on: a combining alltoall's routing
  /// (alltoall_routing), else `cc`. Both move neighbor i's block between
  /// the same processes.
  static std::pair<Algorithm, const CartNeighborComm*> resolve(
      const CartNeighborComm& cc, std::span<const SendBlock> sends,
      bool allgather, Algorithm alg) {
    if (allgather) return {cc.resolve_allgather(alg), &cc};
    const std::size_t m = max_block_bytes(sends);
    const Algorithm resolved = cc.resolve_alltoall(alg, m);
    return {resolved, resolved == Algorithm::combining
                          ? &cc.alltoall_routing(alg, m)
                          : &cc};
  }

  /// The schedule of the resolved algorithm `alg` on the given blocks, over
  /// the offsets of `cc` as given.
  static Schedule build_schedule(const CartNeighborComm& cc,
                                 std::vector<SendBlock> sends,
                                 std::vector<RecvBlock> recvs, bool allgather,
                                 DimOrder order, Algorithm alg) {
    const Neighborhood& nb = cc.neighborhood();
    MPL_REQUIRE(sends.size() == static_cast<std::size_t>(nb.count()) &&
                    recvs.size() == static_cast<std::size_t>(nb.count()),
                "cartcomm collective: one block per neighbor required");
    if (alg != Algorithm::combining) {
      return build_trivial_schedule(cc, std::move(sends), std::move(recvs));
    }
    return allgather
               ? build_allgather_schedule(cc, sends.front(), recvs, order)
               : build_alltoall_schedule(cc, sends, recvs, Algorithm::combining);
  }
};

PersistentColl::PersistentColl(const CartNeighborComm& cc, Algorithm alg,
                               Schedule sched)
    : st_(std::make_shared<detail::PersistentState>()) {
  st_->comm = cc.comm();
  st_->alg = alg;
  st_->sched = std::move(sched);
  st_->tag = cc.next_persistent_tag();
}

void PersistentColl::execute() const {
  MPL_REQUIRE(st_ != nullptr,
              "execute on default-constructed (or moved-from) PersistentColl");
  detail::PersistentState& st = *st_;
  MPL_REQUIRE(!st.in_flight,
              "PersistentColl::execute: an execution is already in flight");
  // Route through the scratch so repeated blocking executions run with
  // zero setup and zero allocation, like the start()/wait() path.
  st.in_flight = true;
  Schedule::Execution e = st.sched.start(st.comm, st.scratch, st.tag);
  e.wait();
  st.in_flight = false;
}

CartRequest PersistentColl::start() const {
  MPL_REQUIRE(st_ != nullptr,
              "start on default-constructed (or moved-from) PersistentColl");
  detail::PersistentState& st = *st_;
  MPL_REQUIRE(!st.in_flight,
              "PersistentColl::start: an execution is already in flight");
  st.in_flight = true;
  CartRequest r;
  r.st_ = st_;  // co-ownership: the request outlives this handle if need be
  r.exec_ = st.sched.start(st.comm, st.scratch, st.tag);
  r.done_ = r.exec_.done();
  if (r.done_) st.in_flight = false;
  return r;
}

bool CartRequest::test() {
  if (done_) return true;
  MPL_REQUIRE(st_ != nullptr, "CartRequest::test on an empty request");
  done_ = exec_.test();
  if (done_) st_->in_flight = false;
  return done_;
}

void CartRequest::wait() {
  if (done_) return;
  MPL_REQUIRE(st_ != nullptr, "CartRequest::wait on an empty request");
  exec_.wait();
  done_ = true;
  st_->in_flight = false;
}

const Schedule& PersistentColl::schedule() const {
  MPL_REQUIRE(st_ != nullptr,
              "schedule() on default-constructed (or moved-from) "
              "PersistentColl");
  return st_->sched;
}

// -- one-shot execution -------------------------------------------------------

bool detail::OneShotSlot::serves(const PlanKey& k,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs,
                                 std::uint64_t digest) {
  if (st.in_flight || digest != op_digest ||
      addrs.size() != sends.size() + recvs.size() || !(k == key)) {
    return false;
  }
  auto a = addrs.begin();
  for (const SendBlock& b : sends) {
    if (*a++ != b.addr) return false;
  }
  for (const RecvBlock& b : recvs) {
    if (*a++ != b.addr) return false;
  }
  telemetry::on_plan_cache_hit();
  return true;
}

void detail::OneShotSlot::rebind(const mpl::Comm& comm, PlanKey k,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs,
                                 std::uint64_t digest, Schedule sched) {
  key = std::move(k);
  addrs.clear();
  for (const SendBlock& b : sends) addrs.push_back(b.addr);
  for (const RecvBlock& b : recvs) addrs.push_back(b.addr);
  op_digest = digest;
  st = {};  // a fresh scratch and not in flight
  st.comm = comm;
  st.sched = std::move(sched);
}

void detail::OneShotSlot::run() {
  st.in_flight = true;
  Schedule::Execution e = st.sched.start(st.comm, st.scratch, st.tag);
  e.wait();
  st.in_flight = false;
}

namespace {

using mpl::blocks_regular;
using mpl::blocks_v;
using mpl::blocks_w;

/// Blocking one-shot execution for the non-persistent entry points. The
/// combining schedule runs through the entry point's slot on the
/// communicator it routes over; the trivial schedule has nothing to
/// compile and is built per call.
void run_oneshot(detail::OneShot kind, const CartNeighborComm& cc,
                 std::vector<SendBlock> sends, std::vector<RecvBlock> recvs,
                 bool allgather, DimOrder order, Algorithm alg) {
  const auto [resolved, routed] = CollBuilder::resolve(cc, sends, allgather, alg);
  if (resolved != Algorithm::combining) {
    CollBuilder::build_schedule(cc, std::move(sends), std::move(recvs),
                                allgather, order, resolved)
        .execute(cc.comm());
    return;
  }
  const CartNeighborComm& rc = *routed;
  detail::OneShotSlot& slot = rc.oneshot_slot(kind);
  if (allgather) {
    detail::run_in_slot(
        slot, cc.comm(), sends, recvs, 0,
        [&] { return allgather_schedule_key(cc, sends.front(), recvs, order); },
        [&] {
          return build_allgather_schedule(cc, sends.front(), recvs, order);
        });
  } else {
    detail::run_in_slot(
        slot, cc.comm(), sends, recvs, 0,
        [&] { return alltoall_schedule_key(rc, sends, recvs); },
        [&] {
          return build_alltoall_schedule(rc, sends, recvs, Algorithm::combining);
        });
  }
}

}  // namespace

// -- alltoall family ----------------------------------------------------------

PersistentColl alltoall_init(const void* sendbuf, int sendcount,
                             const mpl::Datatype& sendtype, void* recvbuf,
                             int recvcount, const mpl::Datatype& recvtype,
                             const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return CollBuilder::make(
      cc, blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t),
      blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t), false,
      cc.allgather_order(), alg);
}

PersistentColl alltoallv_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const int> sdispls,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              std::span<const int> recvcounts,
                              std::span<const int> rdispls,
                              const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc, Algorithm alg) {
  return CollBuilder::make(
      cc, blocks_v<SendBlock>(sendbuf, sendcounts, sdispls, sendtype),
      blocks_v<RecvBlock>(recvbuf, recvcounts, rdispls, recvtype), false,
      cc.allgather_order(), alg);
}

PersistentColl alltoallw_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const std::ptrdiff_t> sdispls_bytes,
                              std::span<const mpl::Datatype> sendtypes,
                              void* recvbuf, std::span<const int> recvcounts,
                              std::span<const std::ptrdiff_t> rdispls_bytes,
                              std::span<const mpl::Datatype> recvtypes,
                              const CartNeighborComm& cc, Algorithm alg) {
  return CollBuilder::make(
      cc, blocks_w<SendBlock>(sendbuf, sendcounts, sdispls_bytes, sendtypes),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes),
      false, cc.allgather_order(), alg);
}

void alltoall(const void* sendbuf, int sendcount, const mpl::Datatype& sendtype,
              void* recvbuf, int recvcount, const mpl::Datatype& recvtype,
              const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  run_oneshot(detail::OneShot::alltoall, cc,
              blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t),
              blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t),
              false, cc.allgather_order(), alg);
}

void alltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, const mpl::Datatype& sendtype,
               void* recvbuf, std::span<const int> recvcounts,
               std::span<const int> rdispls, const mpl::Datatype& recvtype,
               const CartNeighborComm& cc, Algorithm alg) {
  run_oneshot(detail::OneShot::alltoallv, cc,
              blocks_v<SendBlock>(sendbuf, sendcounts, sdispls, sendtype),
              blocks_v<RecvBlock>(recvbuf, recvcounts, rdispls, recvtype),
              false, cc.allgather_order(), alg);
}

void alltoallw(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const std::ptrdiff_t> sdispls_bytes,
               std::span<const mpl::Datatype> sendtypes, void* recvbuf,
               std::span<const int> recvcounts,
               std::span<const std::ptrdiff_t> rdispls_bytes,
               std::span<const mpl::Datatype> recvtypes,
               const CartNeighborComm& cc, Algorithm alg) {
  run_oneshot(
      detail::OneShot::alltoallw, cc,
      blocks_w<SendBlock>(sendbuf, sendcounts, sdispls_bytes, sendtypes),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes),
      false, cc.allgather_order(), alg);
}

// -- allgather family ---------------------------------------------------------

PersistentColl allgather_init(const void* sendbuf, int sendcount,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              int recvcount, const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return CollBuilder::make(
      cc, blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
      blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t), true,
      cc.allgather_order(), alg);
}

PersistentColl allgatherv_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const int> displs,
                               const mpl::Datatype& recvtype,
                               const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return CollBuilder::make(
      cc, blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
      blocks_v<RecvBlock>(recvbuf, recvcounts, displs, recvtype), true,
      cc.allgather_order(), alg);
}

PersistentColl allgatherw_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const std::ptrdiff_t> rdispls_bytes,
                               std::span<const mpl::Datatype> recvtypes,
                               const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return CollBuilder::make(
      cc, blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes), true,
      cc.allgather_order(), alg);
}

void allgather(const void* sendbuf, int sendcount,
               const mpl::Datatype& sendtype, void* recvbuf, int recvcount,
               const mpl::Datatype& recvtype, const CartNeighborComm& cc,
               Algorithm alg) {
  const int t = cc.neighbor_count();
  run_oneshot(detail::OneShot::allgather, cc,
              blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
              blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t), true,
              cc.allgather_order(), alg);
}

void allgatherv(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts, std::span<const int> displs,
                const mpl::Datatype& recvtype, const CartNeighborComm& cc,
                Algorithm alg) {
  const int t = cc.neighbor_count();
  run_oneshot(
      detail::OneShot::allgatherv, cc,
      blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
      blocks_v<RecvBlock>(recvbuf, recvcounts, displs, recvtype), true,
      cc.allgather_order(), alg);
}

void allgatherw(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts,
                std::span<const std::ptrdiff_t> rdispls_bytes,
                std::span<const mpl::Datatype> recvtypes,
                const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  run_oneshot(
      detail::OneShot::allgatherw, cc,
      blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes), true,
      cc.allgather_order(), alg);
}

}  // namespace cartcomm
