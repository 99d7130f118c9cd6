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

using detail::Call;

/// route()'s decision for `c`. The builders check the blocks.
Route route(const CartNeighborComm& cc, const Call& c) {
  std::size_t m = 0;  // an alltoall's largest block
  for (const SendBlock& s : c.sends) m = std::max(m, s.bytes());
  return cc.route(c.kind, c.alg, m, c.op);
}

/// Execute `st`'s schedule to completion through its scratch, so repeated
/// blocking executions run with zero setup and zero allocation, like the
/// start()/wait() path.
void run_blocking(detail::PersistentState& st) {
  st.in_flight = true;
  st.sched.start(st.comm, st.scratch, st.tag).wait();
  st.in_flight = false;
}

/// Whether `r` builds `c` through the plan cache: every reduction, and
/// combining movement. The trivial movement schedule has no plan.
bool planned(const Call& c, const Route& r) {
  return c.op != nullptr || r.alg == Algorithm::combining;
}

PlanKey key(const Call& c, const Route& r) {
  switch (c.kind) {
    case Collective::alltoall:
      return alltoall_schedule_key(r.view, c.sends, c.recvs);
    case Collective::allgather:
      return allgather_schedule_key(r.view, c.sends.front(), c.recvs, c.order);
    default:
      return reduce_schedule_key(r.view, c.sends, c.recvs.front(), *c.op,
                                 c.variant, r.alg == Algorithm::combining,
                                 c.order);
  }
}

Schedule build(const Call& c, const Route& r, const PlanKey& k) {
  switch (c.kind) {
    case Collective::alltoall:
      return build_alltoall_schedule(r.view, k, c.sends, c.recvs);
    case Collective::allgather:
      return build_allgather_schedule(r.view, k, c.sends.front(), c.recvs,
                                      c.order);
    default:
      return build_reduce_schedule(r.view, k, c.sends, c.recvs.front(), *c.op,
                                   c.variant, r.alg == Algorithm::combining,
                                   c.order);
  }
}

}  // namespace

PersistentColl detail::make_persistent(const CartNeighborComm& cc,
                                       const Call& c) {
  const Route r = route(cc, c);
  return {cc, r.alg,
          planned(c, r) ? build(c, r, key(c, r))
                        : build_trivial_schedule(r.view, c.sends, c.recvs)};
}

const CartNeighborComm& detail::run_oneshot(OneShot slot,
                                            const CartNeighborComm& cc,
                                            const Call& c) {
  const Route r = route(cc, c);
  if (!planned(c, r)) {
    build_trivial_schedule(r.view, c.sends, c.recvs).execute(cc.comm());
    return r.view;
  }
  PlanKey k = key(c, r);
  if (!plan_cache_enabled()) {
    build(c, r, k).execute(cc.comm());
    return r.view;
  }
  OneShotSlot& s = r.view.oneshot_slot(slot);
  const std::uint64_t digest = c.op != nullptr ? c.op->digest() : 0;
  if (!s.serves(k, c.sends, c.recvs, digest)) {
    Schedule sched = build(c, r, k);
    s.rebind(cc.comm(), std::move(k), c.sends, c.recvs, digest,
             std::move(sched));
  }
  run_blocking(s.st);
  return r.view;
}

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
  run_blocking(st);
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

namespace {

using mpl::blocks_regular;
using mpl::blocks_v;
using mpl::blocks_w;

PersistentColl init(Collective kind, const CartNeighborComm& cc,
                    const std::vector<SendBlock>& sends,
                    const std::vector<RecvBlock>& recvs, Algorithm alg) {
  return detail::make_persistent(
      cc, {kind, sends, recvs, alg, cc.allgather_order()});
}

void oneshot(detail::OneShot slot, Collective kind,
             const CartNeighborComm& cc, const std::vector<SendBlock>& sends,
             const std::vector<RecvBlock>& recvs, Algorithm alg) {
  detail::run_oneshot(slot, cc,
                      {kind, sends, recvs, alg, cc.allgather_order()});
}

}  // namespace

// -- alltoall family ----------------------------------------------------------

PersistentColl alltoall_init(const void* sendbuf, int sendcount,
                             const mpl::Datatype& sendtype, void* recvbuf,
                             int recvcount, const mpl::Datatype& recvtype,
                             const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return init(Collective::alltoall, cc,
              blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t),
              blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t), alg);
}

PersistentColl alltoallv_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const int> sdispls,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              std::span<const int> recvcounts,
                              std::span<const int> rdispls,
                              const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc, Algorithm alg) {
  return init(Collective::alltoall, cc,
              blocks_v<SendBlock>(sendbuf, sendcounts, sdispls, sendtype),
              blocks_v<RecvBlock>(recvbuf, recvcounts, rdispls, recvtype), alg);
}

PersistentColl alltoallw_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const std::ptrdiff_t> sdispls_bytes,
                              std::span<const mpl::Datatype> sendtypes,
                              void* recvbuf, std::span<const int> recvcounts,
                              std::span<const std::ptrdiff_t> rdispls_bytes,
                              std::span<const mpl::Datatype> recvtypes,
                              const CartNeighborComm& cc, Algorithm alg) {
  return init(
      Collective::alltoall, cc,
      blocks_w<SendBlock>(sendbuf, sendcounts, sdispls_bytes, sendtypes),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes), alg);
}

void alltoall(const void* sendbuf, int sendcount, const mpl::Datatype& sendtype,
              void* recvbuf, int recvcount, const mpl::Datatype& recvtype,
              const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  oneshot(detail::OneShot::alltoall, Collective::alltoall, cc,
          blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t),
          blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t), alg);
}

void alltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, const mpl::Datatype& sendtype,
               void* recvbuf, std::span<const int> recvcounts,
               std::span<const int> rdispls, const mpl::Datatype& recvtype,
               const CartNeighborComm& cc, Algorithm alg) {
  oneshot(detail::OneShot::alltoallv, Collective::alltoall, cc,
          blocks_v<SendBlock>(sendbuf, sendcounts, sdispls, sendtype),
          blocks_v<RecvBlock>(recvbuf, recvcounts, rdispls, recvtype), alg);
}

void alltoallw(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const std::ptrdiff_t> sdispls_bytes,
               std::span<const mpl::Datatype> sendtypes, void* recvbuf,
               std::span<const int> recvcounts,
               std::span<const std::ptrdiff_t> rdispls_bytes,
               std::span<const mpl::Datatype> recvtypes,
               const CartNeighborComm& cc, Algorithm alg) {
  oneshot(
      detail::OneShot::alltoallw, Collective::alltoall, cc,
      blocks_w<SendBlock>(sendbuf, sendcounts, sdispls_bytes, sendtypes),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes), alg);
}

// -- allgather family ---------------------------------------------------------

PersistentColl allgather_init(const void* sendbuf, int sendcount,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              int recvcount, const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return init(Collective::allgather, cc,
              blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
              blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t), alg);
}

PersistentColl allgatherv_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const int> displs,
                               const mpl::Datatype& recvtype,
                               const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return init(Collective::allgather, cc,
              blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
              blocks_v<RecvBlock>(recvbuf, recvcounts, displs, recvtype), alg);
}

PersistentColl allgatherw_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const std::ptrdiff_t> rdispls_bytes,
                               std::span<const mpl::Datatype> recvtypes,
                               const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  return init(
      Collective::allgather, cc,
      blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes), alg);
}

void allgather(const void* sendbuf, int sendcount,
               const mpl::Datatype& sendtype, void* recvbuf, int recvcount,
               const mpl::Datatype& recvtype, const CartNeighborComm& cc,
               Algorithm alg) {
  const int t = cc.neighbor_count();
  oneshot(detail::OneShot::allgather, Collective::allgather, cc,
          blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
          blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, t), alg);
}

void allgatherv(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts, std::span<const int> displs,
                const mpl::Datatype& recvtype, const CartNeighborComm& cc,
                Algorithm alg) {
  const int t = cc.neighbor_count();
  oneshot(detail::OneShot::allgatherv, Collective::allgather, cc,
          blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
          blocks_v<RecvBlock>(recvbuf, recvcounts, displs, recvtype), alg);
}

void allgatherw(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts,
                std::span<const std::ptrdiff_t> rdispls_bytes,
                std::span<const mpl::Datatype> recvtypes,
                const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  oneshot(
      detail::OneShot::allgatherw, Collective::allgather, cc,
      blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, t, true),
      blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes), alg);
}

}  // namespace cartcomm
