#include "mpl/request.hpp"

#include <algorithm>
#include <chrono>

#include "mpl/comm_state.hpp"
#include "mpl/error.hpp"
#include "mpl/proc.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace mpl {

namespace {

// Perform the (idempotent) network-model accounting for a completed
// request on its owning process. Receive completions advance the owner's
// virtual clock past the arrival of the message; sends complete locally.
//
// This is also the recv-side instrumentation point: the virtual-clock
// advance caused here is decomposed into G (wire time), L (latency) and
// idle (the message was not ready yet — but the receiver's clock was
// already past parts of its flight), or copy for self-messages, such that
// the components sum *exactly* to the advance. That exactness is what lets
// tools/trace_report rebuild a collective's makespan from the critical
// rank's components.
void account(detail::ReqState& st, Proc& owner) {
  if (st.model_accounted) return;
  st.model_accounted = true;
  if (st.kind != detail::ReqState::Kind::recv || st.null_recv) return;

  trace::RankTrace* tr = owner.trace();
  const bool tracing = tr && tr->tracing();
  // Attribution is needed for trace events and for the idle (wait stall)
  // counter.
  const bool attribute = tracing || st.counters;
  NetClock& clk = owner.clock();

  const double w0 = tracing ? owner.tracer()->wall_now() : 0.0;
  double v0 = 0.0;
  double advance = 0.0;
  std::array<double, trace::kComponents> comp{};
  if (clk.enabled()) {
    v0 = clk.now();
    NetClock::RecvTiming timing;
    // A packed (non-dense, blocks > 1) message pays its receiver-side
    // datatype scatter G_pack here, on the *actual* message size — the
    // posted capacity is irrelevant. Truncated receives moved real bytes
    // across the wire but never unpacked, so they charge wire cost only.
    const bool packed = st.blocks > 1 && !st.truncated;
    const double done_at =
        clk.complete_recv(st.depart, st.status.bytes, st.from_self, packed,
                          attribute ? &timing : nullptr);
    clk.advance_to(done_at);
    advance = clk.now() - v0;
    if (attribute) {
      // Attribute the advance back-to-front: the trailing G_pack*bytes is
      // the datatype scatter, the G*bytes before it is wire time, the
      // preceding stretch (up to the sampled latency) is L, and whatever
      // of the flight this process had already sat out shows up as idle.
      auto& gp = comp[static_cast<int>(trace::Component::G_pack)];
      gp = std::min(advance, timing.g_pack);
      double rem = advance - gp;
      if (st.from_self) {
        auto& copy = comp[static_cast<int>(trace::Component::copy)];
        copy = std::min(rem, timing.copy);
        comp[static_cast<int>(trace::Component::idle)] = rem - copy;
      } else {
        auto& g = comp[static_cast<int>(trace::Component::G)];
        g = std::min(rem, timing.g);
        rem -= g;
        auto& l = comp[static_cast<int>(trace::Component::L)];
        l = std::min(rem, timing.latency);
        comp[static_cast<int>(trace::Component::idle)] = rem - l;
      }
    }
  }
  // Owner-side receive counters: account() is the one point every
  // request-based receive passes exactly once (the no-request fast path
  // counts in Comm::recv directly).
  if (st.counters) {
    st.counters->on_recv(st.status.bytes,
                         comp[static_cast<int>(trace::Component::idle)]);
  }
  if (tracing) {
    trace::Event e;
    e.kind = trace::EventKind::recv_complete;
    e.peer = st.status.source;
    e.tag = st.status.tag;
    e.ctx = st.ctx;
    e.bytes = st.status.bytes;
    e.v_start = v0;
    e.v_end = v0 + advance;
    e.w_start = w0;
    e.w_end = owner.tracer()->wall_now();
    e.depart = st.depart;
    e.arrive_wall = st.arrive_wall;
    e.comp = comp;
    tr->record(std::move(e));
  }
}

}  // namespace

Status Request::wait() {
  MPL_REQUIRE(valid(), "wait on invalid request");
  if (!state_->done.load(std::memory_order_acquire)) {
    if (telemetry::CommCounters* cc = state_->counters) {
      // Wall-clock the park. steady_clock, not the tracer's clock, so the
      // wait counters work with tracing fully disarmed.
      const auto w0 = std::chrono::steady_clock::now();
      owner_->mailbox().wait_done(state_);
      const auto blocked = std::chrono::steady_clock::now() - w0;
      const double secs =
          std::chrono::duration<double>(blocked).count();
      cc->on_wait_block(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(blocked)
              .count()));
      if (trace::RankTrace* tr = owner_->trace(); tr && tr->tracing()) {
        // Zero-component marker event: the wait adds no modeled cost (the
        // virtual clock does not move while parked), but the wall span
        // makes blocked time visible on the trace timeline.
        trace::Event e;
        e.kind = trace::EventKind::wait_block;
        e.ctx = state_->ctx;
        e.peer = state_->kind == detail::ReqState::Kind::recv
                     ? state_->match_src
                     : -1;
        const double v =
            owner_->clock().enabled() ? owner_->clock().now() : 0.0;
        e.v_start = v;
        e.v_end = v;
        e.w_end = owner_->tracer()->wall_now();
        e.w_start = e.w_end - secs;
        tr->record(std::move(e));
      }
    } else {
      owner_->mailbox().wait_done(state_);
    }
  }
  // Accounting precedes the error throw: a truncated message still crossed
  // the wire, and the owner's virtual clock must advance past it even
  // though the receive is reported as failed.
  account(*state_, *owner_);
  if (!state_->error.empty()) throw Error(state_->error);
  return state_->status;
}

bool Request::test(Status* st) {
  MPL_REQUIRE(valid(), "test on invalid request");
  // Completion is published with a release store, so this acquire load is
  // the whole check — no mailbox lock on the polling fast path.
  if (!state_->done.load(std::memory_order_acquire)) return false;
  account(*state_, *owner_);
  if (!state_->error.empty()) throw Error(state_->error);
  if (st) *st = state_->status;
  return true;
}

bool test_any(std::span<Request> reqs, std::size_t* index, Status* st) {
  const std::size_t n = reqs.size();
  if (n == 0) return false;
  // Rotate the scan's starting point per call. A fixed scan from index 0
  // starves high indices under sustained traffic: a request that is always
  // ready at a low index wins every call and the later ones are never
  // drained. The rotation is a thread-local counter, so results stay
  // deterministic per simulated rank (each run spawns fresh threads).
  thread_local std::size_t rr_start = 0;
  const std::size_t start = rr_start++ % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    if (!reqs[i].valid()) continue;
    Status s;
    if (reqs[i].test(&s)) {
      if (index) *index = i;
      if (st) *st = s;
      return true;
    }
  }
  return false;
}

Status wait_any(std::span<Request> reqs, std::size_t* index) {
  Proc* owner = nullptr;
  for (const Request& r : reqs) {
    if (r.valid()) {
      MPL_REQUIRE(owner == nullptr || owner == r.owner_,
                  "wait_any: requests from different processes");
      owner = r.owner_;
    }
  }
  MPL_REQUIRE(owner != nullptr, "wait_any: no valid request");
  // Completion flags are set under the owner's mailbox lock, so the
  // predicate re-evaluates exactly when one may have flipped.
  owner->mailbox().wait_until([&] {
    for (const Request& r : reqs) {
      if (r.valid() && r.state_->done) return true;
    }
    return false;
  });
  std::size_t idx = 0;
  Status st;
  const bool some = test_any(reqs, &idx, &st);
  MPL_REQUIRE(some, "wait_any: internal inconsistency");
  if (index) *index = idx;
  return st;
}

void wait_all(std::span<Request> reqs, std::span<Status> statuses) {
  MPL_REQUIRE(statuses.empty() || statuses.size() >= reqs.size(),
              "wait_all: status array too small");
  // Completion is awaited in request order, which also fixes the order of
  // virtual-clock accounting (deterministic results under the model).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Status s = reqs[i].wait();
    if (!statuses.empty()) statuses[i] = s;
  }
}

}  // namespace mpl
