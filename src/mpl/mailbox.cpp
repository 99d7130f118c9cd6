#include "mpl/mailbox.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <thread>

#include "mpl/error.hpp"
#include "mpl/runtime_state.hpp"
#include "trace/trace.hpp"

namespace mpl {

using detail::Message;
using detail::ReqState;

bool Mailbox::matches(const ReqState& r, const detail::MsgHeader& m) {
  return r.ctx == m.ctx &&
         (r.match_src == ANY_SOURCE || r.match_src == m.src) &&
         (r.match_tag == ANY_TAG || r.match_tag == m.tag);
}

namespace {

std::string truncation_error(std::size_t incoming, std::size_t capacity) {
  return "mpl: message truncated (incoming " + std::to_string(incoming) +
         " bytes, receive capacity " + std::to_string(capacity) + " bytes)";
}

// Fill the completion fields of a receive matched by a message of
// `incoming` bytes. MPI truncation semantics: an incoming message longer
// than the posted receive is an error, surfaced at the *receiver's*
// wait/test call. The message still crossed the wire, so the model
// accounts its full cost; only the copy into the (too small) user buffer
// is suppressed — the return value says whether to copy.
bool accept(ReqState& r, const detail::MsgHeader& h, std::size_t incoming) {
  const std::size_t capacity = r.type.pack_size(r.count);
  r.depart = h.depart;
  r.arrive_wall = h.arrive_wall;
  r.from_self = h.from_self;
  r.status = Status{h.src, h.tag, incoming};
  if (incoming <= capacity) return true;
  r.error = truncation_error(incoming, capacity);
  r.truncated = true;
  return false;
}

}  // namespace

std::shared_ptr<ReqState> Mailbox::take_posted(const detail::MsgHeader& h) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(**it, h)) {
      std::shared_ptr<ReqState> r = std::move(*it);
      posted_.erase(it);  // preserves posting order of the remainder
      any_posted_.store(!posted_.empty(), std::memory_order_relaxed);
      return r;
    }
  }
  return nullptr;
}

// Complete a receive from a staged payload and hand the buffer back to its
// origin pool. Runs with NO lock held: the pairing was fixed under the
// mailbox mutex, so the unpack (a potentially large datatype scatter) must
// not serialize other senders or the owner. Does NOT set r.done — the
// caller publishes completion afterwards.
void Mailbox::complete(ReqState& r, Message& m) {
  const std::size_t incoming = m.payload.size();
  if (accept(r, m, incoming)) {
    r.type.unpack_partial(m.payload.data(), incoming, r.base, r.count);
  }
  m.release();
}

void Mailbox::publish(ReqState& r) {
  // Storing `done` under the mutex is what makes the owner's predicated
  // cv_ wait lost-wakeup-free; the release order still pairs with the
  // lock-free acquire loads in poll_done()/test().
  bool wake = false;
  {
    detail::CheckedLock lock(mtx_);
    r.done.store(true, std::memory_order_release);
    wake = wait_kind_ == WaitKind::any ||
           (wait_kind_ == WaitKind::request && wait_req_ == &r);
  }
  if (wake) cv_.notify_one();
}

bool Mailbox::deliver(detail::MsgHeader h, const void* buf, int count,
                      const Datatype& type, detail::BufferPool& pool) {
  if (tracer_) h.arrive_wall = tracer_->wall_now();
  activity_.fetch_add(1, std::memory_order_relaxed);

  // Match first, before any byte moves. A hit never overtakes an older
  // message: a posted receive can never have a matching message older
  // than itself in unexpected_ or claimed_, because post_recv scans both
  // before it parks a receive in posted_, and every later arrival checks
  // posted_ before it is queued. So per-(sender, ctx) FIFO order holds.
  // With no receive posted at all there is nothing to match, and the lock
  // is skipped: under fan-in most messages arrive unmatched, and a second
  // acquisition of the contended mutex per message would cost more than
  // the direct path saves.
  std::shared_ptr<ReqState> match;
  if (any_posted_.load(std::memory_order_relaxed)) {
    detail::CheckedLock lock(mtx_);
    match = take_posted(h);
  }
  if (match) {
    // Single copy, sender's layout straight into the posted layout.
    // Nobody else can touch either buffer: the sender is inside its send,
    // and the dequeued receive is invisible until published.
    if (accept(*match, h, type.pack_size(count))) {
      type.copy_to(buf, count, match->base, match->count, match->type);
    }
    publish(*match);
    return false;
  }

  // Miss: stage the bytes in a pooled payload (outside the lock), then
  // match again — a receive posted meanwhile takes the payload.
  Message msg{h, pool.acquire(type.pack_size(count)), &pool};
  type.pack(buf, count, msg.payload.data());
  bool wake = false;
  {
    detail::CheckedLock lock(mtx_);
    match = take_posted(msg);
    if (!match) {
      wake = wait_kind_ == WaitKind::any ||
             (wait_kind_ == WaitKind::probe && msg.ctx == probe_ctx_ &&
              (probe_src_ == ANY_SOURCE || probe_src_ == msg.src) &&
              (probe_tag_ == ANY_TAG || probe_tag_ == msg.tag));
      unexpected_.push_back(std::move(msg));
    }
  }
  if (!match) {
    if (wake) cv_.notify_one();
    return true;
  }
  complete(*match, msg);
  publish(*match);
  return true;
}

namespace {
template <typename Queue>
bool probe_match(const Queue& q, std::uint64_t ctx, int src, int tag,
                 Status* st) {
  for (const Message& m : q) {
    const bool hit = m.ctx == ctx && (src == ANY_SOURCE || src == m.src) &&
                     (tag == ANY_TAG || tag == m.tag);
    if (hit) {
      if (st) *st = Status{m.src, m.tag, m.payload.size()};
      return true;
    }
  }
  return false;
}
}  // namespace

bool Mailbox::probe_unexpected(std::uint64_t ctx, int src, int tag,
                               Status* st) {
  // Claimed messages are the oldest arrivals; check them first so the
  // probed envelope is the one a matching receive would consume.
  if (probe_match(claimed_, ctx, src, tag, st)) return true;
  detail::CheckedLock lock(mtx_);
  return probe_match(unexpected_, ctx, src, tag, st);
}

Status Mailbox::wait_probe(std::uint64_t ctx, int src, int tag) {
  Status st0;
  // claimed_ cannot change while the owner blocks below, so one unlocked
  // pre-check suffices; the wait predicate only watches new arrivals.
  if (probe_match(claimed_, ctx, src, tag, &st0)) return st0;
  bool timed_out = false;
  {
    detail::CheckedLock lock(mtx_);
    Status st;
    wait_kind_ = WaitKind::probe;
    probe_ctx_ = ctx;
    probe_src_ = src;
    probe_tag_ = tag;
    // The predicate scans the guarded unexpected_ queue, so it carries the
    // capability contract; every evaluation site holds mtx_ (timed_wait is
    // REQUIRES(mtx_), and the condvar re-acquires before re-evaluating).
    auto stop = [&]() MPL_REQUIRES(mtx_) {
      return probe_match(unexpected_, ctx, src, tag, &st) || aborting();
    };
    blocked_.store(true, std::memory_order_relaxed);
    if (flight_ && !stop()) {
      flight_->record(telemetry::FlightKind::wait_block,
                      static_cast<int>(WaitKind::probe), src);
    }
    if (!timeout_armed()) {
      cv_.wait(lock, stop);
    } else {
      timed_out = !timed_wait(lock, stop);
    }
    blocked_.store(false, std::memory_order_relaxed);
    wait_kind_ = WaitKind::none;
    if (probe_match(unexpected_, ctx, src, tag, &st)) return st;
  }
  fail_wait(timed_out, "probe (ctx=" + std::to_string(ctx) +
                           " src=" + std::to_string(src) +
                           " tag=" + std::to_string(tag) + ")");
}

void Mailbox::post_recv(const std::shared_ptr<ReqState>& r) {
  activity_.fetch_add(1, std::memory_order_relaxed);
  // Messages claimed by the owner are older than anything still in
  // unexpected_, so they must be offered first to keep matching in
  // arrival order. Owner thread only; no lock needed.
  for (auto it = claimed_.begin(); it != claimed_.end(); ++it) {
    if (matches(*r, *it)) {
      Message msg = std::move(*it);
      claimed_.erase(it);
      complete(*r, msg);
      r->done.store(true, std::memory_order_release);
      return;
    }
  }
  Message msg;
  {
    detail::CheckedLock lock(mtx_);
    auto it = unexpected_.begin();
    for (; it != unexpected_.end(); ++it) {
      if (matches(*r, *it)) break;
    }
    if (it == unexpected_.end()) {
      posted_.push_back(r);
      any_posted_.store(true, std::memory_order_relaxed);
      return;
    }
    msg = std::move(*it);
    unexpected_.erase(it);
  }
  // Unpack outside the lock. Publishing `done` needs no mutex here: this
  // runs on the owning thread, so the owner cannot concurrently be in a
  // cv_ wait on this request, and no other thread ever saw it (it was
  // never in posted_).
  complete(*r, msg);
  r->done.store(true, std::memory_order_release);
}

bool Mailbox::try_recv_now(std::uint64_t ctx, int src, int tag,
                           const Datatype& type, void* base, int count,
                           Status* st) {
  const auto envelope_match = [&](const Message& m) {
    return m.ctx == ctx && (src == ANY_SOURCE || src == m.src) &&
           (tag == ANY_TAG || tag == m.tag);
  };
  // Serve from the owner-private claimed queue first: its messages are the
  // oldest arrivals, and reading it needs no lock. On a miss, claim
  // everything queued in one locked bulk move — under sustained traffic
  // this amortises the mailbox mutex over whole batches of receives.
  auto it = std::find_if(claimed_.begin(), claimed_.end(), envelope_match);
  if (it == claimed_.end()) {
    const std::ptrdiff_t scanned =
        static_cast<std::ptrdiff_t>(claimed_.size());
    {
      detail::CheckedLock lock(mtx_);
      if (unexpected_.empty()) return false;
      for (Message& m : unexpected_) claimed_.push_back(std::move(m));
      unexpected_.clear();
    }
    it = std::find_if(claimed_.begin() + scanned, claimed_.end(),
                      envelope_match);
    if (it == claimed_.end()) return false;
  }
  Message msg = std::move(*it);
  claimed_.erase(it);
  const std::size_t incoming = msg.payload.size();
  const std::size_t capacity = type.pack_size(count);
  if (incoming > capacity) {
    msg.release();
    throw Error(truncation_error(incoming, capacity));
  }
  const std::size_t got =
      type.unpack_partial(msg.payload.data(), incoming, base, count);
  if (st) *st = Status{msg.src, msg.tag, got};
  msg.release();
  return true;
}

void Mailbox::wait_done(const std::shared_ptr<ReqState>& r) {
  // Bounded yield-poll before sleeping. Simulated ranks oversubscribe the
  // host cores, so the completing sender is usually just one scheduler
  // pass away; yielding lets it run and spares both sides the futex
  // sleep/wake round-trip of the condition variable. Bounded, so a
  // genuinely idle waiter still parks (and an aborting runtime is still
  // noticed) via the cv path below.
  for (int spin = 0; spin < 32; ++spin) {
    if (r->done.load(std::memory_order_acquire)) return;
    std::this_thread::yield();
  }
  bool timed_out = false;
  {
    detail::CheckedLock lock(mtx_);
    wait_kind_ = WaitKind::request;
    wait_req_ = r.get();
    auto stop = [&] {
      return r->done.load(std::memory_order_acquire) || aborting();
    };
    blocked_.store(true, std::memory_order_relaxed);
    // Flight event only when the wait actually parks (the spin above
    // already absorbed the common completes-immediately case).
    if (flight_ && !stop()) {
      flight_->record(telemetry::FlightKind::wait_block,
                      static_cast<int>(WaitKind::request),
                      r->kind == ReqState::Kind::recv ? r->match_src : -1);
    }
    if (!timeout_armed()) {
      cv_.wait(lock, stop);
    } else {
      timed_out = !timed_wait(lock, stop);
    }
    blocked_.store(false, std::memory_order_relaxed);
    wait_kind_ = WaitKind::none;
    wait_req_ = nullptr;
  }
  if (r->done.load(std::memory_order_acquire)) return;
  fail_wait(timed_out,
            r->kind == ReqState::Kind::recv
                ? "recv (ctx=" + std::to_string(r->ctx) +
                      " src=" + std::to_string(r->match_src) +
                      " tag=" + std::to_string(r->match_tag) + ")"
                : "send request");
}

void Mailbox::notify_abort() {
  detail::CheckedLock lock(mtx_);
  cv_.notify_all();
}

void Mailbox::dump_pending(std::ostream& os) {
  detail::CheckedLock lock(mtx_);
  os << "  rank " << rank_ << ": ";
  switch (wait_kind_) {
    case WaitKind::none:
      os << (blocked_.load(std::memory_order_relaxed) ? "blocked" : "running");
      break;
    case WaitKind::request:
      if (wait_req_ && wait_req_->kind == ReqState::Kind::recv) {
        os << "blocked on recv (ctx=" << wait_req_->ctx
           << " src=" << wait_req_->match_src
           << " tag=" << wait_req_->match_tag << ")";
      } else {
        os << "blocked on request";
      }
      break;
    case WaitKind::any:
      os << "blocked in wait_any/wait_all";
      break;
    case WaitKind::probe:
      os << "blocked in probe (ctx=" << probe_ctx_ << " src=" << probe_src_
         << " tag=" << probe_tag_ << ")";
      break;
  }
  os << "; posted recvs:";
  if (posted_.empty()) {
    os << " none";
  } else {
    for (const auto& r : posted_) {
      os << " [ctx=" << r->ctx << " src=" << r->match_src
         << " tag=" << r->match_tag << "]";
    }
  }
  // The owner-private claimed_ queue is deliberately not read here: it is
  // touched lock-free by the owning thread, and everything in it already
  // left the sender, so it never explains a stall.
  os << "; undelivered inbound:";
  if (unexpected_.empty()) {
    os << " none";
  } else {
    for (const Message& m : unexpected_) {
      os << " [from=" << m.src << " ctx=" << m.ctx << " tag=" << m.tag
         << " bytes=" << m.payload.size() << "]";
    }
  }
}

void Mailbox::fail_wait(bool timed_out, const std::string& what) {
  // Diagnostics are assembled with no lock held: pending_ops_dump() takes
  // every mailbox lock in turn (including this one), which the checked
  // same-level lock rule would reject from under mtx_.
  if (flight_) flight_->record(telemetry::FlightKind::wait_timeout);
  if (timed_out) {
    throw TimeoutError(
        "mpl: blocking wait timed out after " +
            std::to_string(faults_->config().timeout_ms) + " ms on rank " +
            std::to_string(rank_) + " in " + what,
        rt_ ? detail::pending_ops_dump(*rt_) : std::string{});
  }
  if (rt_) {
    const std::string stall = rt_->stall_report();
    if (!stall.empty()) {
      throw TimeoutError("mpl: runtime aborted by the progress watchdog on "
                         "rank " + std::to_string(rank_) + " in " + what,
                         stall);
    }
  }
  throw Error("mpl: runtime aborted while waiting (" + what + ")");
}

}  // namespace mpl
