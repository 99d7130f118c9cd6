// Per-process message matching.
//
// Each simulated process owns one Mailbox. Senders deliver messages
// directly and eagerly (a send completes at post time); the mailbox
// matches them against posted receives using MPI semantics: (context,
// source, tag) with wildcards, FIFO per (sender, context) pair, matching
// in arrival/posting order.
//
// Delivery is match-first (see DESIGN.md, "Transport hot path"): the
// sender looks for a matching posted receive before it moves any bytes.
// On a hit it copies once, from its own buffer straight into the posted
// one. On a miss it packs into a pooled payload that waits in the
// unexpected queue, and the receive that later matches it unpacks it —
// the one case that still copies twice. The mailbox mutex covers only
// match-and-dequeue; every copy runs outside the lock, and the completion
// flag is then published under a short re-acquisition. Wakeups are
// targeted: the mailbox records what its owner is blocked on (a specific
// request, a wait_any predicate, or a probe) and a deliverer signals the
// condvar only when its completion can satisfy that wait — a mailbox
// whose owner is busy computing sees no notify at all.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "mpl/annotations.hpp"
#include "mpl/checked.hpp"
#include "mpl/datatype.hpp"
#include "mpl/fault.hpp"
#include "mpl/pool.hpp"
#include "mpl/request.hpp"
#include "telemetry/flight.hpp"

namespace trace {
class Tracer;
}

namespace mpl {

/// Wildcard source rank (MPI_ANY_SOURCE analogue).
inline constexpr int ANY_SOURCE = -2;
/// Wildcard tag (MPI_ANY_TAG analogue).
inline constexpr int ANY_TAG = -2;
/// Null process rank: sends are dropped, receives complete immediately.
inline constexpr int PROC_NULL = -1;

namespace detail {

/// Envelope and model stamps of a message: everything the receiver learns
/// about it except the bytes themselves.
struct MsgHeader {
  std::uint64_t ctx = 0;
  int src = -1;
  int tag = -1;
  double depart = 0.0;  // sender virtual-clock stamp
  double arrive_wall = -1.0;  // wall time of mailbox delivery (tracing only)
  bool from_self = false;
};

/// A staged (unmatched) in-flight message. The payload buffer is borrowed
/// from the sending process's BufferPool and returned there by release()
/// once the receiver has unpacked it; a message that is never received
/// just frees the buffer on destruction.
struct Message : MsgHeader {
  Buffer payload;
  BufferPool* pool = nullptr;  // origin pool

  /// Hand the payload back to its origin pool.
  /// Must not be called while holding a mailbox lock.
  void release() {
    if (pool) {
      pool->recycle(std::move(payload));
      pool = nullptr;
    }
    payload = Buffer{};
  }
};

}  // namespace detail

class Mailbox {
 public:
  /// Install the runtime-wide abort flag consulted by blocking waits.
  void set_abort_flag(const std::atomic<bool>* flag) { abort_flag_ = flag; }

  /// Install the wall-clock source used to stamp message arrivals. Only
  /// set when event tracing is armed; null keeps delivery stamp-free.
  void set_tracer(const trace::Tracer* t) { tracer_ = t; }

  /// Install the fault plan (wait timeouts, watchdog stall reports). Only
  /// wired when the plan has anything armed; null keeps waits untimed.
  void set_fault_ctx(const FaultPlan* plan, detail::RuntimeState* rt,
                     int rank) {
    faults_ = plan;
    rt_ = rt;
    rank_ = rank;
  }

  /// Wire the owning rank's always-on flight recorder (Proc::init, before
  /// threads start): parked waits and wait timeouts become timeline events.
  void set_flight(telemetry::FlightRecorder* flight) noexcept {
    flight_ = flight;
  }

  /// Monotone count of delivery/progress events, sampled by the watchdog
  /// (a changing value proves the run is not stalled).
  [[nodiscard]] std::uint64_t activity() const noexcept {
    return activity_.load(std::memory_order_relaxed);
  }
  /// Whether the owning thread is parked in a blocking mailbox wait.
  [[nodiscard]] bool blocked() const noexcept {
    return blocked_.load(std::memory_order_relaxed);
  }

  /// Append this mailbox's pending state (blocked wait, posted receives,
  /// undelivered inbound messages) to `os`. Takes the mailbox lock; safe
  /// from any thread holding no tracked lock.
  void dump_pending(std::ostream& os) MPL_EXCLUDES(mtx_);

  /// Deliver `count` elements of `type` at `buf` under header `h` (called
  /// by the sending thread; the only way a message enters a mailbox). If a
  /// matching receive is posted it is dequeued under the lock and the
  /// bytes are copied straight into it after release. Otherwise they are
  /// packed into a buffer from `pool` (the sender's) outside the lock, and
  /// matching runs again — a receive posted meanwhile takes the payload —
  /// before the message is queued as unexpected. Returns true when the
  /// bytes were staged in a pooled payload. Wakes the owner only when the
  /// owner's recorded wait can be satisfied by this delivery.
  bool deliver(detail::MsgHeader h, const void* buf, int count,
               const Datatype& type, detail::BufferPool& pool)
      MPL_EXCLUDES(mtx_);

  /// Post a receive (called by the owning thread). May complete
  /// immediately against an unexpected message (unpacked outside the
  /// lock).
  void post_recv(const std::shared_ptr<detail::ReqState>& r)
      MPL_EXCLUDES(mtx_);

  /// Owner-thread fast path for a blocking receive with the model off
  /// (nothing to account): match-and-consume an already queued
  /// unexpected message without materialising a request. Claims the whole
  /// shared unexpected queue into the owner-private claimed_ queue in one
  /// lock acquisition and serves from it lock-free afterwards. Returns
  /// false when nothing matching is queued (caller falls back to
  /// post_recv + wait). Throws Error on truncation, like wait() would.
  [[nodiscard]] bool try_recv_now(std::uint64_t ctx, int src, int tag,
                                  const Datatype& type, void* base, int count,
                                  Status* st) MPL_EXCLUDES(mtx_);

  /// Block the owning thread until `r` completes (or the runtime aborts).
  void wait_done(const std::shared_ptr<detail::ReqState>& r)
      MPL_EXCLUDES(mtx_);

  /// Non-blocking completion check. Lock-free: the completion flag is
  /// released by the completing thread and acquired here, which also
  /// publishes the other completion fields.
  [[nodiscard]] bool poll_done(const std::shared_ptr<detail::ReqState>& r) {
    return r->done.load(std::memory_order_acquire);
  }

  /// Block the owning thread until `pred()` holds (checked under the
  /// mailbox lock, re-evaluated on every completion/arrival) or the
  /// runtime aborts. Used by wait_any and blocking probe. With a fault
  /// timeout armed, gives up after FaultConfig::timeout_ms and throws
  /// TimeoutError with the per-rank pending-operation dump.
  template <typename Pred>
  void wait_until(Pred&& pred) MPL_EXCLUDES(mtx_) {
    bool timed_out = false;
    {
      detail::CheckedLock lock(mtx_);
      wait_kind_ = WaitKind::any;
      // The predicate itself only reads completion atomics supplied by the
      // caller, never guarded mailbox state, so it carries no capability
      // contract.
      auto stop = [&] { return pred() || aborting(); };
      blocked_.store(true, std::memory_order_relaxed);
      // Flight event only when the wait will actually park (cold path).
      if (flight_ && !stop()) {
        flight_->record(telemetry::FlightKind::wait_block,
                        static_cast<int>(WaitKind::any));
      }
      if (!timeout_armed()) {
        cv_.wait(lock, stop);
      } else {
        timed_out = !timed_wait(lock, stop);
      }
      blocked_.store(false, std::memory_order_relaxed);
      wait_kind_ = WaitKind::none;
      if (pred()) return;
    }
    fail_wait(timed_out, "wait_any/wait_all predicate");
  }

  /// Match an unexpected (not yet received) message without consuming it
  /// (MPI_Iprobe). Fills `st` and returns true when one is queued.
  [[nodiscard]] bool probe_unexpected(std::uint64_t ctx, int src, int tag,
                                      Status* st) MPL_EXCLUDES(mtx_);

  /// Blocking probe (MPI_Probe): wait until a matching message is queued,
  /// return its envelope without consuming it.
  Status wait_probe(std::uint64_t ctx, int src, int tag) MPL_EXCLUDES(mtx_);

  /// Wake all waiters so they can observe the abort flag.
  void notify_abort() MPL_EXCLUDES(mtx_);

 private:
  /// What the owning thread is currently blocked on. Guarded by mtx_;
  /// there is at most one waiter per mailbox (only the owner blocks on
  /// cv_), so a single slot plus notify_one() is exact.
  enum class WaitKind : std::uint8_t {
    none,     ///< owner is not blocked: no notify needed
    request,  ///< wait_done on wait_req_
    any,      ///< wait_until: any completion or arrival may satisfy it
    probe,    ///< wait_probe on (probe_ctx_, probe_src_, probe_tag_)
  };

  static bool matches(const detail::ReqState& r, const detail::MsgHeader& m);
  /// Dequeue the oldest posted receive matching `h`, or null.
  std::shared_ptr<detail::ReqState> take_posted(const detail::MsgHeader& h)
      MPL_REQUIRES(mtx_);
  /// Unpack a matched (request, staged message) pair and recycle the
  /// payload to its origin pool. Must run with the mailbox lock released:
  /// the unpack is the expensive phase-2 of delivery, and recycling to the
  /// pool while holding the mailbox would couple every sender to this
  /// receiver's pool contention (BufferPool::recycle additionally asserts
  /// no mailbox lock is held under MPL_CHECKED).
  void complete(detail::ReqState& r, detail::Message& m) MPL_EXCLUDES(mtx_);
  /// Publish a deliverer's completion of `r` (done under the lock) and
  /// wake the owner if it waits on it.
  void publish(detail::ReqState& r) MPL_EXCLUDES(mtx_);

  [[nodiscard]] bool aborting() const noexcept {
    return abort_flag_ && abort_flag_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool timeout_armed() const noexcept {
    return faults_ && faults_->timeout_armed();
  }

  /// Predicated wait with a wall-clock deadline. Sleeps in bounded slices
  /// so an abort is never missed for long. Returns false on timeout with
  /// `stop` still unsatisfied; the caller owns the lock throughout.
  template <typename Lock, typename Pred>
  bool timed_wait(Lock& lock, Pred stop) MPL_REQUIRES(mtx_) {
    using clock = std::chrono::steady_clock;
    const auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(faults_->timeout_s()));
    constexpr auto kSlice = std::chrono::milliseconds(50);
    for (;;) {
      const auto now = clock::now();
      if (now >= deadline) return stop();
      const auto slice = std::min<clock::duration>(kSlice, deadline - now);
      if (cv_.wait_for(lock, slice, stop)) return true;
    }
  }

  /// Diagnose a failed blocking wait (defined in mailbox.cpp: needs the
  /// RuntimeState definition). Throws TimeoutError on timeout or when the
  /// watchdog published a stall report; a plain abort throws Error.
  /// Assembles the per-rank dump, which takes every mailbox lock in turn —
  /// hence the no-lock-held contract.
  [[noreturn]] void fail_wait(bool timed_out, const std::string& what)
      MPL_EXCLUDES(mtx_);

  detail::MailboxMutex mtx_;
  detail::CheckedCondVar cv_;
  std::deque<detail::Message> unexpected_ MPL_GUARDED_BY(mtx_);
  /// Unexpected messages the owner has claimed from unexpected_ in one
  /// locked bulk move (try_recv_now). Strictly older than everything in
  /// unexpected_, in arrival order, and touched ONLY by the owning
  /// thread — every matching path consults it first, lock-free.
  /// Deliberately NOT guarded: single-threaded by the ownership rule, not
  /// by a lock (the one shared touch, the bulk claim, happens under mtx_
  /// on the owner's side only).
  std::deque<detail::Message> claimed_;
  std::vector<std::shared_ptr<detail::ReqState>> posted_ MPL_GUARDED_BY(mtx_);
  const std::atomic<bool>* abort_flag_ = nullptr;
  const trace::Tracer* tracer_ = nullptr;
  const FaultPlan* faults_ = nullptr;
  detail::RuntimeState* rt_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  int rank_ = -1;

  /// Progress signal for the watchdog: bumped on every delivery and posted
  /// receive. Relaxed — only sampled for change detection.
  std::atomic<std::uint64_t> activity_{0};
  /// Owner parked in a blocking cv wait (watchdog stall condition input).
  std::atomic<bool> blocked_{false};

  WaitKind wait_kind_ MPL_GUARDED_BY(mtx_) = WaitKind::none;
  /// Target of WaitKind::request. The pointer slot is written/compared
  /// under mtx_; the pointee is only dereferenced by dump_pending, also
  /// under mtx_ (completion fields proper are published via the atomic
  /// `done`, not this lock).
  const detail::ReqState* wait_req_ MPL_GUARDED_BY(mtx_)
      MPL_PT_GUARDED_BY(mtx_) = nullptr;
  std::uint64_t probe_ctx_ MPL_GUARDED_BY(mtx_) = 0;  // WaitKind::probe
  int probe_src_ MPL_GUARDED_BY(mtx_) = ANY_SOURCE;
  int probe_tag_ MPL_GUARDED_BY(mtx_) = ANY_TAG;

  /// !posted_.empty(), republished under mtx_ whenever posted_ changes and
  /// read without the lock by deliver() to skip its first match when no
  /// receive is posted. Relaxed: a stale read only changes which path a
  /// message takes, because the locked match after staging is
  /// authoritative. On a cache line of its own: the owner writes it on
  /// every post and match, and on a line shared with fields every sender
  /// reads (tracer_, the queues) it made bench_transport's fan-in slower
  /// than having no hint at all.
  alignas(64) std::atomic<bool> any_posted_{false};
};

}  // namespace mpl
