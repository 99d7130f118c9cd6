// Pooled payload buffers for messages that find no posted receive.
//
// Delivery is match-first (mailbox.hpp): a send whose receive is already
// posted copies straight into it and never touches a pool. Only a message
// that has to wait in the receiver's unexpected queue is staged, and its
// bytes need a home of their own until a receive claims them. A fresh
// std::vector<std::byte> per staged message would pay a malloc/free and a
// zero-fill each time, so a Buffer is a plain uninitialised byte block with
// a logical length, and a BufferPool is a per-process freelist of them: the
// sender acquires from its own process's pool, the buffer travels inside
// the Message, and the receiver recycles it back to the *origin* pool
// after unpacking, so steady-state staged traffic allocates nothing.
//
// Lifetime rules (see DESIGN.md, "Transport hot path"):
//   - acquire() is called by the owning process only, with no locks held.
//   - recycle() may be called from any thread (it is the receiver giving a
//     buffer back) but never under a mailbox lock: Mailbox::complete runs
//     outside the mailbox mutex. Note the pure level hierarchy cannot
//     catch a violation — mailbox (3) -> buffer_pool (4) is an increasing
//     and therefore hierarchy-legal nesting — so recycle() asserts
//     explicitly under MPL_CHECKED that no mailbox lock is held (the rule
//     is about sender/receiver decoupling, not deadlock: recycling under
//     the mailbox mutex would serialize every sender to this receiver's
//     pool contention).
//   - A Buffer that never reaches a receiver (unexpected message dropped
//     at shutdown) is simply freed by its destructor; pools never have to
//     be drained explicitly and never reference buffers in flight.
//   - Pools are owned by Proc and outlive all message traffic of a run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mpl/annotations.hpp"
#include "mpl/checked.hpp"
#include "mpl/fault.hpp"
#include "telemetry/flight.hpp"

namespace mpl::detail {

/// A resizable byte block with uninitialised storage. Unlike
/// std::vector<std::byte>, growing never value-initialises (no memset) and
/// shrinking keeps the capacity, which is what makes pooling effective.
class Buffer {
 public:
  Buffer() = default;

  [[nodiscard]] std::byte* data() noexcept { return data_.get(); }
  [[nodiscard]] const std::byte* data() const noexcept { return data_.get(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Set the logical size to `n`, reallocating (geometrically) only when
  /// the capacity is insufficient. Contents are undefined after growth.
  void ensure(std::size_t n) {
    if (n > cap_) {
      std::size_t cap = cap_ ? cap_ : 64;
      while (cap < n) cap *= 2;
      data_ = std::make_unique_for_overwrite<std::byte[]>(cap);
      cap_ = cap;
    }
    size_ = n;
  }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

/// Per-process freelist of payload Buffers. One per Proc; shared between
/// the owning sender (acquire) and whichever receivers hand buffers back
/// (recycle), so it carries its own mutex — level `buffer_pool` in the
/// checked hierarchy, above `mailbox`.
class BufferPool {
 public:
  /// Freelist depth cap: beyond this, recycled buffers are freed instead
  /// of pooled (bounds idle memory per process).
  static constexpr std::size_t kMaxPooled = 64;
  /// Buffers larger than this are never pooled (a single huge message
  /// must not pin its footprint for the rest of the run).
  static constexpr std::size_t kMaxPooledBytes = std::size_t{1} << 20;

  /// Counters for tests and diagnostics; snapshot under the pool lock.
  struct Stats {
    std::uint64_t hits = 0;      ///< acquire() served from the freelist
    std::uint64_t misses = 0;    ///< acquire() had to hand out a fresh Buffer
    std::uint64_t recycled = 0;  ///< buffers returned to the freelist
    std::uint64_t dropped = 0;   ///< buffers freed on return (depth/size cap)
    std::uint64_t forced_misses = 0;  ///< misses injected by the fault plan
    std::uint64_t free_watermark = 0;  ///< peak freelist depth (occupancy)
    std::uint64_t free_now = 0;  ///< freelist depth at snapshot time
  };

  /// Wire fault injection (exhaustion pressure): forced freelist misses
  /// and a depth-cap override. Set by the runtime before threads start.
  void set_faults(const mpl::FaultPlan* plan, int rank) {
    faults_ = plan;
    rank_ = rank;
  }

  /// Wire the owning rank's flight recorder (Proc::init, before threads
  /// start); freelist misses become `pool_miss` timeline events.
  void set_flight(telemetry::FlightRecorder* flight) noexcept {
    flight_ = flight;
  }

  /// Get a buffer with logical size `n` (contents undefined). Never called
  /// with a tracked lock held; the ensure() growth runs outside the pool
  /// lock so a freelist miss does not serialize other recyclers.
  [[nodiscard]] Buffer acquire(std::size_t n) MPL_EXCLUDES(mtx_) {
    Buffer b;
    bool miss = false;
    bool forced = false;
    {
      CheckedLock lock(mtx_);
      if (faults_ && faults_->pool_forced_miss(rank_, acquires_++)) {
        ++stats_.misses;
        ++stats_.forced_misses;
        miss = forced = true;
      } else if (!free_.empty()) {
        b = std::move(free_.back());
        free_.pop_back();
        ++stats_.hits;
      } else {
        ++stats_.misses;
        miss = true;
      }
    }
    // Flight events only on the cold (miss) path: steady state is all hits.
    if (miss && flight_) {
      flight_->record(telemetry::FlightKind::pool_miss, forced ? 1 : 0);
    }
    b.ensure(n);
    return b;
  }

  /// Return a buffer to the freelist (any thread; no mailbox lock held —
  /// asserted under MPL_CHECKED, see the lifetime rules above).
  void recycle(Buffer&& b) MPL_EXCLUDES(mtx_) {
#ifdef MPL_CHECKED
    if (LockTracker::holds(LockLevel::mailbox)) {
      throw std::logic_error(
          "mpl[checked]: BufferPool::recycle called while holding a mailbox "
          "lock — buffers must be recycled after delivery phase-2, outside "
          "the mailbox critical section");
    }
#endif
    if (b.capacity() == 0) return;  // nothing to keep
    const std::size_t depth_cap =
        faults_ ? std::min(kMaxPooled, faults_->pool_cap()) : kMaxPooled;
    CheckedLock lock(mtx_);
    if (free_.size() < depth_cap && b.capacity() <= kMaxPooledBytes) {
      free_.push_back(std::move(b));
      ++stats_.recycled;
      if (free_.size() > stats_.free_watermark) {
        stats_.free_watermark = free_.size();
      }
    } else {
      ++stats_.dropped;  // b freed on scope exit
    }
  }

  [[nodiscard]] Stats stats() MPL_EXCLUDES(mtx_) {
    CheckedLock lock(mtx_);
    Stats s = stats_;
    s.free_now = free_.size();
    return s;
  }

 private:
  BufferPoolMutex mtx_;
  std::vector<Buffer> free_ MPL_GUARDED_BY(mtx_);
  Stats stats_ MPL_GUARDED_BY(mtx_);
  const mpl::FaultPlan* faults_ = nullptr;  // set before threads start
  telemetry::FlightRecorder* flight_ = nullptr;  // set before threads start
  int rank_ = -1;                           // set before threads start
  /// Fault decision sequence number.
  std::uint64_t acquires_ MPL_GUARDED_BY(mtx_) = 0;
};

}  // namespace mpl::detail
