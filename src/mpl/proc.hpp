// One simulated process: rank, mailbox, virtual clock.
#pragma once

#include <atomic>

#include "mpl/fault.hpp"
#include "mpl/mailbox.hpp"
#include "mpl/netmodel.hpp"
#include "mpl/pool.hpp"
#include "telemetry/flight.hpp"

namespace trace {
class RankTrace;
class Tracer;
}

namespace telemetry {
class RankTelemetry;
}

namespace mpl {

namespace detail {
struct RuntimeState;
}

/// Execution context of one simulated process. Owned by the runtime;
/// each Proc is driven by exactly one thread for the duration of run().
class Proc {
 public:
  [[nodiscard]] int world_rank() const noexcept { return world_rank_; }
  [[nodiscard]] int world_size() const noexcept { return world_size_; }

  Mailbox& mailbox() noexcept { return mailbox_; }
  NetClock& clock() noexcept { return clock_; }
  /// Payload buffer pool for messages *sent* by this process; receivers
  /// recycle buffers back here after unpacking.
  detail::BufferPool& pool() noexcept { return pool_; }
  detail::RuntimeState& runtime() noexcept { return *rt_; }

  /// Per-rank event recorder; null unless event tracing is armed, which is
  /// the single-branch gate every tracing site checks first.
  [[nodiscard]] trace::RankTrace* trace() const noexcept { return trace_; }
  /// Run-wide tracer (wall clock source); null unless tracing is armed.
  [[nodiscard]] const trace::Tracer* tracer() const noexcept { return tracer_; }

  /// Internal: called once by the runtime before the process thread starts.
  void init(int world_rank, int world_size, detail::RuntimeState* rt) {
    world_rank_ = world_rank;
    world_size_ = world_size;
    rt_ = rt;
    mailbox_.set_flight(&flight_);
    pool_.set_flight(&flight_);
  }

  /// Internal: wire the recorder (runtime, before the thread starts).
  void set_trace(trace::RankTrace* t, const trace::Tracer* tracer) noexcept {
    trace_ = t;
    tracer_ = tracer;
  }

  /// Always-on flight recorder: last-N high-level transport events of
  /// this rank, dumped into timeout/stall reports (src/telemetry).
  [[nodiscard]] telemetry::FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const telemetry::FlightRecorder& flight() const noexcept {
    return flight_;
  }

  /// Per-rank telemetry block (histograms, per-phase traffic and the
  /// per-communicator counter blocks); null unless RunOptions::telemetry
  /// armed it. Counting sites reach their communicator's block directly
  /// (CommState::counters), so this is read at communicator creation.
  [[nodiscard]] telemetry::RankTelemetry* telem() const noexcept {
    return telem_;
  }

  /// Internal: wire the telemetry block (runtime, before threads start).
  void set_telem(telemetry::RankTelemetry* t) noexcept { telem_ = t; }

  /// The run's fault plan; null when nothing is armed (the single-branch
  /// gate the transport's injection sites check first).
  [[nodiscard]] const FaultPlan* faults() const noexcept { return faults_; }

  /// Internal: wire the fault plan (runtime, before the thread starts).
  void set_faults(const FaultPlan* plan) noexcept { faults_ = plan; }

  /// Per-rank message sequence number feeding the fault plan's stateless
  /// decisions. Owner thread only, incremented in program order, so the
  /// decision stream is deterministic under any host interleaving.
  [[nodiscard]] std::uint64_t next_fault_seq() noexcept {
    return fault_seq_++;
  }

  /// Schedule position published by the executor when faults are armed, so
  /// stall reports can name the blocked phase/round (-1 = outside).
  void set_sched_point(int phase, int round) noexcept {
    sched_phase_.store(phase, std::memory_order_relaxed);
    sched_round_.store(round, std::memory_order_relaxed);
  }
  [[nodiscard]] int sched_phase() const noexcept {
    return sched_phase_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int sched_round() const noexcept {
    return sched_round_.load(std::memory_order_relaxed);
  }

  /// The driving thread returned from the user function (set by the
  /// runtime; a finished rank can no longer make or need progress).
  void set_finished() noexcept {
    finished_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool finished() const noexcept {
    return finished_.load(std::memory_order_relaxed);
  }

 private:
  int world_rank_ = -1;
  int world_size_ = 0;
  Mailbox mailbox_;
  NetClock clock_;
  detail::BufferPool pool_;
  detail::RuntimeState* rt_ = nullptr;
  trace::RankTrace* trace_ = nullptr;
  const trace::Tracer* tracer_ = nullptr;
  const FaultPlan* faults_ = nullptr;
  telemetry::FlightRecorder flight_;
  telemetry::RankTelemetry* telem_ = nullptr;
  std::uint64_t fault_seq_ = 0;
  std::atomic<int> sched_phase_{-1};
  std::atomic<int> sched_round_{-1};
  std::atomic<bool> finished_{false};
};

/// The Proc driven by the calling thread; null outside mpl::run().
Proc* this_proc() noexcept;

}  // namespace mpl
