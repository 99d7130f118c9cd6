// Runtime event tracing.
//
// Always compiled, cheap when disabled: every instrumentation site in the
// transport and the schedule executor guards on one pointer/flag check, and
// with tracing unarmed no RankTrace exists, no event is ever allocated and
// no clock is read. Counting is not done here: every counter lives in the
// telemetry registry (src/telemetry/telemetry.hpp).
//
// Per rank (simulated process) there is one RankTrace: a lock-free,
// single-writer event ring buffer (drop-oldest on overflow, with a dropped
// counter). "Lock-free" here is by construction: each
// ring is written only by the thread that drives its process, and read only
// after mpl::run() has joined all process threads, so no synchronization is
// needed on the hot path at all.
//
// Every event carries dual timestamps — the deterministic LogGP virtual
// clock (NetClock) and wall time — and a per-component cost attribution
// (o / L / G / o_block / G_pack / copy / idle) that sums exactly to the
// virtual-clock advance the event caused. Summing the components of the
// slowest rank therefore reproduces the collective's virtual makespan,
// which is what tools/trace_report exploits for critical-path attribution.
//
// The Tracer aggregates the per-rank buffers and serializes them as Chrome
// trace-event JSON (chrome://tracing / Perfetto loadable; one track per
// rank, one process group per traced section).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace trace {

// ---------------------------------------------------------------------------
// Cost components (the LogGP decomposition of Section 3's model)
// ---------------------------------------------------------------------------

/// Where a slice of virtual time went. Mirrors the NetConfig parameters:
/// per-message CPU overhead `o`, latency `L`, per-byte wire time `G`,
/// per-block datatype cost `o_block`, packing cost `G_pack`, local copy
/// cost, and idle (waiting for a message that has not arrived yet).
enum class Component : int {
  o = 0,
  L = 1,
  G = 2,
  o_block = 3,
  G_pack = 4,
  copy = 5,
  idle = 6,
  /// Injected fault cost (straggler overhead, retransmit backoff) charged
  /// by the FaultPlan; zero in fault-free runs.
  fault = 7,
};

inline constexpr int kComponents = 8;

const char* component_name(int c) noexcept;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum class EventKind : std::uint8_t {
  send_post,      ///< isend posted: CPU overhead + departure stamp
  recv_post,      ///< irecv posted: CPU overhead
  recv_complete,  ///< wait/test accounted an arrived message
  copy,           ///< schedule local-copy phase entry
  phase,          ///< one schedule phase: post -> all rounds complete
  section_begin,  ///< start of a named trace section (one collective run)
  section_end,
  fault_retry,    ///< injected drop: one retransmit backoff charge
  wait_block,     ///< blocking wait parked: wall span, zero modeled cost
};

const char* event_kind_name(EventKind k) noexcept;

struct Event {
  EventKind kind = EventKind::send_post;
  std::int32_t peer = -1;
  std::int32_t tag = -1;
  std::int32_t phase = -1;    ///< schedule phase scope (-1 outside)
  std::int32_t round = -1;    ///< schedule round scope (-1 outside)
  std::int32_t section = -1;  ///< trace section id (-1 outside)
  std::uint64_t ctx = 0;      ///< communicator context
  std::uint64_t bytes = 0;
  std::uint32_t blocks = 0;
  double v_start = 0.0;  ///< virtual-clock interval of the event
  double v_end = 0.0;
  double w_start = 0.0;  ///< wall-clock interval (seconds since run start)
  double w_end = 0.0;
  double depart = 0.0;       ///< recv_complete: sender's departure stamp
  double arrive_wall = -1.0; ///< recv_complete: wall time of mailbox arrival
  std::array<double, kComponents> comp{};  ///< cost attribution (seconds)
  std::string label;  ///< section events only
};

// ---------------------------------------------------------------------------
// Per-rank recorder
// ---------------------------------------------------------------------------

class RankTrace {
 public:
  RankTrace(int rank, std::size_t capacity, bool trace_armed,
            bool start_enabled)
      : rank_(rank),
        capacity_(capacity == 0 ? 1 : capacity),
        trace_armed_(trace_armed),
        tracing_(trace_armed && start_enabled) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }

  // -- hot-path gates --------------------------------------------------------

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

  /// Toggle event recording for this rank (no-op when tracing is unarmed).
  void set_tracing(bool on) noexcept { tracing_ = trace_armed_ && on; }

  void clear_events() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  // -- scope (set by the schedule executor) ----------------------------------

  void set_phase(int p) noexcept { phase_ = p; }
  void set_round(int r) noexcept { round_ = r; }
  [[nodiscard]] int phase() const noexcept { return phase_; }
  [[nodiscard]] int round() const noexcept { return round_; }
  [[nodiscard]] int section() const noexcept { return section_; }

  int begin_section(std::string label, double v_now, double w_now) {
    section_ = next_section_++;
    if (tracing_) {
      Event e;
      e.kind = EventKind::section_begin;
      e.v_start = e.v_end = v_now;
      e.w_start = e.w_end = w_now;
      e.label = std::move(label);
      record(std::move(e));
    }
    return section_;
  }

  void end_section(double v_now, double w_now) {
    if (tracing_) {
      Event e;
      e.kind = EventKind::section_end;
      e.v_start = e.v_end = v_now;
      e.w_start = e.w_end = w_now;
      record(std::move(e));
    }
    section_ = -1;  // events between sections are "untraced" scope
  }

  /// Append an event, stamping the current scope. Drop-oldest on overflow.
  void record(Event&& e) {
    if (!tracing_) return;
    if (e.phase < 0) e.phase = phase_;
    if (e.round < 0) e.round = round_;
    e.section = section_;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(e));
    } else {
      ring_[head_] = std::move(e);
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  /// Events in recording order (oldest first). Post-run / test use.
  [[nodiscard]] std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return ring_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  int rank_;
  std::size_t capacity_;
  bool trace_armed_;
  bool tracing_;
  int phase_ = -1;
  int round_ = -1;
  int section_ = -1;
  int next_section_ = 0;

  std::vector<Event> ring_;
  std::size_t head_ = 0;  // oldest element once the ring wrapped
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Run-wide configuration and aggregation
// ---------------------------------------------------------------------------

struct TraceConfig {
  /// Chrome trace-event JSON output path; non-empty arms event tracing.
  std::string chrome_path;
  /// Ring capacity in events per rank (drop-oldest beyond this).
  std::size_t capacity = 1 << 16;
  /// Whether ranks record from the start; when false, nothing is recorded
  /// until a rank calls Comm::trace_enabled(true) (bench section mode).
  bool start_enabled = true;

  /// Environment overrides: MPL_TRACE (chrome path), MPL_TRACE_CAPACITY
  /// (events per rank).
  void apply_env();

  [[nodiscard]] bool trace_armed() const noexcept {
    return !chrome_path.empty();
  }
};

class Tracer {
 public:
  /// Arm (or disarm) for a run of `nprocs` ranks; starts the wall clock.
  void configure(const TraceConfig& cfg, int nprocs);

  [[nodiscard]] bool trace_armed() const noexcept { return trace_armed_; }
  [[nodiscard]] int nprocs() const noexcept {
    return static_cast<int>(ranks_.size());
  }

  /// The per-rank recorder; null when tracing is not armed.
  [[nodiscard]] RankTrace* rank(int r) noexcept {
    return trace_armed_ ? ranks_[static_cast<std::size_t>(r)].get() : nullptr;
  }

  /// Seconds since configure() on a monotonic wall clock.
  [[nodiscard]] double wall_now() const noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - wall_base_)
        .count();
  }

  /// Model metadata embedded in the trace (o, L, G, ... and an "enabled"
  /// flag deciding whether chrome timestamps use virtual time).
  void set_model_meta(std::vector<std::pair<std::string, double>> meta,
                      bool model_enabled) {
    model_meta_ = std::move(meta);
    model_enabled_ = model_enabled;
  }

  void write_chrome_json(std::ostream& os) const;

  /// Write the configured trace file. Returns an error message ("" = ok).
  std::string flush() const;

 private:
  TraceConfig cfg_;
  bool trace_armed_ = false;
  bool model_enabled_ = false;
  std::vector<std::unique_ptr<RankTrace>> ranks_;
  std::vector<std::pair<std::string, double>> model_meta_;
  std::chrono::steady_clock::time_point wall_base_ =
      std::chrono::steady_clock::now();
};

}  // namespace trace
