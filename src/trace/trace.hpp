// Runtime tracing and metrics layer.
//
// Always compiled, cheap when disabled: every instrumentation site in the
// transport and the schedule executor guards on one pointer/flag check, and
// with tracing unarmed no event is ever allocated and no clock is read.
//
// Per rank (simulated process) there is one RankTrace: a lock-free,
// single-writer event ring buffer (drop-oldest on overflow, with a dropped
// counter) plus a metrics block. "Lock-free" here is by construction: each
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
// rank, one process group per traced section) and the metrics registry as
// a JSON document consumable by tools/bench_to_csv.py.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
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
// Metrics
// ---------------------------------------------------------------------------

/// Per-communicator counters. All single-writer (the owning rank's thread).
struct Counters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  /// Messages that went through the datatype engine (blocks > 1) vs dense
  /// zero-copy messages — the packed/zero-copy split of the paper's model.
  std::uint64_t packed_msgs = 0;
  std::uint64_t packed_bytes = 0;
  std::uint64_t zero_copy_msgs = 0;
  std::uint64_t zero_copy_bytes = 0;
  std::uint64_t self_msgs = 0;
  std::uint64_t self_copies = 0;      ///< schedule local-copy entries
  std::uint64_t self_copy_bytes = 0;
  std::uint64_t rounds = 0;           ///< schedule rounds executed
  std::uint64_t phases = 0;           ///< schedule phases executed
  std::uint64_t schedule_executions = 0;
  double wait_stall_v = 0.0;     ///< virtual idle while waiting for arrivals
  double wait_stall_wall = 0.0;  ///< wall time blocked in wait()

  // Fault-injection counters (FaultPlan; all zero in fault-free runs).
  std::uint64_t fault_retries = 0;  ///< retransmits after injected drops
  std::uint64_t fault_delays = 0;   ///< messages given injected extra latency
  double fault_backoff_v = 0.0;     ///< virtual time spent in backoff
  double fault_delay_v = 0.0;       ///< injected extra latency (virtual)
  double fault_straggler_v = 0.0;   ///< injected straggler overhead (virtual)

  /// Stable (name, value) view for serialization; integers promoted.
  [[nodiscard]] std::vector<std::pair<const char*, double>> named() const;
};

/// Per-phase traffic of schedule executions (indexed by phase number).
struct PhaseCounters {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

// ---------------------------------------------------------------------------
// Per-rank recorder
// ---------------------------------------------------------------------------

class RankTrace {
 public:
  RankTrace(int rank, std::size_t capacity, bool trace_armed,
            bool metrics_armed, bool start_enabled)
      : rank_(rank),
        capacity_(capacity == 0 ? 1 : capacity),
        trace_armed_(trace_armed),
        metrics_armed_(metrics_armed),
        tracing_(trace_armed && start_enabled) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }

  // -- hot-path gates --------------------------------------------------------

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  [[nodiscard]] bool metrics_on() const noexcept { return metrics_armed_; }
  [[nodiscard]] bool active() const noexcept {
    return tracing_ || metrics_armed_;
  }

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

  // -- metrics ---------------------------------------------------------------

  void on_send(std::uint64_t ctx, std::uint64_t bytes, std::uint32_t blocks,
               bool self) {
    Counters& c = comm_counters(ctx);
    ++c.msgs_sent;
    c.bytes_sent += bytes;
    if (blocks > 1) {
      ++c.packed_msgs;
      c.packed_bytes += bytes;
    } else {
      ++c.zero_copy_msgs;
      c.zero_copy_bytes += bytes;
    }
    if (self) ++c.self_msgs;
    bump_hist(bytes);
    if (phase_ >= 0) {
      phase_slot(phase_).msgs += 1;
      phase_slot(phase_).bytes += bytes;
    }
  }

  void on_recv_complete(std::uint64_t ctx, std::uint64_t bytes,
                        double stall_v) {
    Counters& c = comm_counters(ctx);
    ++c.msgs_recv;
    c.bytes_recv += bytes;
    c.wait_stall_v += stall_v;
  }

  void on_wait_wall(std::uint64_t ctx, double seconds) {
    comm_counters(ctx).wait_stall_wall += seconds;
  }

  void on_copy(std::uint64_t ctx, std::uint64_t bytes) {
    Counters& c = comm_counters(ctx);
    ++c.self_copies;
    c.self_copy_bytes += bytes;
  }

  void on_fault_retry(std::uint64_t ctx, double backoff_v) {
    Counters& c = comm_counters(ctx);
    ++c.fault_retries;
    c.fault_backoff_v += backoff_v;
  }

  void on_fault_delay(std::uint64_t ctx, double delay_v) {
    Counters& c = comm_counters(ctx);
    ++c.fault_delays;
    c.fault_delay_v += delay_v;
  }

  void on_fault_straggler(std::uint64_t ctx, double overhead_v) {
    comm_counters(ctx).fault_straggler_v += overhead_v;
  }

  void on_round(std::uint64_t ctx) { ++comm_counters(ctx).rounds; }
  void on_phase(std::uint64_t ctx) { ++comm_counters(ctx).phases; }
  void on_schedule_execution(std::uint64_t ctx) {
    ++comm_counters(ctx).schedule_executions;
  }

  /// This rank's counters for one communicator context (never null; zeroes
  /// when nothing was recorded yet).
  [[nodiscard]] const Counters& counters(std::uint64_t ctx) {
    return comm_counters(ctx);
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t, Counters>& by_comm()
      const noexcept {
    return by_comm_;
  }
  /// Aggregate over all communicators.
  [[nodiscard]] Counters totals() const;
  [[nodiscard]] const std::array<std::uint64_t, 64>& msg_size_hist()
      const noexcept {
    return hist_;
  }
  [[nodiscard]] const std::vector<PhaseCounters>& per_phase() const noexcept {
    return per_phase_;
  }

  /// Per-rank totals owned by the telemetry layer (e.g. staged bytes),
  /// handed over after the run for the metrics JSON. Empty when telemetry
  /// was not armed; the trace layer never counts these itself.
  void set_telemetry(std::vector<std::pair<const char*, double>> named) {
    telemetry_ = std::move(named);
  }
  [[nodiscard]] const std::vector<std::pair<const char*, double>>& telemetry()
      const noexcept {
    return telemetry_;
  }

 private:
  Counters& comm_counters(std::uint64_t ctx) { return by_comm_[ctx]; }

  PhaseCounters& phase_slot(int phase) {
    const auto i = static_cast<std::size_t>(phase);
    if (per_phase_.size() <= i) per_phase_.resize(i + 1);
    return per_phase_[i];
  }

  void bump_hist(std::uint64_t bytes) {
    int b = 0;
    while ((1ULL << b) < bytes && b < 63) ++b;
    ++hist_[static_cast<std::size_t>(b)];
  }

  std::vector<std::pair<const char*, double>> telemetry_;
  int rank_;
  std::size_t capacity_;
  bool trace_armed_;
  bool metrics_armed_;
  bool tracing_;
  int phase_ = -1;
  int round_ = -1;
  int section_ = -1;
  int next_section_ = 0;

  std::vector<Event> ring_;
  std::size_t head_ = 0;  // oldest element once the ring wrapped
  std::uint64_t dropped_ = 0;

  std::unordered_map<std::uint64_t, Counters> by_comm_;
  std::array<std::uint64_t, 64> hist_{};
  std::vector<PhaseCounters> per_phase_;
};

// ---------------------------------------------------------------------------
// Run-wide configuration and aggregation
// ---------------------------------------------------------------------------

struct TraceConfig {
  /// Chrome trace-event JSON output path; non-empty arms event tracing.
  std::string chrome_path;
  /// Metrics JSON output path ("-" = stdout); non-empty arms metrics.
  std::string metrics_path;
  /// Ring capacity in events per rank (drop-oldest beyond this).
  std::size_t capacity = 1 << 16;
  /// Whether ranks record from the start; when false, nothing is recorded
  /// until a rank calls Comm::trace_enabled(true) (bench section mode).
  bool start_enabled = true;

  /// Environment overrides: MPL_TRACE (chrome path), MPL_METRICS (metrics
  /// path), MPL_TRACE_CAPACITY (events per rank).
  void apply_env();

  [[nodiscard]] bool trace_armed() const noexcept {
    return !chrome_path.empty();
  }
  [[nodiscard]] bool metrics_armed() const noexcept {
    return !metrics_path.empty();
  }
};

class Tracer {
 public:
  /// Arm (or disarm) for a run of `nprocs` ranks; starts the wall clock.
  void configure(const TraceConfig& cfg, int nprocs);

  [[nodiscard]] bool trace_armed() const noexcept { return trace_armed_; }
  [[nodiscard]] bool metrics_armed() const noexcept { return metrics_armed_; }
  [[nodiscard]] bool armed() const noexcept {
    return trace_armed_ || metrics_armed_;
  }
  [[nodiscard]] int nprocs() const noexcept {
    return static_cast<int>(ranks_.size());
  }

  /// The per-rank recorder; null when nothing is armed.
  [[nodiscard]] RankTrace* rank(int r) noexcept {
    return armed() ? ranks_[static_cast<std::size_t>(r)].get() : nullptr;
  }

  /// Seconds since configure() on a monotonic wall clock.
  [[nodiscard]] double wall_now() const noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - wall_base_)
        .count();
  }

  /// Model metadata embedded in both JSON documents (o, L, G, ... and an
  /// "enabled" flag deciding whether chrome timestamps use virtual time).
  void set_model_meta(std::vector<std::pair<std::string, double>> meta,
                      bool model_enabled) {
    model_meta_ = std::move(meta);
    model_enabled_ = model_enabled;
  }

  void write_chrome_json(std::ostream& os) const;
  void write_metrics_json(std::ostream& os) const;

  /// Write the configured output files. Returns an error message ("" = ok).
  std::string flush() const;

 private:
  TraceConfig cfg_;
  bool trace_armed_ = false;
  bool metrics_armed_ = false;
  bool model_enabled_ = false;
  std::vector<std::unique_ptr<RankTrace>> ranks_;
  std::vector<std::pair<std::string, double>> model_meta_;
  std::chrono::steady_clock::time_point wall_base_ =
      std::chrono::steady_clock::now();
};

}  // namespace trace
