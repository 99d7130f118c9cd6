// The metrics registry of the simulated-MPI runtime.
//
// Every counted fact of a run lives here, once. RankTelemetry is the
// per-rank block: four log-linear histograms (per-collective wall latency,
// per-wait block time, message sizes, reduce latency), the per-phase
// traffic of schedule executions, and one CommCounters block per
// communicator the rank belongs to. A CommCounters block is labelled with
// the communicator's base context id and resolved once, when the
// communicator is created, so the message path bumps it through a pointer
// with no lookup. Rank totals are sums over the blocks.
//
// Writers are single: each block is written only by its rank's thread, one
// relaxed load+store per counter. Readers (the periodic OpenMetrics
// exporter, Comm::telemetry() users) may read mid-run: blocks live in an
// append-only list published with a release store, and every counter is a
// relaxed atomic, so a snapshot is torn only across counters, never within
// one. The per-phase table is the exception: it is read after the run (the
// metrics JSON) or by the owning rank.
//
// Telemetry is independent of the trace layer: arming it creates no
// RankTrace, and the event tracer counts nothing.
//
// TelemetryConfig is the runtime knob block (RunOptions::telemetry),
// overlay-able from the environment:
//   MPL_TELEMETRY=1                 arm the registry + contention probes
//   MPL_METRICS=path                write the metrics JSON (implies
//                                   MPL_TELEMETRY; `-` = stdout)
//   MPL_OPENMETRICS=path            write an OpenMetrics snapshot (implies
//                                   MPL_TELEMETRY; `-` = stdout)
//   MPL_OPENMETRICS_PERIOD_MS=N     also rewrite the file every N ms
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/contention.hpp"
#include "telemetry/histogram.hpp"

namespace telemetry {

struct TelemetryConfig {
  bool enabled = false;
  /// Metrics JSON output path ("-" = stdout), written when run() returns.
  std::string metrics_path;
  std::string openmetrics_path;
  double period_ms = 0.0;

  /// Overlay MPL_TELEMETRY / MPL_METRICS / MPL_OPENMETRICS /
  /// MPL_OPENMETRICS_PERIOD_MS.
  void apply_env();

  [[nodiscard]] bool armed() const noexcept {
    return enabled || !metrics_path.empty() || !openmetrics_path.empty();
  }
};

/// Integer facts counted per communicator. The packed/zero-copy split is
/// the datatype-engine share of the paper's cost model: a message is packed
/// when its layout has more than one contiguous block.
enum class Count : int {
  msgs_sent,
  bytes_sent,
  msgs_recv,
  bytes_recv,
  packed_msgs,
  packed_bytes,
  zero_copy_msgs,
  zero_copy_bytes,
  self_msgs,
  self_copies,      ///< schedule local-copy entries
  self_copy_bytes,
  rounds,           ///< schedule rounds executed
  phases,           ///< schedule phases executed (the copy phase included)
  schedule_executions,
  staged_bytes,     ///< sent bytes no posted receive matched (one extra copy)
  waits,            ///< blocking request waits
  wait_ns,          ///< wall time blocked in those waits
  fault_retries,    ///< retransmits after injected drops
  fault_delays,     ///< messages given injected extra latency
  reduces,          ///< reducing schedule executions
  reduce_folds,
  reduce_fold_bytes,
};
inline constexpr int kCounts = static_cast<int>(Count::reduce_fold_bytes) + 1;

/// Virtual-clock seconds attributed per communicator (zero with the model
/// off).
enum class VTime : int {
  wait_stall_v,       ///< idle while waiting for arrivals
  fault_backoff_v,    ///< retransmit backoff
  fault_delay_v,      ///< injected extra latency
  fault_straggler_v,  ///< injected straggler overhead
};
inline constexpr int kVTimes = static_cast<int>(VTime::fault_straggler_v) + 1;

/// Serialized name of each fact (the metrics JSON keys). wait_ns appears in
/// the JSON as "wait_stall_wall", in seconds.
const char* count_name(Count c) noexcept;
const char* vtime_name(VTime t) noexcept;

/// Plain snapshot of counters: one communicator's, or a sum of them.
struct Counts {
  std::array<std::uint64_t, kCounts> n{};
  std::array<double, kVTimes> v{};

  [[nodiscard]] std::uint64_t operator[](Count c) const noexcept {
    return n[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double operator[](VTime t) const noexcept {
    return v[static_cast<std::size_t>(t)];
  }
  Counts& operator+=(const Counts& o) noexcept {
    for (std::size_t i = 0; i < n.size(); ++i) n[i] += o.n[i];
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += o.v[i];
    return *this;
  }
  bool operator==(const Counts&) const = default;
};

class RankTelemetry;

/// The counters of one communicator on one rank, with the hooks of the
/// transport and the schedule executor. Owner thread writes; any thread
/// reads.
class CommCounters {
 public:
  CommCounters(RankTelemetry& owner, std::uint64_t label,
               const CommCounters* next) noexcept
      : owner_(owner), label_(label), next_(next) {}

  // -- hot-path hooks (owner thread only) ------------------------------
  inline void on_send(std::uint64_t bytes, std::uint64_t blocks,
                      bool self) noexcept;
  /// A receive completed after `stall_v` virtual seconds of idle.
  void on_recv(std::uint64_t bytes, double stall_v) noexcept {
    add(Count::msgs_recv);
    add(Count::bytes_recv, bytes);
    add(VTime::wait_stall_v, stall_v);
  }
  inline void on_wait_block(std::uint64_t ns) noexcept;
  void on_copy(std::uint64_t bytes) noexcept {
    add(Count::self_copies);
    add(Count::self_copy_bytes, bytes);
  }
  void on_reduce_fold(std::uint64_t bytes) noexcept {
    add(Count::reduce_folds);
    add(Count::reduce_fold_bytes, bytes);
  }
  /// One schedule send of `bytes` in phase `phase` (per-rank table).
  inline void on_phase_send(int phase, std::uint64_t bytes);
  /// A schedule execution finished after `ns` of wall time.
  inline void on_execution_done(std::uint64_t ns, bool reduce) noexcept;

  void add(Count c, std::uint64_t d = 1) noexcept {
    auto& a = n_[static_cast<std::size_t>(c)];
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  void add(VTime t, double d) noexcept {
    auto& a = v_[static_cast<std::size_t>(t)];
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }

  // -- readers -----------------------------------------------------------
  [[nodiscard]] std::uint64_t label() const noexcept { return label_; }
  [[nodiscard]] const CommCounters* next() const noexcept { return next_; }
  [[nodiscard]] std::uint64_t operator[](Count c) const noexcept {
    return n_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double operator[](VTime t) const noexcept {
    return v_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] Counts snapshot() const noexcept {
    Counts s;
    for (std::size_t i = 0; i < s.n.size(); ++i) {
      s.n[i] = n_[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < s.v.size(); ++i) {
      s.v[i] = v_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  RankTelemetry& owner_;
  std::uint64_t label_;
  const CommCounters* next_;
  std::array<std::atomic<std::uint64_t>, kCounts> n_{};
  std::array<std::atomic<double>, kVTimes> v_{};
};

/// Messages and bytes one schedule phase index sent on this rank.
struct PhaseTraffic {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

class RankTelemetry {
 public:
  explicit RankTelemetry(int rank) noexcept : rank_(rank) {}
  RankTelemetry(const RankTelemetry&) = delete;
  RankTelemetry& operator=(const RankTelemetry&) = delete;
  ~RankTelemetry() {
    const CommCounters* c = head_.load(std::memory_order_relaxed);
    while (c) {
      const CommCounters* next = c->next();
      delete c;
      c = next;
    }
  }

  /// A new block for a communicator this rank just joined (owner thread;
  /// communicator creation, never the message path).
  CommCounters* add_comm(std::uint64_t label) {
    auto* c = new CommCounters(*this, label,
                               head_.load(std::memory_order_relaxed));
    head_.store(c, std::memory_order_release);
    return c;
  }

  // -- snapshot accessors ----------------------------------------------
  [[nodiscard]] int rank() const noexcept { return rank_; }
  /// Newest-first list of the communicator blocks.
  [[nodiscard]] const CommCounters* comms() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Sum over every communicator block.
  [[nodiscard]] Counts totals() const noexcept {
    Counts t;
    for (const CommCounters* c = comms(); c; c = c->next()) {
      t += c->snapshot();
    }
    return t;
  }
  [[nodiscard]] std::uint64_t total(Count k) const noexcept {
    std::uint64_t t = 0;
    for (const CommCounters* c = comms(); c; c = c->next()) t += (*c)[k];
    return t;
  }
  [[nodiscard]] std::uint64_t msgs_sent() const noexcept { return total(Count::msgs_sent); }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return total(Count::bytes_sent); }
  [[nodiscard]] std::uint64_t staged_bytes() const noexcept { return total(Count::staged_bytes); }
  [[nodiscard]] std::uint64_t msgs_recv() const noexcept { return total(Count::msgs_recv); }
  [[nodiscard]] std::uint64_t bytes_recv() const noexcept { return total(Count::bytes_recv); }
  [[nodiscard]] std::uint64_t waits() const noexcept { return total(Count::waits); }
  [[nodiscard]] std::uint64_t wait_ns() const noexcept { return total(Count::wait_ns); }
  [[nodiscard]] std::uint64_t collectives() const noexcept { return total(Count::schedule_executions); }
  [[nodiscard]] std::uint64_t fault_retries() const noexcept { return total(Count::fault_retries); }
  [[nodiscard]] std::uint64_t reduce_folds() const noexcept { return total(Count::reduce_folds); }
  [[nodiscard]] std::uint64_t reduces() const noexcept { return total(Count::reduces); }

  [[nodiscard]] const Histogram& collective_latency() const noexcept {
    return collective_ns_;
  }
  [[nodiscard]] const Histogram& wait_block_latency() const noexcept {
    return wait_block_ns_;
  }
  [[nodiscard]] const Histogram& message_sizes() const noexcept {
    return msg_bytes_;
  }
  [[nodiscard]] const Histogram& reduce_latency() const noexcept {
    return reduce_ns_;
  }
  /// Per-phase schedule traffic, indexed by phase (owner thread, or after
  /// the run).
  [[nodiscard]] const std::vector<PhaseTraffic>& per_phase() const noexcept {
    return per_phase_;
  }

 private:
  friend class CommCounters;

  int rank_;
  std::atomic<const CommCounters*> head_{nullptr};
  Histogram collective_ns_;
  Histogram wait_block_ns_;
  Histogram msg_bytes_;
  Histogram reduce_ns_;
  std::vector<PhaseTraffic> per_phase_;
};

inline void CommCounters::on_send(std::uint64_t bytes, std::uint64_t blocks,
                                  bool self) noexcept {
  add(Count::msgs_sent);
  add(Count::bytes_sent, bytes);
  if (blocks > 1) {
    add(Count::packed_msgs);
    add(Count::packed_bytes, bytes);
  } else {
    add(Count::zero_copy_msgs);
    add(Count::zero_copy_bytes, bytes);
  }
  if (self) add(Count::self_msgs);
  owner_.msg_bytes_.record(bytes);
}

inline void CommCounters::on_wait_block(std::uint64_t ns) noexcept {
  add(Count::waits);
  add(Count::wait_ns, ns);
  owner_.wait_block_ns_.record(ns);
}

inline void CommCounters::on_phase_send(int phase, std::uint64_t bytes) {
  auto& table = owner_.per_phase_;
  const auto i = static_cast<std::size_t>(phase);
  if (table.size() <= i) table.resize(i + 1);
  ++table[i].msgs;
  table[i].bytes += bytes;
}

inline void CommCounters::on_execution_done(std::uint64_t ns,
                                            bool reduce) noexcept {
  owner_.collective_ns_.record(ns);
  if (reduce) {
    add(Count::reduces);
    owner_.reduce_ns_.record(ns);
  }
}

}  // namespace telemetry
