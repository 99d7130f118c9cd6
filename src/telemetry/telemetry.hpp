// Always-on production telemetry for the simulated-MPI runtime.
//
// RankTelemetry is the per-rank, single-writer metrics block: a handful of
// relaxed-atomic counters plus three log-linear histograms (per-collective
// wall latency, per-wait block time, message sizes). It is deliberately
// independent of the trace layer — arming telemetry must NOT arm tracing,
// because a non-null RankTrace disables the mailbox fast-path receive and
// would blow the <5% overhead budget. Counting happens inline at the
// owner-side hot-path sites (isend_core, try_recv_now, Request::wait,
// schedule execution) at a cost of one or two relaxed stores each.
//
// TelemetryConfig is the runtime knob block (RunOptions::telemetry),
// overlay-able from the environment:
//   MPL_TELEMETRY=1                 arm histograms + contention probes
//   MPL_OPENMETRICS=path            write an OpenMetrics snapshot (implies
//                                   MPL_TELEMETRY; `-` = stdout)
//   MPL_OPENMETRICS_PERIOD_MS=N     also rewrite the file every N ms
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "telemetry/contention.hpp"
#include "telemetry/histogram.hpp"

namespace telemetry {

struct TelemetryConfig {
  bool enabled = false;
  std::string openmetrics_path;
  double period_ms = 0.0;

  /// Overlay MPL_TELEMETRY / MPL_OPENMETRICS / MPL_OPENMETRICS_PERIOD_MS.
  void apply_env();

  [[nodiscard]] bool armed() const noexcept {
    return enabled || !openmetrics_path.empty();
  }
};

/// Single-writer (owning rank thread) counter + histogram block; readers
/// (the exporter, Comm::telemetry() users) see relaxed snapshots.
class RankTelemetry {
 public:
  explicit RankTelemetry(int rank) noexcept : rank_(rank) {}

  // -- hot-path hooks (owner thread only) ------------------------------
  void on_send(std::uint64_t bytes) noexcept {
    bump(msgs_sent_);
    add(bytes_sent_, bytes);
    msg_bytes_.record(bytes);
  }
  /// Bytes of a sent message that no posted receive matched, so they were
  /// staged in a pooled payload (the transport's one extra copy).
  void on_staged(std::uint64_t bytes) noexcept { add(staged_bytes_, bytes); }
  void on_recv(std::uint64_t bytes) noexcept {
    bump(msgs_recv_);
    add(bytes_recv_, bytes);
  }
  void on_wait_block(std::uint64_t ns) noexcept {
    bump(waits_);
    add(wait_ns_, ns);
    wait_block_ns_.record(ns);
  }
  void on_collective(std::uint64_t ns) noexcept {
    bump(collectives_);
    collective_ns_.record(ns);
  }
  void on_fault_retries(std::uint64_t n) noexcept { add(fault_retries_, n); }
  void on_fault_delay() noexcept { bump(fault_delays_); }
  void on_reduce_fold(std::uint64_t bytes) noexcept {
    bump(reduce_folds_);
    add(reduce_fold_bytes_, bytes);
  }
  void on_reduce(std::uint64_t ns) noexcept {
    bump(reduces_);
    reduce_ns_.record(ns);
  }

  // -- snapshot accessors ----------------------------------------------
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] std::uint64_t msgs_sent() const noexcept { return get(msgs_sent_); }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return get(bytes_sent_); }
  [[nodiscard]] std::uint64_t staged_bytes() const noexcept { return get(staged_bytes_); }
  [[nodiscard]] std::uint64_t msgs_recv() const noexcept { return get(msgs_recv_); }
  [[nodiscard]] std::uint64_t bytes_recv() const noexcept { return get(bytes_recv_); }
  [[nodiscard]] std::uint64_t waits() const noexcept { return get(waits_); }
  [[nodiscard]] std::uint64_t wait_ns() const noexcept { return get(wait_ns_); }
  [[nodiscard]] std::uint64_t collectives() const noexcept { return get(collectives_); }
  [[nodiscard]] std::uint64_t fault_retries() const noexcept { return get(fault_retries_); }
  [[nodiscard]] std::uint64_t fault_delays() const noexcept { return get(fault_delays_); }
  [[nodiscard]] std::uint64_t reduce_folds() const noexcept { return get(reduce_folds_); }
  [[nodiscard]] std::uint64_t reduce_fold_bytes() const noexcept { return get(reduce_fold_bytes_); }
  [[nodiscard]] std::uint64_t reduces() const noexcept { return get(reduces_); }

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

 private:
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t d) noexcept {
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  static std::uint64_t get(const std::atomic<std::uint64_t>& c) noexcept {
    return c.load(std::memory_order_relaxed);
  }

  int rank_;
  std::atomic<std::uint64_t> msgs_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> staged_bytes_{0};
  std::atomic<std::uint64_t> msgs_recv_{0};
  std::atomic<std::uint64_t> bytes_recv_{0};
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> wait_ns_{0};
  std::atomic<std::uint64_t> collectives_{0};
  std::atomic<std::uint64_t> fault_retries_{0};
  std::atomic<std::uint64_t> fault_delays_{0};
  std::atomic<std::uint64_t> reduce_folds_{0};
  std::atomic<std::uint64_t> reduce_fold_bytes_{0};
  std::atomic<std::uint64_t> reduces_{0};
  Histogram collective_ns_;
  Histogram wait_block_ns_;
  Histogram msg_bytes_;
  Histogram reduce_ns_;
};

}  // namespace telemetry
