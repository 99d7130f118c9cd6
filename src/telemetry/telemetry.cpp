#include "telemetry/telemetry.hpp"

#include <cstdlib>
#include <ostream>
#include <string>

#include "telemetry/flight.hpp"

namespace telemetry {

// -- contention registry ----------------------------------------------------

const char* lock_level_name(int level) noexcept {
  // Mirrors mpl::detail::LockTracker::name(); test_telemetry cross-checks
  // the two so this table cannot drift from the LockLevel enum.
  switch (level) {
    case 1: return "comm_registry";
    case 2: return "oob_barrier";
    case 3: return "mailbox";
    case 4: return "buffer_pool";
    case 5: return "stall_info";
    case 6: return "error_capture";
    case 7: return "plan_cache";
    default: return "?";
  }
}

void contention_reset() noexcept {
  for (auto& shard : detail::g_contention_shards) {
    for (int l = 0; l < kMaxLockLevels; ++l) {
      shard.acquisitions[l].store(0, std::memory_order_relaxed);
      shard.contended[l].store(0, std::memory_order_relaxed);
      shard.blocked_ns[l].store(0, std::memory_order_relaxed);
    }
  }
}

void contention_arm(bool on) noexcept {
  if (on) contention_reset();
  detail::g_contention_enabled.store(on, std::memory_order_relaxed);
}

ContentionTotals contention_totals() noexcept {
  ContentionTotals t;
  for (const auto& shard : detail::g_contention_shards) {
    for (int l = 0; l < kMaxLockLevels; ++l) {
      t.acquisitions[l] += shard.acquisitions[l].load(std::memory_order_relaxed);
      t.contended[l] += shard.contended[l].load(std::memory_order_relaxed);
      t.blocked_ns[l] += shard.blocked_ns[l].load(std::memory_order_relaxed);
    }
  }
  return t;
}

// -- registry names ---------------------------------------------------------

const char* count_name(Count c) noexcept {
  static constexpr const char* kNames[kCounts] = {
      "msgs_sent",      "bytes_sent",      "msgs_recv",
      "bytes_recv",     "packed_msgs",     "packed_bytes",
      "zero_copy_msgs", "zero_copy_bytes", "self_msgs",
      "self_copies",    "self_copy_bytes", "rounds",
      "phases",         "schedule_executions", "staged_bytes",
      "waits",          "wait_stall_wall", "fault_retries",
      "fault_delays",   "reduces",         "reduce_folds",
      "reduce_fold_bytes"};
  return kNames[static_cast<int>(c)];
}

const char* vtime_name(VTime t) noexcept {
  static constexpr const char* kNames[kVTimes] = {
      "wait_stall_v", "fault_backoff_v", "fault_delay_v", "fault_straggler_v"};
  return kNames[static_cast<int>(t)];
}

// -- configuration ----------------------------------------------------------

void TelemetryConfig::apply_env() {
  if (const char* v = std::getenv("MPL_TELEMETRY")) {
    enabled = !(v[0] == '\0' || v[0] == '0');
  }
  if (const char* v = std::getenv("MPL_METRICS"); v && *v) metrics_path = v;
  if (const char* v = std::getenv("MPL_OPENMETRICS")) {
    if (v[0] != '\0') openmetrics_path = v;
  }
  if (const char* v = std::getenv("MPL_OPENMETRICS_PERIOD_MS")) {
    char* end = nullptr;
    const double ms = std::strtod(v, &end);
    if (end != v && ms > 0.0) period_ms = ms;
  }
}

// -- flight recorder --------------------------------------------------------

const char* flight_kind_name(FlightKind k) noexcept {
  switch (k) {
    case FlightKind::none: return "none";
    case FlightKind::sched_begin: return "sched_begin";
    case FlightKind::phase_begin: return "phase_begin";
    case FlightKind::round: return "round";
    case FlightKind::sched_end: return "sched_end";
    case FlightKind::retry: return "retry";
    case FlightKind::pool_miss: return "pool_miss";
    case FlightKind::wait_block: return "wait_block";
    case FlightKind::wait_timeout: return "wait_timeout";
  }
  return "?";
}

void FlightRecorder::dump(std::ostream& os) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (head == 0) {
    os << "(no events)";
    return;
  }
  if (head > kCapacity) os << "(" << head - kCapacity << " older dropped) ";
  const std::uint64_t n = head < kCapacity ? head : kCapacity;
  for (std::uint64_t seq = head - n; seq < head; ++seq) {
    const Slot& s = ring_[seq % kCapacity];
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    const std::uint64_t t = s.t_us.load(std::memory_order_relaxed);
    const auto kind = static_cast<FlightKind>(meta >> 56);
    const auto a =
        static_cast<std::int64_t>((meta >> 28) & kFieldMask) - 1;
    const auto b = static_cast<std::int64_t>(meta & kFieldMask) - 1;
    if (seq != head - n) os << ' ';
    os << '+' << t << "us " << flight_kind_name(kind);
    if (a >= 0) {
      os << '(' << a;
      if (b >= 0) os << ',' << b;
      os << ')';
    }
  }
}

}  // namespace telemetry
