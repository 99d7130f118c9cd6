// Runtime launcher: spawns p simulated processes (threads) and hands each
// a world communicator, like mpirun + MPI_Init rolled into one call.
#pragma once

#include <functional>

#include "mpl/fault.hpp"
#include "mpl/netmodel.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace mpl {

class Comm;

struct RunOptions {
  /// Network cost model; off() means wall-clock mode.
  NetConfig net = NetConfig::off();
  /// Event-tracing configuration. Environment variables (MPL_TRACE,
  /// MPL_TRACE_CAPACITY) override these fields; with neither set, tracing
  /// is fully disarmed and costs one null-pointer check per instrumentation
  /// site. The trace file is written when run() returns.
  trace::TraceConfig trace;
  /// Deterministic fault injection and resilience knobs (drops + retransmit,
  /// delay jitter, stragglers, pool exhaustion, wait timeouts, progress
  /// watchdog). Environment overrides: MPL_FAULTS spec, MPL_TIMEOUT_MS.
  /// Fully disarmed by default at one null-pointer check per site.
  FaultConfig faults;
  /// Telemetry, the one metrics registry: per-communicator counters,
  /// per-rank latency/size histograms and per-phase traffic, lock-contention
  /// probes, and its two exporters (metrics JSON, OpenMetrics). Environment
  /// overrides: MPL_TELEMETRY, MPL_METRICS, MPL_OPENMETRICS,
  /// MPL_OPENMETRICS_PERIOD_MS. Disarmed by default at one null-pointer (or
  /// relaxed-bool) check per site; the flight recorder is always on
  /// regardless.
  telemetry::TelemetryConfig telemetry;
};

/// Run `fn` on `nprocs` simulated processes. Each process receives its own
/// world communicator handle. If any process throws, the runtime aborts all
/// blocking waits and rethrows the first exception in the caller.
void run(int nprocs, const std::function<void(Comm&)>& fn,
         const RunOptions& opts = {});

}  // namespace mpl
