// OpenMetrics/Prometheus text exposition of the telemetry layer.
//
// The writer takes a MetricsSnapshot assembled by the caller (the runtime
// aggregates per-rank RankTelemetry blocks, pool stats and contention
// totals into it) so this translation unit stays free of mpl types. The
// output follows the OpenMetrics text format: `# TYPE` declarations,
// `_total` samples for counters, cumulative `_bucket{le="..."}` series
// plus `_count`/`_sum` for histograms, and a terminating `# EOF`.
// tools/check_openmetrics.py lints the result in CI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/contention.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/plan_cache.hpp"

namespace telemetry {

struct PoolGauges {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t recycled = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forced_misses = 0;
  std::uint64_t free_now = 0;        // summed freelist depth across ranks
  std::uint64_t free_watermark = 0;  // max per-rank freelist high-water mark
};

/// Aggregated (cross-rank) view handed to write_openmetrics. Histograms
/// are merged in place via Histogram::merge, so the struct is
/// move/copy-free by design — build it where you use it.
struct MetricsSnapshot {
  int nprocs = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t staged_bytes = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t waits = 0;
  std::uint64_t collectives = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t fault_delays = 0;
  std::uint64_t reduce_folds = 0;
  std::uint64_t reduce_fold_bytes = 0;
  std::uint64_t reduces = 0;
  Histogram collective_ns;
  Histogram wait_block_ns;
  Histogram msg_bytes;
  Histogram reduce_ns;
  PoolGauges pool;
  ContentionTotals contention;
  PlanCacheTotals plan_cache;
  /// Extra gauge families appended verbatim (e.g. trace-layer counter
  /// totals when the tracer's metrics happen to be armed). Names must
  /// already be valid metric names; the writer adds the `mpl_` prefix.
  std::vector<std::pair<std::string, double>> extra_gauges;

  MetricsSnapshot() = default;
  MetricsSnapshot(const MetricsSnapshot&) = delete;
  MetricsSnapshot& operator=(const MetricsSnapshot&) = delete;
};

/// Write the snapshot in OpenMetrics text format, ending with `# EOF`.
void write_openmetrics(std::ostream& os, const MetricsSnapshot& snap);

}  // namespace telemetry
