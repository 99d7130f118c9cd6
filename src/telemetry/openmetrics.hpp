// The two serializers of the telemetry registry: OpenMetrics/Prometheus
// text (run-wide aggregate) and the metrics JSON (per rank, per
// communicator, per phase).
//
// The OpenMetrics writer takes a MetricsSnapshot assembled by the caller
// (the runtime aggregates per-rank RankTelemetry blocks, pool stats and
// contention totals into it) so this translation unit stays free of mpl
// types. The output follows the OpenMetrics text format: `# TYPE`
// declarations, `_total` samples for counters, cumulative
// `_bucket{le="..."}` series plus `_count`/`_sum` for histograms, and a
// terminating `# EOF`.
// tools/check_openmetrics.py lints the result in CI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/contention.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/plan_cache.hpp"
#include "telemetry/telemetry.hpp"

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

/// Aggregated (cross-rank) view handed to write_openmetrics. `totals` is
/// the sum of every rank's RankTelemetry::totals(), the same per-rank sums
/// the metrics JSON prints. Histograms are merged in place via
/// Histogram::merge, so the struct is move/copy-free by design — build it
/// where you use it.
struct MetricsSnapshot {
  int nprocs = 0;
  Counts totals;
  Histogram collective_ns;
  Histogram wait_block_ns;
  Histogram msg_bytes;
  Histogram reduce_ns;
  PoolGauges pool;
  ContentionTotals contention;
  PlanCacheTotals plan_cache;

  MetricsSnapshot() = default;
  MetricsSnapshot(const MetricsSnapshot&) = delete;
  MetricsSnapshot& operator=(const MetricsSnapshot&) = delete;
};

/// Write the snapshot in OpenMetrics text format, ending with `# EOF`.
void write_openmetrics(std::ostream& os, const MetricsSnapshot& snap);

/// Write the per-rank metrics JSON ("kind": "mpl-metrics", read by
/// tools/bench_to_csv.py): per rank its totals, the per-communicator split
/// (blocks with nothing counted are left out), the per-phase traffic and
/// the non-empty message-size buckets. `model` is the run's cost-model
/// metadata; `dropped_events[r]` is rank r's trace-ring drop count.
void write_metrics_json(
    std::ostream& os,
    const std::vector<std::pair<std::string, double>>& model,
    const std::vector<std::unique_ptr<RankTelemetry>>& ranks,
    const std::vector<std::uint64_t>& dropped_events);

}  // namespace telemetry
