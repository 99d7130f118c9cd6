#include "telemetry/openmetrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace telemetry {

namespace {

// Locale-independent shortest-ish double formatting for sample values and
// `le` labels.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void counter(std::ostream& os, const char* name, const char* help,
             std::uint64_t value) {
  os << "# TYPE " << name << " counter\n";
  os << "# HELP " << name << ' ' << help << '\n';
  os << name << "_total " << value << '\n';
}

void gauge(std::ostream& os, const char* name, const char* help,
           double value) {
  os << "# TYPE " << name << " gauge\n";
  os << "# HELP " << name << ' ' << help << '\n';
  os << name << ' ' << fmt(value) << '\n';
}

/// Emit one histogram family. `scale` converts stored ticks to the
/// exposition unit (1e-9 for ns -> seconds, 1 for bytes). Only non-empty
/// buckets get a line — the bucket grid is fixed and fine-grained, so
/// emitting all ~500 per family would be noise; cumulative counts stay
/// correct because each emitted bucket carries the running total.
void histogram(std::ostream& os, const char* name, const char* help,
               const Histogram& h, double scale) {
  os << "# TYPE " << name << " histogram\n";
  os << "# HELP " << name << ' ' << help << '\n';
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t c = h.bucket_count(i);
    if (c == 0) continue;
    cum += c;
    const double le =
        static_cast<double>(Histogram::bucket_upper(i)) * scale;
    os << name << "_bucket{le=\"" << fmt(le) << "\"} " << cum << '\n';
  }
  os << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
  os << name << "_sum " << fmt(static_cast<double>(h.sum()) * scale) << '\n';
  os << name << "_count " << h.count() << '\n';
}

// Doubles with enough digits to round-trip exactly (metrics JSON).
void put_num(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

// One counter object: every Count by name, then every VTime. wait_ns is
// printed as "wait_stall_wall", in seconds.
void put_counts(std::ostream& os, const Counts& c) {
  os << '{';
  for (int i = 0; i < kCounts; ++i) {
    const auto k = static_cast<Count>(i);
    if (i) os << ", ";
    os << '"' << count_name(k) << "\": ";
    if (k == Count::wait_ns) {
      put_num(os, static_cast<double>(c[k]) * 1e-9);
    } else {
      os << c[k];
    }
  }
  for (int i = 0; i < kVTimes; ++i) {
    const auto t = static_cast<VTime>(i);
    os << ", \"" << vtime_name(t) << "\": ";
    put_num(os, c[t]);
  }
  os << '}';
}

}  // namespace

void write_metrics_json(
    std::ostream& os,
    const std::vector<std::pair<std::string, double>>& model,
    const std::vector<std::unique_ptr<RankTelemetry>>& ranks,
    const std::vector<std::uint64_t>& dropped_events) {
  os << "{\n\"kind\": \"mpl-metrics\",\n\"nprocs\": " << ranks.size()
     << ",\n\"model\": {";
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (i) os << ", ";
    os << '"' << model[i].first << "\": ";
    put_num(os, model[i].second);
  }
  os << "},\n\"ranks\": [\n";
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankTelemetry& tm = *ranks[r];
    if (r) os << ",\n";
    os << "{\"rank\": " << tm.rank()
       << ", \"dropped_events\": " << dropped_events[r] << ",\n \"totals\": ";
    put_counts(os, tm.totals());
    os << ",\n \"per_comm\": [";
    std::vector<const CommCounters*> comms;
    for (const CommCounters* c = tm.comms(); c; c = c->next()) {
      if (c->snapshot() != Counts{}) comms.push_back(c);
    }
    std::sort(comms.begin(), comms.end(),
              [](const CommCounters* a, const CommCounters* b) {
                return a->label() < b->label();
              });
    for (std::size_t i = 0; i < comms.size(); ++i) {
      if (i) os << ", ";
      os << "{\"ctx\": " << comms[i]->label() << ", \"counters\": ";
      put_counts(os, comms[i]->snapshot());
      os << '}';
    }
    os << "],\n \"per_phase\": [";
    for (std::size_t i = 0; i < tm.per_phase().size(); ++i) {
      if (i) os << ", ";
      os << "{\"phase\": " << i << ", \"msgs\": " << tm.per_phase()[i].msgs
         << ", \"bytes\": " << tm.per_phase()[i].bytes << '}';
    }
    os << "],\n \"msg_size_hist\": [";
    const Histogram& h = tm.message_sizes();
    bool first = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket_count(b) == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "{\"le_bytes\": " << Histogram::bucket_upper(b)
         << ", \"count\": " << h.bucket_count(b) << '}';
    }
    os << "]}";
  }
  os << "\n]\n}\n";
}

void write_openmetrics(std::ostream& os, const MetricsSnapshot& snap) {
  gauge(os, "mpl_ranks", "Simulated processes in the run.",
        static_cast<double>(snap.nprocs));

  counter(os, "mpl_msgs_sent", "Messages sent across all ranks.",
          snap.totals[Count::msgs_sent]);
  counter(os, "mpl_bytes_sent", "Payload bytes sent across all ranks.",
          snap.totals[Count::bytes_sent]);
  counter(os, "mpl_staged_bytes",
          "Sent bytes staged in a pooled payload because no receive was "
          "posted yet (the rest were copied once, straight into the "
          "receive).",
          snap.totals[Count::staged_bytes]);
  counter(os, "mpl_msgs_recv", "Messages received across all ranks.",
          snap.totals[Count::msgs_recv]);
  counter(os, "mpl_bytes_recv", "Payload bytes received across all ranks.",
          snap.totals[Count::bytes_recv]);
  counter(os, "mpl_waits", "Blocking request waits that actually parked.",
          snap.totals[Count::waits]);
  counter(os, "mpl_collectives", "Neighborhood schedule executions.",
          snap.totals[Count::schedule_executions]);
  counter(os, "mpl_fault_retries",
          "Retransmits forced by injected message drops.",
          snap.totals[Count::fault_retries]);
  counter(os, "mpl_fault_delays", "Messages given injected delay jitter.",
          snap.totals[Count::fault_delays]);
  counter(os, "mpl_reduces", "Reducing schedule executions.", snap.totals[Count::reduces]);
  counter(os, "mpl_reduce_folds",
          "Combine steps applied by reducing schedules.", snap.totals[Count::reduce_folds]);
  counter(os, "mpl_reduce_fold_bytes",
          "Bytes combined by reducing-schedule fold steps.",
          snap.totals[Count::reduce_fold_bytes]);

  counter(os, "mpl_pool_hits", "Buffer-pool freelist hits.", snap.pool.hits);
  counter(os, "mpl_pool_misses", "Buffer-pool freelist misses (allocations).",
          snap.pool.misses);
  counter(os, "mpl_pool_recycled", "Buffers returned to the pool.",
          snap.pool.recycled);
  counter(os, "mpl_pool_dropped",
          "Buffers dropped instead of recycled (cap or shutdown).",
          snap.pool.dropped);
  counter(os, "mpl_pool_forced_misses",
          "Fault-injected forced freelist misses.", snap.pool.forced_misses);
  gauge(os, "mpl_pool_free_buffers",
        "Pooled buffers currently free (summed across ranks).",
        static_cast<double>(snap.pool.free_now));
  gauge(os, "mpl_pool_free_buffers_watermark",
        "Highest per-rank freelist depth observed (pool occupancy watermark).",
        static_cast<double>(snap.pool.free_watermark));

  counter(os, "mpl_plan_cache_hits",
          "Compiled-plan cache lookups served from the cache.",
          snap.plan_cache.hits);
  counter(os, "mpl_plan_cache_misses",
          "Compiled-plan cache lookups that compiled a new plan.",
          snap.plan_cache.misses);
  counter(os, "mpl_plan_cache_evictions",
          "Compiled plans evicted by the cache capacity bound.",
          snap.plan_cache.evictions);
  gauge(os, "mpl_plan_cache_entries", "Compiled plans currently cached.",
        static_cast<double>(snap.plan_cache.entries));

  os << "# TYPE mpl_lock_acquisitions counter\n";
  os << "# HELP mpl_lock_acquisitions Tracked mutex acquisitions by lock "
        "level.\n";
  for (int l = 0; l < kMaxLockLevels; ++l) {
    if (snap.contention.acquisitions[l] == 0) continue;
    os << "mpl_lock_acquisitions_total{level=\"" << lock_level_name(l)
       << "\"} " << snap.contention.acquisitions[l] << '\n';
  }
  os << "# TYPE mpl_lock_contended counter\n";
  os << "# HELP mpl_lock_contended Acquisitions that blocked (try_lock "
        "failed) by lock level.\n";
  for (int l = 0; l < kMaxLockLevels; ++l) {
    if (snap.contention.acquisitions[l] == 0) continue;
    os << "mpl_lock_contended_total{level=\"" << lock_level_name(l) << "\"} "
       << snap.contention.contended[l] << '\n';
  }
  os << "# TYPE mpl_lock_blocked_seconds counter\n";
  os << "# HELP mpl_lock_blocked_seconds Cumulative time spent blocked on "
        "tracked mutexes by lock level.\n";
  for (int l = 0; l < kMaxLockLevels; ++l) {
    if (snap.contention.acquisitions[l] == 0) continue;
    os << "mpl_lock_blocked_seconds_total{level=\"" << lock_level_name(l)
       << "\"} " << fmt(static_cast<double>(snap.contention.blocked_ns[l]) * 1e-9)
       << '\n';
  }

  histogram(os, "mpl_collective_latency_seconds",
            "Wall latency of one neighborhood collective execution.",
            snap.collective_ns, 1e-9);
  histogram(os, "mpl_wait_block_seconds",
            "Wall time a blocking request wait spent parked.",
            snap.wait_block_ns, 1e-9);
  histogram(os, "mpl_message_size_bytes", "Payload size of sent messages.",
            snap.msg_bytes, 1.0);
  histogram(os, "mpl_reduce_latency_seconds",
            "Wall latency of one reducing schedule execution.", snap.reduce_ns,
            1e-9);

  os << "# EOF\n";
}

}  // namespace telemetry
