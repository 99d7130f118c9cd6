#include "mpl/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "mpl/comm.hpp"
#include "mpl/comm_state.hpp"
#include "mpl/error.hpp"
#include "mpl/proc.hpp"
#include "mpl/runtime_state.hpp"
#include "telemetry/openmetrics.hpp"
#include "telemetry/telemetry.hpp"

namespace mpl {

namespace {
thread_local Proc* tls_proc = nullptr;

// Aggregate every rank's telemetry block, pool stats and the process-wide
// contention totals into one exporter snapshot. Safe to call while rank
// threads are still running (periodic snapshots): every source is
// relaxed-atomic or lock-protected, so mid-run reads are torn only across
// metrics, never within one.
void gather_metrics(
    detail::RuntimeState& rt,
    const std::vector<std::unique_ptr<telemetry::RankTelemetry>>& telems,
    telemetry::MetricsSnapshot& s) {
  s.nprocs = static_cast<int>(rt.procs.size());
  for (const auto& tm : telems) {
    s.totals += tm->totals();
    s.collective_ns.merge(tm->collective_latency());
    s.wait_block_ns.merge(tm->wait_block_latency());
    s.msg_bytes.merge(tm->message_sizes());
    s.reduce_ns.merge(tm->reduce_latency());
  }
  for (auto& p : rt.procs) {
    const detail::BufferPool::Stats ps = p->pool().stats();
    s.pool.hits += ps.hits;
    s.pool.misses += ps.misses;
    s.pool.recycled += ps.recycled;
    s.pool.dropped += ps.dropped;
    s.pool.forced_misses += ps.forced_misses;
    s.pool.free_now += ps.free_now;
    s.pool.free_watermark = std::max(s.pool.free_watermark, ps.free_watermark);
  }
  s.contention = telemetry::contention_totals();
  s.plan_cache = telemetry::plan_cache_totals();
}

// Write one OpenMetrics snapshot to `path` (`-` = stdout). Returns an
// error string instead of throwing so the caller decides severity: the
// final write is fatal, periodic rewrites only warn once.
std::string write_openmetrics_file(
    const std::string& path, detail::RuntimeState& rt,
    const std::vector<std::unique_ptr<telemetry::RankTelemetry>>& telems) {
  telemetry::MetricsSnapshot snap;
  gather_metrics(rt, telems, snap);
  if (path == "-") {
    telemetry::write_openmetrics(std::cout, snap);
    return std::cout ? std::string()
                     : std::string("mpl: openmetrics: stdout write failed");
  }
  std::ofstream os(path, std::ios::trunc);
  if (!os) return "mpl: openmetrics: cannot open " + path;
  telemetry::write_openmetrics(os, snap);
  os.flush();
  if (!os) return "mpl: openmetrics: write to " + path + " failed";
  return {};
}

// Disarm the contention probes on every exit path without resetting the
// totals (tests and the exporter read them after run() returns).
struct ContentionDisarmGuard {
  ~ContentionDisarmGuard() { telemetry::contention_arm(false); }
};
}  // namespace

Proc* this_proc() noexcept { return tls_proc; }

namespace detail {

void RuntimeState::publish_comm(const std::shared_ptr<CommState>& st) {
  CheckedLock lock(comm_mtx_);
  published_.emplace(st->ctx, st);
}

std::shared_ptr<CommState> RuntimeState::lookup_comm(std::uint64_t ctx) {
  CheckedLock lock(comm_mtx_);
  auto it = published_.find(ctx);
  MPL_REQUIRE(it != published_.end(), "internal: unknown communicator context");
  return it->second;
}

}  // namespace detail

void run(int nprocs, const std::function<void(Comm&)>& fn,
         const RunOptions& opts) {
  MPL_REQUIRE(nprocs > 0, "run: need at least one process");
  MPL_REQUIRE(tls_proc == nullptr, "run: nested mpl::run is not supported");

  detail::RuntimeState rt;
  rt.net = opts.net;

  FaultConfig fcfg = opts.faults;
  fcfg.apply_env();
  rt.faults.configure(fcfg, nprocs);

  trace::TraceConfig tcfg = opts.trace;
  tcfg.apply_env();
  rt.tracer.configure(tcfg, nprocs);

  telemetry::TelemetryConfig mcfg = opts.telemetry;
  mcfg.apply_env();
  const bool telem_armed = mcfg.armed();
  std::vector<std::unique_ptr<telemetry::RankTelemetry>> telems;
  if (telem_armed) {
    telems.reserve(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
      telems.push_back(std::make_unique<telemetry::RankTelemetry>(r));
    }
    telemetry::contention_arm(true);  // resets totals for this run
    telemetry::plan_cache_counters_reset();  // same observation window
  }
  ContentionDisarmGuard contention_guard;
  std::vector<std::pair<std::string, double>> meta{
      {"o", opts.net.o},
      {"L", opts.net.L},
      {"G", opts.net.G},
      {"copy", opts.net.copy},
      {"o_block", opts.net.o_block},
      {"G_pack", opts.net.G_pack},
      {"jitter", opts.net.jitter},
      {"tail_prob", opts.net.tail_prob},
      {"tail", opts.net.tail}};
  if (rt.faults.injecting()) {
    // Faulted runs carry their fault knobs in the trace/metrics metadata so
    // a replay can be reconstructed from the artifact alone.
    const FaultConfig& fc = rt.faults.config();
    meta.emplace_back("fault_seed", static_cast<double>(fc.seed));
    meta.emplace_back("fault_drop", fc.drop);
    meta.emplace_back("fault_delay", fc.delay);
    meta.emplace_back("fault_delay_prob", fc.delay_prob);
    meta.emplace_back("fault_straggler_frac", fc.straggler_frac);
    meta.emplace_back("fault_straggler", fc.straggler);
    meta.emplace_back("fault_pool_miss", fc.pool_miss);
  }
  rt.tracer.set_model_meta(meta, opts.net.enabled);

  rt.procs.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    auto p = std::make_unique<Proc>();
    p->init(r, nprocs, &rt);
    p->clock().configure(opts.net, r);
    p->mailbox().set_abort_flag(&rt.abort);
    p->set_trace(rt.tracer.rank(r),
                 rt.tracer.trace_armed() ? &rt.tracer : nullptr);
    if (telem_armed) p->set_telem(telems[static_cast<std::size_t>(r)].get());
    // Arrival stamping costs one wall-clock read per message; only wire it
    // when event tracing is on.
    if (rt.tracer.trace_armed()) p->mailbox().set_tracer(&rt.tracer);
    if (rt.faults.any_armed()) {
      p->set_faults(&rt.faults);
      p->mailbox().set_fault_ctx(&rt.faults, &rt, r);
      p->pool().set_faults(&rt.faults, r);
    }
    rt.procs.push_back(std::move(p));
  }

  auto world_state = std::make_shared<detail::CommState>();
  world_state->ctx = 0;
  world_state->rt = &rt;
  world_state->oob = std::make_shared<detail::OobBarrier>(nprocs, &rt.abort);
  for (auto& p : rt.procs) world_state->members.push_back(p.get());
  world_state->counters.resize(static_cast<std::size_t>(nprocs), nullptr);
  if (telem_armed) {
    for (std::size_t r = 0; r < telems.size(); ++r) {
      world_state->counters[r] = telems[r]->add_comm(0);
    }
  }
  rt.publish_comm(world_state);

  detail::ErrorSlot errors;

  // Progress watchdog: a run is stalled when every live rank is parked in a
  // blocking mailbox wait and no delivery happened for a full period. The
  // transport delivers synchronously from the sender's thread, so that
  // state can never resolve itself — report it (with each rank's pending
  // operations and schedule position) and abort instead of hanging.
  std::thread watchdog;
  std::atomic<bool> wd_stop{false};
  if (rt.faults.watchdog_armed()) {
    watchdog = std::thread([&rt, &wd_stop, nprocs] {
      const double period = rt.faults.watchdog_s();
      const std::chrono::duration<double> slice(
          std::clamp(period / 4.0, 1e-3, 5e-2));
      double stalled_for = 0.0;
      std::uint64_t last_activity = 0;
      bool have_sample = false;
      while (!wd_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(slice);
        if (rt.abort.load(std::memory_order_relaxed)) return;
        std::uint64_t activity = 0;
        int blocked = 0;
        int finished = 0;
        for (auto& p : rt.procs) {
          activity += p->mailbox().activity();
          if (p->finished()) {
            ++finished;
          } else if (p->mailbox().blocked()) {
            ++blocked;
          }
        }
        const bool all_stuck =
            finished < nprocs && blocked + finished == nprocs;
        stalled_for = (have_sample && all_stuck && activity == last_activity)
                          ? stalled_for + slice.count()
                          : 0.0;
        last_activity = activity;
        have_sample = true;
        if (stalled_for >= period) {
          rt.set_stall_report(
              "mpl: progress watchdog: no delivery activity for " +
              std::to_string(rt.faults.config().watchdog_ms) +
              " ms with every live rank blocked\n" +
              detail::pending_ops_dump(rt));
          rt.request_abort();
          return;
        }
      }
    });
  }

  // Periodic OpenMetrics snapshots: rewrite the file every period so an
  // external scraper sees a live view of a long run. Best-effort — a write
  // failure warns once (to stderr) instead of killing the run; the final
  // post-join write below is the authoritative one and is fatal on failure.
  std::thread snapshotter;
  std::atomic<bool> snap_stop{false};
  if (telem_armed && !mcfg.openmetrics_path.empty() && mcfg.period_ms > 0.0 &&
      mcfg.openmetrics_path != "-") {
    snapshotter = std::thread([&rt, &telems, &snap_stop, &mcfg] {
      const std::chrono::duration<double, std::milli> period(mcfg.period_ms);
      const auto slice = std::chrono::milliseconds(5);
      bool warned = false;
      auto next = std::chrono::steady_clock::now() + period;
      while (!snap_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(slice);
        if (std::chrono::steady_clock::now() < next) continue;
        next += period;
        const std::string err =
            write_openmetrics_file(mcfg.openmetrics_path, rt, telems);
        if (!err.empty() && !warned) {
          std::cerr << err << " (periodic snapshots disabled)\n";
          warned = true;
          return;
        }
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&, r] {
      tls_proc = rt.procs[static_cast<std::size_t>(r)].get();
      try {
        Comm world = CommBuilder::make(world_state, r);
        fn(world);
      } catch (...) {
        errors.capture(std::current_exception());
        // Wake every blocked process so the whole run can unwind.
        rt.request_abort();
      }
      // A finished rank no longer needs progress: the watchdog's stall
      // condition counts it out instead of waiting on it.
      rt.procs[static_cast<std::size_t>(r)]->set_finished();
      tls_proc = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  wd_stop.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();
  snap_stop.store(true, std::memory_order_relaxed);
  if (snapshotter.joinable()) snapshotter.join();

  if (auto first_error = errors.first()) std::rethrow_exception(first_error);

  // All process threads joined: the per-rank rings and per-phase tables
  // are safe to read.
  const std::string trace_error = rt.tracer.flush();
  if (!trace_error.empty()) throw Error(trace_error);

  if (!mcfg.metrics_path.empty()) {
    std::vector<std::uint64_t> dropped(static_cast<std::size_t>(nprocs), 0);
    for (int r = 0; r < nprocs; ++r) {
      if (const trace::RankTrace* tr = rt.tracer.rank(r)) {
        dropped[static_cast<std::size_t>(r)] = tr->dropped();
      }
    }
    if (mcfg.metrics_path == "-") {
      telemetry::write_metrics_json(std::cout, meta, telems, dropped);
    } else {
      std::ofstream os(mcfg.metrics_path);
      if (!os) throw Error("mpl: metrics: cannot open " + mcfg.metrics_path);
      telemetry::write_metrics_json(os, meta, telems, dropped);
      if (!os) {
        throw Error("mpl: metrics: write failed for " + mcfg.metrics_path);
      }
    }
  }

  // Final (authoritative) OpenMetrics export; all rank threads are joined,
  // so this snapshot is exact, not a mid-run approximation.
  if (telem_armed && !mcfg.openmetrics_path.empty()) {
    const std::string err =
        write_openmetrics_file(mcfg.openmetrics_path, rt, telems);
    if (!err.empty()) throw Error(err);
  }
}

}  // namespace mpl
