// Tracing layer: ring-buffer semantics, env configuration, dual-clock
// consistency with the model off, trace determinism, the zero-perturbation
// guarantee, the traced receive fast path, and the schedule counters of
// the telemetry registry that the metrics JSON prints.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

using cartcomm::Neighborhood;
using cartcomm::Schedule;
using trace::Event;
using trace::EventKind;
using trace::RankTrace;
using trace::TraceConfig;

namespace {

const mpl::Datatype kInt = mpl::Datatype::of<int>();

mpl::NetConfig test_model() {
  mpl::NetConfig c;
  c.enabled = true;
  c.o = 1e-6;
  c.L = 5e-6;
  c.G = 1e-9;
  c.copy = 2e-9;
  c.o_block = 1e-7;
  c.G_pack = 5e-10;
  return c;
}

Event make_event(std::uint64_t bytes) {
  Event e;
  e.kind = EventKind::send_post;
  e.bytes = bytes;
  return e;
}

/// A temp file path removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// Build the fixed 2D 5-point (von Neumann) alltoall schedule on a 3x3
/// torus, moving `m` ints per neighbor, and execute it once.
void run_5point(mpl::Comm& world, int m) {
  const std::vector<int> dims{3, 3};
  const Neighborhood nb = Neighborhood::von_neumann(2);
  auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
  const int t = nb.count();
  std::vector<int> sb(static_cast<std::size_t>(t * m), world.rank());
  std::vector<int> rb(static_cast<std::size_t>(t * m), -1);
  std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
  std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    sends[static_cast<std::size_t>(i)] = {&sb[static_cast<std::size_t>(i * m)],
                                          m, kInt};
    recvs[static_cast<std::size_t>(i)] = {&rb[static_cast<std::size_t>(i * m)],
                                          m, kInt};
  }
  Schedule s = cartcomm::build_alltoall_schedule(cc, sends, recvs);
  s.execute(cc.comm());
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

TEST(TraceRing, DropOldestKeepsNewestAndCounts) {
  RankTrace rt(0, /*capacity=*/4, /*trace_armed=*/true,
               /*start_enabled=*/true);
  ASSERT_TRUE(rt.tracing());
  for (std::uint64_t i = 0; i < 10; ++i) rt.record(make_event(i));
  EXPECT_EQ(rt.event_count(), 4u);
  EXPECT_EQ(rt.dropped(), 6u);
  const std::vector<Event> events = rt.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].bytes, 6 + i) << "oldest-first order after wrap";
  }
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  RankTrace rt(0, 0, true, true);
  rt.record(make_event(1));
  rt.record(make_event(2));
  EXPECT_EQ(rt.capacity(), 1u);
  EXPECT_EQ(rt.event_count(), 1u);
  EXPECT_EQ(rt.dropped(), 1u);
  EXPECT_EQ(rt.snapshot().at(0).bytes, 2u);
}

TEST(TraceRing, UnarmedRecordsNothing) {
  RankTrace rt(0, 8, /*trace_armed=*/false, true);
  EXPECT_FALSE(rt.tracing());
  rt.record(make_event(1));
  rt.set_tracing(true);  // must stay off: tracing was never armed
  rt.record(make_event(2));
  EXPECT_EQ(rt.event_count(), 0u);
  EXPECT_EQ(rt.dropped(), 0u);
}

TEST(TraceRing, SectionScopeResetsBetweenSections) {
  RankTrace rt(0, 16, true, true);
  EXPECT_EQ(rt.section(), -1);
  EXPECT_EQ(rt.begin_section("a", 0.0, 0.0), 0);
  rt.record(make_event(1));
  rt.end_section(1.0, 1.0);
  EXPECT_EQ(rt.section(), -1);
  rt.record(make_event(2));  // between sections: untraced scope
  EXPECT_EQ(rt.begin_section("b", 2.0, 2.0), 1);
  rt.record(make_event(3));
  rt.end_section(3.0, 3.0);

  const std::vector<Event> events = rt.snapshot();
  ASSERT_EQ(events.size(), 7u);
  EXPECT_EQ(events[1].section, 0);   // inside "a"
  EXPECT_EQ(events[3].section, -1);  // between sections
  EXPECT_EQ(events[5].section, 1);   // inside "b"
  EXPECT_EQ(events[0].label, "a");
  EXPECT_EQ(events[4].label, "b");
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

TEST(TraceConfigTest, DefaultsDisarmed) {
  TraceConfig cfg;
  EXPECT_FALSE(cfg.trace_armed());
  EXPECT_EQ(cfg.capacity, std::size_t{1} << 16);
  EXPECT_TRUE(cfg.start_enabled);
}

TEST(TraceConfigTest, ApplyEnvOverrides) {
  ::setenv("MPL_TRACE", "/tmp/t.json", 1);
  ::setenv("MPL_METRICS", "-", 1);
  ::setenv("MPL_TRACE_CAPACITY", "128", 1);
  TraceConfig cfg;
  cfg.apply_env();
  telemetry::TelemetryConfig tcfg;
  tcfg.apply_env();
  ::unsetenv("MPL_TRACE");
  ::unsetenv("MPL_METRICS");
  ::unsetenv("MPL_TRACE_CAPACITY");
  EXPECT_EQ(cfg.chrome_path, "/tmp/t.json");
  EXPECT_EQ(cfg.capacity, 128u);
  EXPECT_TRUE(cfg.trace_armed());
  // The metrics JSON is a telemetry export: MPL_METRICS arms telemetry.
  EXPECT_EQ(tcfg.metrics_path, "-");
  EXPECT_TRUE(tcfg.armed());
}

// ---------------------------------------------------------------------------
// Dual clocks with the model off
// ---------------------------------------------------------------------------

TEST(TraceRun, WallClockModeWhenModelOff) {
  TempFile out("trace_walloff.json");
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::off();
  opts.trace.chrome_path = out.path;
  mpl::run(
      9, [](mpl::Comm& world) { run_5point(world, 1); }, opts);

  const trace::json::Value doc = trace::json::parse_file(out.path);
  EXPECT_EQ(doc.at("otherData").str_or("clock", ""), "wall");
  int leaves = 0;
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    if (ev.str_or("ph", "") != "X") continue;
    const auto& args = ev.at("args");
    // Virtual clocks never advance with the model off; wall interval must
    // be well-formed and events must carry no virtual cost attribution.
    EXPECT_EQ(args.num_or("v_start", -1), 0.0);
    EXPECT_EQ(args.num_or("v_end", -1), 0.0);
    EXPECT_GE(args.num_or("w_start", -1), 0.0);
    EXPECT_GE(args.num_or("w_end", -1), args.num_or("w_start", -1));
    for (int c = 0; c < trace::kComponents; ++c) {
      EXPECT_EQ(args.num_or(trace::component_name(c), -1), 0.0);
    }
    ++leaves;
  }
  EXPECT_GT(leaves, 0);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

namespace {

void run_traced_5point(const std::string& path) {
  mpl::RunOptions opts;
  opts.net = test_model();
  opts.trace.chrome_path = path;
  mpl::run(
      9, [](mpl::Comm& world) { run_5point(world, 2); }, opts);
}

}  // namespace

TEST(TraceRun, DeterministicTraceForFixedSchedule) {
  TempFile a("trace_det_a.json");
  TempFile b("trace_det_b.json");
  run_traced_5point(a.path);
  run_traced_5point(b.path);

  const auto ea = trace::json::parse_file(a.path).at("traceEvents").as_array();
  const auto eb = trace::json::parse_file(b.path).at("traceEvents").as_array();
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_GT(ea.size(), 9u * 4u);  // at least one event per rank per round
  // Everything except the wall-clock fields must match run for run: the
  // virtual timeline, scopes, partners, sizes and the cost attribution.
  static const char* const kVirtualFields[] = {
      "peer",  "tag",    "phase",  "round",   "section", "ctx",
      "bytes", "blocks", "v_start", "v_end",  "depart",  "o",
      "L",     "G",      "o_block", "G_pack", "copy",    "idle",
      "fault"};
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].str_or("ph", "") != "X") {
      EXPECT_EQ(eb[i].str_or("ph", ""), ea[i].str_or("ph", ""));
      continue;
    }
    const auto& aa = ea[i].at("args");
    const auto& ab = eb[i].at("args");
    EXPECT_EQ(aa.str_or("kind", "?"), ab.str_or("kind", "!")) << "event " << i;
    for (const char* f : kVirtualFields) {
      EXPECT_EQ(aa.num_or(f, -1), ab.num_or(f, -2))
          << "event " << i << " field " << f;
    }
  }
}

TEST(TraceRun, TracingDoesNotPerturbVirtualClock) {
  auto vclocks = [](bool traced) {
    TempFile out("trace_perturb.json");
    std::vector<double> v(9, -1.0);
    mpl::RunOptions opts;
    opts.net = test_model();
    if (traced) {
      opts.trace.chrome_path = out.path;
      opts.telemetry.metrics_path = out.path + ".metrics";
    }
    mpl::run(
        9,
        [&](mpl::Comm& world) {
          run_5point(world, 2);
          v[static_cast<std::size_t>(world.rank())] = world.vclock();
        },
        opts);
    if (traced) std::remove((out.path + ".metrics").c_str());
    return v;
  };
  const std::vector<double> untraced = vclocks(false);
  const std::vector<double> traced = vclocks(true);
  for (std::size_t r = 0; r < untraced.size(); ++r) {
    EXPECT_GT(untraced[r], 0.0);
    // Bit-identical, not approximately equal: instrumentation must never
    // touch the NetClock arithmetic.
    EXPECT_EQ(untraced[r], traced[r]) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(TraceRun, ScheduleExecutionCounters) {
  TempFile out("trace_metrics.json");
  mpl::RunOptions opts;
  opts.net = test_model();
  opts.telemetry.metrics_path = out.path;
  mpl::run(
      9,
      [](mpl::Comm& world) {
        const std::vector<int> dims{3, 3};
        const Neighborhood nb = Neighborhood::von_neumann(2);
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        const int t = nb.count();
        std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
        std::vector<int> rb(static_cast<std::size_t>(t), -1);
        std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
        std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
        for (int i = 0; i < t; ++i) {
          sends[static_cast<std::size_t>(i)] = {
              &sb[static_cast<std::size_t>(i)], 1, kInt};
          recvs[static_cast<std::size_t>(i)] = {
              &rb[static_cast<std::size_t>(i)], 1, kInt};
        }
        Schedule s = cartcomm::build_alltoall_schedule(cc, sends, recvs);

        using telemetry::Count;
        const telemetry::CommCounters* live = cc.comm().counters();
        const telemetry::CommCounters* world_live = world.counters();
        ASSERT_NE(live, nullptr);
        ASSERT_NE(world_live, nullptr);
        ASSERT_NE(live, world_live);
        // The Cartesian communicator is a dup: its own label, not world's.
        EXPECT_NE(live->label(), 0u);
        EXPECT_EQ(world_live->label(), 0u);
        const telemetry::Counts before = live->snapshot();  // creation excluded
        const telemetry::Counts world_before = world_live->snapshot();
        s.execute(cc.comm());
        const telemetry::Counts after = live->snapshot();
        const telemetry::Counts world_after = world_live->snapshot();

        // On a 3x3 torus the 5-point alltoall is 4 rounds in 2 phases, one
        // 4-byte message per round, no local copies.
        auto delta = [&](Count k) { return after[k] - before[k]; };
        EXPECT_EQ(delta(Count::schedule_executions), 1u);
        EXPECT_EQ(delta(Count::phases), static_cast<std::uint64_t>(s.phases()));
        EXPECT_EQ(delta(Count::rounds), static_cast<std::uint64_t>(s.rounds()));
        EXPECT_EQ(delta(Count::msgs_sent), 4u);
        EXPECT_EQ(delta(Count::bytes_sent), 16u);
        EXPECT_EQ(delta(Count::msgs_recv), 4u);
        EXPECT_EQ(delta(Count::self_copies), 0u);
        // The schedule's traffic lands in the Cartesian communicator's
        // block and none of it in world's.
        for (int k = 0; k < telemetry::kCounts; ++k) {
          const auto c = static_cast<Count>(k);
          if (c == Count::waits || c == Count::wait_ns) continue;  // wall
          EXPECT_EQ(world_after[c], world_before[c]) << count_name(c);
        }
        EXPECT_EQ(world_after[telemetry::VTime::wait_stall_v],
                  world_before[telemetry::VTime::wait_stall_v]);
      },
      opts);
}

TEST(TraceRun, MetricsNullWhenDisarmed) {
  mpl::run(2, [](mpl::Comm& world) {
    EXPECT_EQ(world.telemetry(), nullptr);
    EXPECT_EQ(world.counters(), nullptr);
    EXPECT_FALSE(world.trace_active());
    EXPECT_EQ(world.trace_section_begin("x"), -1);
    world.trace_section_end();  // must be a harmless no-op
  });
}

// ---------------------------------------------------------------------------
// Receive fast path
// ---------------------------------------------------------------------------

namespace {

/// Rank 0 sends one message; once it is queued at rank 1 (hard_sync), rank
/// 1 receives it with a blocking recv. Returns rank 1's trace events (none
/// when no RankTrace exists).
std::vector<Event> queued_recv(const mpl::RunOptions& opts) {
  std::vector<Event> events;
  mpl::run(
      2,
      [&](mpl::Comm& world) {
        int v = 7;
        if (world.rank() == 0) {
          world.send(&v, 1, kInt, 1, 5);
          world.hard_sync();
        } else {
          world.hard_sync();
          int got = 0;
          const mpl::Status st = world.recv(&got, 1, kInt, 0, 5);
          EXPECT_EQ(got, 7);
          EXPECT_EQ(st.bytes, sizeof(int));
          if (const telemetry::RankTelemetry* tm = world.telemetry()) {
            EXPECT_EQ(tm->msgs_recv(), 1u);
            EXPECT_EQ(tm->bytes_recv(), sizeof(int));
          }
          if (const trace::RankTrace* tr = world.proc().trace()) {
            events = tr->snapshot();
          }
        }
      },
      opts);
  return events;
}

}  // namespace

TEST(TraceRun, TracedFastPathRecvRecordsItsCompletion) {
  TempFile out("trace_fastpath.json");
  mpl::RunOptions opts;  // clock off
  opts.trace.chrome_path = out.path;
  const std::vector<Event> events = queued_recv(opts);
  int completes = 0;
  int posts = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::recv_post) ++posts;
    if (e.kind == EventKind::recv_complete) {
      ++completes;
      EXPECT_EQ(e.peer, 0);
      EXPECT_EQ(e.tag, 5);
      EXPECT_EQ(e.bytes, sizeof(int));
      EXPECT_GE(e.w_end, e.w_start);
      EXPECT_EQ(e.v_start, 0.0);
      EXPECT_EQ(e.v_end, 0.0);
      for (const double c : e.comp) EXPECT_EQ(c, 0.0);
    }
  }
  EXPECT_EQ(completes, 1);
  EXPECT_EQ(posts, 0) << "the queued message must not go through irecv";
}

TEST(TraceRun, MetricsAloneCreateNoTracer) {
  TempFile out("trace_fastpath_metrics.json");
  mpl::RunOptions opts;  // clock off
  opts.telemetry.metrics_path = out.path;
  bool traced = true;
  mpl::run(2, [&](mpl::Comm& world) {
    if (world.rank() == 1) traced = world.proc().trace() != nullptr;
  }, opts);
  // The fast path's only condition is the clock; no RankTrace exists to
  // record into, and the receive is still counted once.
  EXPECT_FALSE(traced) << "arming metrics must not create a RankTrace";
  EXPECT_TRUE(queued_recv(opts).empty());
}
