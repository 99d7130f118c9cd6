// Repository benchmark program: runs one named workload on kRanks simulated
// processes (threads of this process) as a closed loop and prints its
// metrics, one line each, then one JSON object as the last line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics: wall time per op (p50/p90, cost
// model off), the modeled makespan per op under NetConfig::omnipath() from
// its own model-on pass, cold set-up time and peak resident memory.
// --trace 1 prints the per-layer metrics: benchmark-side spans, replays of
// the op's own arguments through each layer's public functions, transport
// counters from RankTelemetry, exact schedule counts (self-checked against
// the transport), the tracing overhead and two machine references.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cartcomm/plan.hpp"
#include "mpl/runtime.hpp"
#include "telemetry/plan_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace {

using perfbench::CallLayers;
using perfbench::kRanks;
using perfbench::Msg;
using perfbench::Spans;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

constexpr int kLaunches = 8;         // fresh-rank launches of the timed loop
constexpr int kSetupReps = 8;        // cold set-ups per batch, one per launch
constexpr int kModelOps = 16;        // ops of the model-on pass
constexpr double kWarmSeconds = 0.3;  // untimed closed loop before timing
constexpr int kCollectiveReps = 200;  // repetitions of collective replays
constexpr double kLocalBudgetUs = 50e3;  // time budget of one local replay

std::atomic<std::uint64_t> g_sink{0};  // keeps replayed results observable

double now_us() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median time of a purely local call, repeated for a fixed time budget.
template <typename F>
double local_median_us(F&& f) {
  std::vector<double> t;
  const double start = now_us();
  while (t.size() < 5 || (now_us() - start < kLocalBudgetUs && t.size() < 20000)) {
    const double t0 = now_us();
    f();
    t.push_back(now_us() - t0);
  }
  return median(std::move(t));
}

/// One value per rank per sample. Ranks are threads of this process, so
/// results are gathered through shared memory after an out-of-band barrier.
struct Rows {
  std::array<std::vector<double>, kRanks> v;

  /// Per-sample maximum over the ranks (the op ends when its last rank does).
  [[nodiscard]] std::vector<double> max_over_ranks() const {
    std::size_t n = v[0].size();
    for (const auto& r : v) n = std::min(n, r.size());
    std::vector<double> out(n, 0.0);
    for (const auto& r : v) {
      for (std::size_t k = 0; k < n; ++k) out[k] = std::max(out[k], r[k]);
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

struct Loop {
  std::atomic<bool> stop{false};
  Rows op_us, exchange_us, compute_us;
  std::array<std::vector<char>, kRanks> ok;

  [[nodiscard]] std::size_t ops() const {
    std::size_t n = ok[0].size();
    for (const auto& r : ok) n = std::min(n, r.size());
    return n;
  }
  /// Drop samples that not every rank recorded (a launch that threw).
  void trim() {
    const std::size_t n = ops();
    for (auto* rows : {&op_us, &exchange_us, &compute_us}) {
      for (auto& r : rows->v) r.resize(std::min(r.size(), n));
    }
    for (auto& r : ok) r.resize(n);
  }
  [[nodiscard]] std::size_t failed() const {
    std::size_t f = 0;
    for (std::size_t k = 0; k < ops(); ++k) {
      bool good = true;
      for (const auto& r : ok) good = good && r[k] != 0;
      f += good ? 0 : 1;
    }
    return f;
  }
};

/// Runs on every rank with the same `lp`, which the ranks share. Every op
/// starts together after an out-of-band barrier (it advances no
/// virtual clock and sends no message); each rank starts op k+1 only after
/// its op k returned. Inputs are written and outputs checked outside the
/// timed span. `op` numbers the ops across every loop of the run.
void closed_loop(const mpl::Comm& world, Workload& w, double seconds,
                 std::uint64_t& op, Loop& lp, bool spans) {
  const int r = world.rank();
  const auto t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    w.prepare(op);
    if (r == 0) lp.stop.store(Clock::now() >= t_end, std::memory_order_relaxed);
    world.hard_sync();
    const bool stop = lp.stop.load(std::memory_order_relaxed);
    world.hard_sync();  // nobody rewrites `stop` before every rank read it
    if (stop) break;
    Spans s;
    const double t0 = now_us();
    w.run(spans ? &s : nullptr);
    const double t1 = now_us();
    lp.op_us.v[r].push_back(t1 - t0);
    lp.exchange_us.v[r].push_back(s.exchange_us);
    lp.compute_us.v[r].push_back(s.compute_us);
    lp.ok[r].push_back(w.check(op) ? 1 : 0);
    ++op;
  }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      notes.push_back("metric " + name + " is not finite");
      correct = false;
      value = 0.0;
    }
    metrics.push_back({name, {value, unit}});
  }
  void count_loop(const Loop& lp) {
    attempted += static_cast<long long>(lp.ops());
    failed += static_cast<long long>(lp.failed());
  }
  void fail(const std::string& why) {
    notes.push_back(why);
    correct = false;
  }

  void print() const {
    for (const auto& n : notes) std::printf("note: %s\n", n.c_str());
    for (const auto& [name, vu] : metrics) {
      std::printf("%-36s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct && failed == 0 ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto& [name, vu] : metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::unique_ptr<Workload> make(const Args& a, const mpl::Comm& world) {
  return perfbench::make_workload(a.workload, a.seed, world.rank());
}

/// Clear the plan cache on rank 0 while every rank is parked, so the next
/// set-up compiles from nothing (the clear also invalidates the per-thread
/// one-shot memos).
void cold_cache(const mpl::Comm& world) {
  world.hard_sync();
  if (world.rank() == 0) cartcomm::plan_cache_clear();
  world.hard_sync();
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

/// Cold set-up, several times: communicator creation plus the *_init call
/// (or the first call of each kind), maximum over the ranks per repetition.
/// Appends one sample per repetition to `samples` (microseconds).
void setup_batch(const Args& a, std::vector<double>& samples) {
  Rows t;
  mpl::run(kRanks, [&](mpl::Comm& world) {
    for (int i = 0; i < kSetupReps; ++i) {
      auto w = make(a, world);  // buffers are allocated outside the span
      cold_cache(world);
      const double t0 = now_us();
      w->setup(world);
      t.v[world.rank()].push_back(now_us() - t0);
      world.hard_sync();
    }
  });
  const std::vector<double> m = t.max_over_ranks();
  samples.insert(samples.end(), m.begin(), m.end());
}

/// Modeled makespan of one op under the OmniPath profile, in its own
/// model-on run (the virtual clock changes the receive path, so it never
/// shares a run with wall timing). Deterministic.
double model_us(const Args& a, Result& res) {
  Rows v;
  Loop lp;
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  mpl::run(
      kRanks,
      [&](mpl::Comm& world) {
        auto w = make(a, world);
        w->setup(world);
        for (int k = 0; k < kModelOps; ++k) {
          const std::uint64_t op = 1000000 + static_cast<std::uint64_t>(k);
          w->prepare(op);
          world.vclock_reset_sync();
          w->run(nullptr);
          v.v[world.rank()].push_back(world.vclock() * 1e6);
          lp.ok[world.rank()].push_back(w->check(op) ? 1 : 0);
        }
      },
      opts);
  res.count_loop(lp);
  const std::vector<double> ops = v.max_over_ranks();
  for (const double x : ops) {
    if (x != ops.front()) res.fail("modeled op time differs between ops");
  }
  return median(ops);
}

/// The timed closed loop, cost model off, split into kLaunches launches
/// (mpl::run calls) of fresh ranks whose samples are pooled: where the
/// threads land shifts one launch's times by several percent, and pooling
/// averages that out. Each launch is preceded by a batch of cold set-ups,
/// so set-up is sampled across the whole run too. A thrown op ends its
/// launch and counts as failed.
void timed_loop(const Args& a, Loop& lp, std::vector<double>& setup_us,
                Result& res) {
  for (int k = 0; k < kLaunches; ++k) {
    setup_batch(a, setup_us);
    Loop warm;
    try {
      mpl::run(kRanks, [&](mpl::Comm& world) {
        auto w = make(a, world);
        w->setup(world);
        std::uint64_t op = static_cast<std::uint64_t>(k) << 32;
        closed_loop(world, *w, kWarmSeconds, op, warm, false);
        closed_loop(world, *w, a.seconds / kLaunches, op, lp, false);
      });
    } catch (const std::exception& e) {
      res.fail(std::string("op threw: ") + e.what());
      ++res.attempted;
      ++res.failed;
      warm.trim();
      lp.trim();
    }
    res.count_loop(warm);
  }
  setup_batch(a, setup_us);
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void end_to_end(const Args& a, Result& res) {
  const double model = model_us(a, res);
  Loop lp;
  std::vector<double> setup_us;
  timed_loop(a, lp, setup_us, res);
  res.count_loop(lp);
  const std::vector<double> op = lp.op_us.max_over_ranks();
  if (op.size() < 100) res.fail("fewer than 100 timed ops");
  res.notes.push_back("timed ops (samples of op_us_p50/p90): " +
                      std::to_string(op.size()));
  res.add("op_us_p50", quantile(op, 0.5), "us");
  res.add("op_us_p90", quantile(op, 0.9), "us");
  res.add("model_vus", model, "vus");
  res.add("setup_s", median(setup_us) * 1e-6, "s");
  res.add("peak_rss_mib", static_cast<double>(peak_rss_kib()) / 1024.0, "MiB");
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Exact per-rank work of one op, summed over its calls.
struct Counts {
  long long rounds = 0, send_blocks = 0, send_bytes = 0, temp_bytes = 0,
            copies = 0, folds = 0, fold_bytes = 0, msgs = 0, packed_bytes = 0,
            unpacked_bytes = 0, local_bytes = 0, delivered_bytes = 0;
};

Counts count(const std::vector<CallLayers>& calls) {
  Counts c;
  for (const CallLayers& k : calls) {
    c.rounds += k.rounds;
    c.send_blocks += k.send_blocks;
    c.send_bytes += k.send_bytes;
    c.temp_bytes += k.temp_bytes;
    c.copies += k.copies;
    c.folds += k.folds;
    c.fold_bytes += k.fold_bytes;
    c.local_bytes += k.local_bytes;
    c.delivered_bytes += k.delivered_bytes;
    for (const auto& phase : k.phases) {
      for (const Msg& m : phase) {
        const long long sb = m.scount > 0 ? static_cast<long long>(
                                                m.stype.size()) * m.scount
                                          : 0;
        const long long rb = m.rcount > 0 ? static_cast<long long>(
                                                m.rtype.size()) * m.rcount
                                          : 0;
        if (m.dest != mpl::PROC_NULL) {
          ++c.msgs;
          c.packed_bytes += sb;
        }
        if (m.src != mpl::PROC_NULL) c.unpacked_bytes += rb;
      }
    }
  }
  return c;
}

/// Replays of the op's layers on every rank; each field is one value per
/// rank (that rank's median per op).
struct Layers {
  Rows key, lookup, bind, compile, execute, pack, unpack, replay;
  std::array<Counts, kRanks> counts;
};

/// Median over repetitions of a collective call, timed per rank; every op
/// starts together after an out-of-band barrier.
template <typename F>
double collective_median_us(const mpl::Comm& world, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < kCollectiveReps; ++i) {
    world.hard_sync();
    const double t0 = now_us();
    f();
    t.push_back(now_us() - t0);
  }
  return median(std::move(t));
}

/// Dense replay of the op's message pattern: per phase, one contiguous
/// irecv/isend pair per message of the same size, then waitall.
void dense_replay(const mpl::Comm& comm, const std::vector<CallLayers>& calls,
                  std::vector<std::vector<std::byte>>& bufs) {
  constexpr int kTag = 4242;
  std::vector<mpl::Request> reqs;
  std::size_t b = 0;
  for (const CallLayers& c : calls) {
    for (const auto& phase : c.phases) {
      reqs.clear();
      for (const Msg& m : phase) {
        if (m.src != mpl::PROC_NULL) {
          auto& buf = bufs[b++];
          reqs.push_back(comm.irecv(buf.data(), static_cast<int>(buf.size()),
                                    mpl::Datatype::of<std::byte>(), m.src,
                                    kTag));
        }
        if (m.dest != mpl::PROC_NULL) {
          auto& buf = bufs[b++];
          reqs.push_back(comm.isend(buf.data(), static_cast<int>(buf.size()),
                                    mpl::Datatype::of<std::byte>(), m.dest,
                                    kTag));
        }
      }
      mpl::wait_all(reqs);
    }
  }
}

void replay_layers(const mpl::Comm& world, Workload& w, Layers& out) {
  const int r = world.rank();
  std::vector<CallLayers> calls = w.layers();
  out.counts[static_cast<std::size_t>(r)] = count(calls);

  double key = 0, lookup = 0, bind = 0, compile = 0, execute = 0;
  for (CallLayers& c : calls) {
    if (c.key) {  // the call goes through the plan layer
      const cartcomm::PlanKey k = c.key();
      key += local_median_us([&] { g_sink += c.key().hash; });
      lookup += local_median_us(
          [&] { g_sink += cartcomm::plan_cache_lookup(k) != nullptr; });
      const cartcomm::CompiledPlan plan = c.compile();
      compile += local_median_us([&] { g_sink += c.compile().rounds(); });
      bind += local_median_us([&] { g_sink += c.bind(plan).rounds(); });
    }
    world.hard_sync();
    execute += collective_median_us(world, c.execute);
  }
  out.key.v[r].push_back(key);
  out.lookup.v[r].push_back(lookup);
  out.compile.v[r].push_back(compile);
  out.bind.v[r].push_back(bind);
  out.execute.v[r].push_back(execute);

  // Datatype engine: pack every outgoing and unpack every incoming message
  // of one op through its own round datatypes.
  std::size_t biggest = 1;
  for (const CallLayers& c : calls) {
    for (const auto& phase : c.phases) {
      for (const Msg& m : phase) {
        if (m.scount > 0) biggest = std::max(biggest, m.stype.pack_size(m.scount));
        if (m.rcount > 0) biggest = std::max(biggest, m.rtype.pack_size(m.rcount));
      }
    }
  }
  std::vector<std::byte> tmp(biggest);
  out.pack.v[r].push_back(local_median_us([&] {
    for (const CallLayers& c : calls) {
      for (const auto& phase : c.phases) {
        for (const Msg& m : phase) {
          if (m.dest != mpl::PROC_NULL) m.stype.pack(m.sbuf, m.scount, tmp.data());
        }
      }
    }
  }));
  out.unpack.v[r].push_back(local_median_us([&] {
    for (const CallLayers& c : calls) {
      for (const auto& phase : c.phases) {
        for (const Msg& m : phase) {
          if (m.src != mpl::PROC_NULL) m.rtype.unpack(tmp.data(), m.rbuf, m.rcount);
        }
      }
    }
  }));

  // Transport: the same messages as dense byte buffers.
  std::vector<std::vector<std::byte>> bufs;
  for (const CallLayers& c : calls) {
    for (const auto& phase : c.phases) {
      for (const Msg& m : phase) {
        if (m.src != mpl::PROC_NULL) bufs.emplace_back(m.rtype.pack_size(m.rcount));
        if (m.dest != mpl::PROC_NULL) bufs.emplace_back(m.stype.pack_size(m.scount));
      }
    }
  }
  world.hard_sync();
  out.replay.v[r].push_back(
      collective_median_us(world, [&] { dense_replay(world, calls, bufs); }));
  world.hard_sync();
}

/// Transport counters of one rank, read through Comm::telemetry().
struct Tel {
  std::uint64_t msgs = 0, bytes = 0, waits = 0, wait_ns = 0, folds = 0;
};

Tel operator-(const Tel& a, const Tel& b) {
  return {a.msgs - b.msgs, a.bytes - b.bytes, a.waits - b.waits,
          a.wait_ns - b.wait_ns, a.folds - b.folds};
}
Tel& operator+=(Tel& a, const Tel& b) {
  a.msgs += b.msgs;
  a.bytes += b.bytes;
  a.waits += b.waits;
  a.wait_ns += b.wait_ns;
  a.folds += b.folds;
  return a;
}

Tel snapshot(const mpl::Comm& world) {
  const telemetry::RankTelemetry* t = world.telemetry();
  if (t == nullptr) return {};
  return {t->msgs_sent(), t->bytes_sent(), t->waits(), t->wait_ns(),
          t->reduce_folds()};
}

double max_over_ranks(const Rows& rows) {
  double m = 0.0;
  for (const auto& r : rows.v) {
    for (const double x : r) m = std::max(m, x);
  }
  return m;
}

/// memcpy bandwidth of one thread over a buffer between the L2 and the LLC
/// size of the machine it runs on; all three sizes are reported with it.
double memcpy_gbps(std::size_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> gbps;
  for (int i = 0; i < 9; ++i) {
    src[static_cast<std::size_t>(i)] = static_cast<char>(i);
    const double t0 = now_us();
    std::memcpy(dst.data(), src.data(), bytes);
    const double us = now_us() - t0;
    g_sink += static_cast<unsigned char>(dst[static_cast<std::size_t>(i)]);
    gbps.push_back(static_cast<double>(bytes) / (us * 1e3));
  }
  return median(std::move(gbps));
}

/// Median 0-byte round trip between two ranks (a separate 2-rank run).
double pingpong_us() {
  std::vector<double> t;
  mpl::run(2, [&](mpl::Comm& world) {
    char b = 0;
    const mpl::Datatype B = mpl::Datatype::of<char>();
    for (int i = 0; i < 2200; ++i) {
      const double t0 = now_us();
      if (world.rank() == 0) {
        world.send(&b, 0, B, 1);
        world.recv(&b, 0, B, 1);
      } else {
        world.recv(&b, 0, B, 0);
        world.send(&b, 0, B, 0);
      }
      if (world.rank() == 0 && i >= 200) t.push_back(now_us() - t0);
    }
  });
  return median(std::move(t));
}

void per_layer(const Args& a, Result& res) {
  constexpr int kPairs = 3;
  const double slice = a.seconds / (2 * kPairs);
  // Untraced and traced launches alternate, so the tracing overhead compares
  // like with like. Traced launches arm telemetry (not trace metrics, which
  // would change the receive path) and the benchmark-side spans; the last
  // one also replays the op's layers.
  Loop plain, traced;
  Layers lay;
  std::array<Tel, kRanks> moved{};  // transport counters of the traced loops
  std::uint64_t hits = 0, misses = 0;
  mpl::RunOptions traced_opts;
  traced_opts.telemetry.enabled = true;
  for (int k = 0; k < kPairs; ++k) {
    const std::uint64_t op0 = static_cast<std::uint64_t>(k) << 32;
    Loop warm, traced_warm;
    mpl::run(kRanks, [&](mpl::Comm& world) {
      auto w = make(a, world);
      w->setup(world);
      std::uint64_t op = op0;
      closed_loop(world, *w, kWarmSeconds, op, warm, false);
      closed_loop(world, *w, slice, op, plain, false);
    });
    mpl::run(
        kRanks,
        [&](mpl::Comm& world) {
          const std::size_t r = static_cast<std::size_t>(world.rank());
          auto w = make(a, world);
          telemetry::PlanCacheTotals t0;
          cold_cache(world);
          if (r == 0) t0 = telemetry::plan_cache_totals();
          world.hard_sync();
          w->setup(world);
          world.hard_sync();
          if (r == 0) misses = telemetry::plan_cache_totals().misses - t0.misses;
          std::uint64_t op = op0;
          closed_loop(world, *w, kWarmSeconds, op, traced_warm, false);
          const Tel before = snapshot(world);
          if (r == 0) t0 = telemetry::plan_cache_totals();
          closed_loop(world, *w, slice, op, traced, true);
          moved[r] += snapshot(world) - before;
          world.hard_sync();
          if (r == 0) hits += telemetry::plan_cache_totals().hits - t0.hits;
          world.hard_sync();
          if (k + 1 == kPairs) replay_layers(world, *w, lay);
        },
        traced_opts);
    res.count_loop(warm);
    res.count_loop(traced_warm);
  }
  res.count_loop(plain);
  res.count_loop(traced);

  const std::size_t ops = traced.ops();
  const double n = static_cast<double>(ops);
  const std::vector<double> op_traced = traced.op_us.max_over_ranks();
  const std::vector<double> op_plain = plain.op_us.max_over_ranks();
  res.notes.push_back("traced ops: " + std::to_string(ops) +
                      ", untraced ops: " + std::to_string(op_plain.size()));
  if (ops < 50 || op_plain.size() < 50) res.fail("fewer than 50 ops per loop");

  // Exact counts: every rank of the torus does the same work, and the
  // transport must have sent exactly the messages the layer view predicts.
  const Counts& c = lay.counts[0];
  double waits = 0.0, wait_us = 0.0;
  for (std::size_t r = 0; r < kRanks; ++r) {
    const Counts& k = lay.counts[r];
    const Tel& d = moved[r];
    if (k.msgs != c.msgs || k.packed_bytes != c.packed_bytes ||
        k.rounds != c.rounds) {
      res.fail("exact counts differ between ranks");
    }
    if (d.msgs != ops * static_cast<std::uint64_t>(k.msgs) ||
        d.bytes != ops * static_cast<std::uint64_t>(k.packed_bytes) ||
        d.folds != ops * static_cast<std::uint64_t>(k.folds)) {
      res.fail("rank " + std::to_string(r) + " sent " + std::to_string(d.msgs) +
               " msgs / " + std::to_string(d.bytes) + " bytes / " +
               std::to_string(d.folds) + " folds in " + std::to_string(ops) +
               " ops; layer view predicts " + std::to_string(k.msgs) + " / " +
               std::to_string(k.packed_bytes) + " / " +
               std::to_string(k.folds) + " per op");
    }
    waits += static_cast<double>(d.waits);
    wait_us += static_cast<double>(d.wait_ns) * 1e-3;
  }

  res.add("stencil.exchange_us", median(traced.exchange_us.max_over_ranks()), "us");
  res.add("stencil.compute_us", median(traced.compute_us.max_over_ranks()), "us");

  res.add("cartcomm.plan.key_us", max_over_ranks(lay.key), "us");
  res.add("cartcomm.plan.lookup_us", max_over_ranks(lay.lookup), "us");
  res.add("cartcomm.plan.bind_us", max_over_ranks(lay.bind), "us");
  res.add("cartcomm.plan.compile_us", max_over_ranks(lay.compile), "us");
  res.add("cartcomm.plan.hits", static_cast<double>(hits) / n, "count");
  res.add("cartcomm.plan.misses", static_cast<double>(misses), "count");

  res.add("cartcomm.schedule.rounds", static_cast<double>(c.rounds), "count");
  res.add("cartcomm.schedule.send_blocks", static_cast<double>(c.send_blocks), "count");
  res.add("cartcomm.schedule.send_bytes", static_cast<double>(c.send_bytes), "B");
  res.add("cartcomm.schedule.temp_bytes", static_cast<double>(c.temp_bytes), "B");
  res.add("cartcomm.schedule.copies", static_cast<double>(c.copies), "count");
  res.add("cartcomm.schedule.execute_us", max_over_ranks(lay.execute), "us");

  res.add("mpl.datatype.pack_us", max_over_ranks(lay.pack), "us");
  res.add("mpl.datatype.unpack_us", max_over_ranks(lay.unpack), "us");
  res.add("mpl.datatype.packed_bytes", static_cast<double>(c.packed_bytes), "B");
  res.add("mpl.datatype.copy_bytes_per_byte",
          static_cast<double>(c.packed_bytes + c.unpacked_bytes + c.local_bytes) /
              static_cast<double>(std::max(c.delivered_bytes, 1LL)),
          "ratio");

  res.add("mpl.transport.msgs", static_cast<double>(c.msgs), "count");
  res.add("mpl.transport.bytes", static_cast<double>(c.packed_bytes), "B");
  res.add("mpl.transport.wait_blocks", waits / (n * kRanks), "count");
  res.add("mpl.transport.wait_us", wait_us / (n * kRanks), "us");
  res.add("mpl.transport.replay_us", max_over_ranks(lay.replay), "us");

  res.add("cartcomm.reduce.folds", static_cast<double>(c.folds), "count");
  res.add("cartcomm.reduce.fold_bytes", static_cast<double>(c.fold_bytes), "B");

  res.add("trace.overhead", median(op_traced) / median(op_plain), "ratio");

  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  constexpr std::size_t kCopyBytes = std::size_t{64} << 20;
  res.add("ref.memcpy_gbps", memcpy_gbps(kCopyBytes), "GB/s");
  res.add("ref.memcpy_buffer_mib", static_cast<double>(kCopyBytes >> 20), "MiB");
  res.add("ref.l2_kib", static_cast<double>(std::max(l2, 0L)) / 1024.0, "KiB");
  res.add("ref.llc_kib", static_cast<double>(std::max(llc, 0L)) / 1024.0, "KiB");
  res.add("ref.pingpong_us", pingpong_us(), "us");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <stencil2d|oneshot5d|bulk3d> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc != 9 || kv.size() != 4 || !kv.count("--workload") ||
      !kv.count("--seed") || !kv.count("--seconds") || !kv.count("--trace")) {
    return usage();
  }
  try {
    a.workload = kv["--workload"];
    a.seed = std::stoull(kv["--seed"]);
    a.seconds = std::stod(kv["--seconds"]);
    const std::string t = kv["--trace"];
    if ((t != "0" && t != "1") || !(a.seconds > 0.0)) return usage();
    a.trace = t == "1";
    static_cast<void>(perfbench::make_workload(a.workload, a.seed, 0));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  } catch (const std::out_of_range&) {
    return usage();
  }

  Result res;
  try {
    if (a.trace) {
      per_layer(a, res);
    } else {
      end_to_end(a, res);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  res.print();
  return 0;
}
