// Transport wall-clock benchmark (model off): messages/second through the
// mpl point-to-point layer itself, not the LogGP virtual clock. This is the
// repo's only benchmark where host wall time is the measured quantity — it
// exists to keep the simulated-rank transport (mailbox matching, delivery,
// buffer management, wakeups) fast enough that large-p virtual-clock
// reproductions are not bottlenecked by the simulator.
//
// Workloads, each swept over p in {16, 64, 256} simulated ranks:
//   pingpong  p/2 disjoint pairs doing blocking round trips (latency path)
//   fanin     p-1 senders flooding rank 0 under a credit window,
//             received with ANY_SOURCE (the mailbox-contention path:
//             one mutex, many senders)
//   halo2d    2D 5-point persistent-schedule alltoall on a sqrt(p) x
//             sqrt(p) torus (the schedule-executor path: derived
//             datatypes, test/wait polling)
//   planhit   the same halo exchange through the blocking non-persistent
//             cartcomm::alltoall with a warm plan cache (the cache-hit
//             fast path: the communicator's one-shot slot serves the
//             bound schedule, which must stay comparable to the
//             persistent handle above)
//
// Emits BENCH_transport.json ({"kind": "bench-transport"}) for
// tools/bench_to_csv.py and the CI transport-bench smoke job.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/mpl.hpp"

namespace {

const mpl::Datatype kInt = mpl::Datatype::of<int>();

struct Result {
  std::string workload;
  int p = 0;
  long long messages = 0;
  long long bytes = 0;
  double seconds = 0.0;  ///< best-of-reps (headline, matches `min`)
  double min = 0.0;      ///< fastest repetition
  double median = 0.0;   ///< median repetition
  double stddev = 0.0;   ///< sample stddev across repetitions

  [[nodiscard]] double msgs_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(messages) / seconds : 0.0;
  }
  [[nodiscard]] double mb_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
  }

  /// Fill seconds/min/median/stddev from the per-repetition samples.
  void set_samples(std::vector<double> xs) {
    if (xs.empty()) return;
    std::sort(xs.begin(), xs.end());
    min = xs.front();
    seconds = min;
    const std::size_t k = xs.size();
    median = (k % 2) ? xs[k / 2] : 0.5 * (xs[k / 2 - 1] + xs[k / 2]);
    if (k > 1) {
      double mean = 0.0;
      for (double x : xs) mean += x;
      mean /= static_cast<double>(k);
      double var = 0.0;
      for (double x : xs) var += (x - mean) * (x - mean);
      stddev = std::sqrt(var / static_cast<double>(k - 1));
    }
  }
};

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

// Best-of-reps wall time of one collective-style run: every rank enters,
// rank 0's wall time over the synchronized region is the sample.
template <typename F>
double timed_region(const mpl::Comm& world, F&& body) {
  world.hard_sync();
  const double t0 = now_sec();
  body();
  world.hard_sync();
  return now_sec() - t0;
}

// -- ping-pong ----------------------------------------------------------------

Result run_pingpong(int p, int iters, int reps, const mpl::RunOptions& opts) {
  Result res;
  res.workload = "pingpong";
  res.p = p;
  res.messages = 2LL * iters * (p / 2);
  res.bytes = res.messages * 16 * static_cast<long long>(sizeof(int));
  std::vector<double> samples;
  mpl::run(p, [&](mpl::Comm& world) {
    std::vector<int> out(16, world.rank()), in(16, -1);
    const int half = world.size() / 2;
    const int peer = world.rank() < half ? world.rank() + half
                                         : world.rank() - half;
    for (int rep = -1; rep < reps; ++rep) {
      const double t = timed_region(world, [&] {
        if (world.rank() < half) {
          for (int i = 0; i < iters; ++i) {
            world.send(out.data(), 16, kInt, peer, 7);
            world.recv(in.data(), 16, kInt, peer, 7);
          }
        } else {
          for (int i = 0; i < iters; ++i) {
            world.recv(in.data(), 16, kInt, peer, 7);
            world.send(out.data(), 16, kInt, peer, 7);
          }
        }
      });
      if (world.rank() == 0 && rep >= 0) samples.push_back(t);
    }
  }, opts);
  res.set_samples(std::move(samples));
  return res;
}

// -- fan-in -------------------------------------------------------------------

Result run_fanin(int p, int iters, int reps, const mpl::RunOptions& opts) {
  // Credit-based flow control, as in OSU's message-rate benchmark: each
  // sender puts at most kWindow messages in flight before waiting for an
  // ack from the root. Without it the eager transport lets p-1 unthrottled
  // senders queue the entire run in the root's mailbox and the benchmark
  // degenerates into measuring memory-subsystem thrash on the megabytes of
  // queued state instead of per-message transport cost.
  constexpr int kWindow = 64;
  Result res;
  res.workload = "fanin";
  res.p = p;
  res.messages = static_cast<long long>(iters) * (p - 1);
  res.bytes = res.messages * 16 * static_cast<long long>(sizeof(int));
  std::vector<double> samples;
  mpl::run(p, [&](mpl::Comm& world) {
    std::vector<int> buf(16, world.rank());
    const long long total = static_cast<long long>(iters) * (world.size() - 1);
    for (int rep = -1; rep < reps; ++rep) {
      const double t = timed_region(world, [&] {
        if (world.rank() == 0) {
          std::vector<int> pending(static_cast<std::size_t>(world.size()), 0);
          int ack = 0;
          for (long long i = 0; i < total; ++i) {
            const mpl::Status st =
                world.recv(buf.data(), 16, kInt, mpl::ANY_SOURCE, 3);
            auto& credits = pending[static_cast<std::size_t>(st.source)];
            if (++credits == kWindow) {
              credits = 0;
              world.send(&ack, 1, kInt, st.source, 4);
            }
          }
        } else {
          int ack = 0;
          for (int i = 0; i < iters; ++i) {
            world.send(buf.data(), 16, kInt, 0, 3);
            if ((i + 1) % kWindow == 0) world.recv(&ack, 1, kInt, 0, 4);
          }
        }
      });
      if (world.rank() == 0 && rep >= 0) samples.push_back(t);
    }
  }, opts);
  res.set_samples(std::move(samples));
  return res;
}

// -- 2D 5-point persistent schedule -------------------------------------------

Result run_halo2d(int p, int iters, int reps, const mpl::RunOptions& opts) {
  int side = 1;
  while ((side + 1) * (side + 1) <= p) ++side;
  const int grid_p = side * side;
  Result res;
  res.workload = "halo2d";
  res.p = grid_p;
  long long msgs = 0, bytes = 0;
  std::vector<double> samples;
  mpl::run(grid_p, [&](mpl::Comm& world) {
    const std::vector<int> dims{side, side};
    const auto nb = cartcomm::Neighborhood::von_neumann(2, false);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const int m = 32;  // ints per neighbor block
    std::vector<int> sb(static_cast<std::size_t>(t) * m, world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t) * m, -1);
    auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                      cc, cartcomm::Algorithm::combining);
    for (int rep = -1; rep < reps; ++rep) {
      const double tsec = timed_region(world, [&] {
        for (int i = 0; i < iters; ++i) op.execute();
      });
      if (world.rank() == 0 && rep >= 0) samples.push_back(tsec);
    }
    if (world.rank() == 0) {
      // Every rank sends t blocks of m ints per execution (coalesced
      // rounds still move the same payload; count logical messages as
      // schedule rounds with a non-empty send).
      msgs = static_cast<long long>(grid_p) * t * iters;
      bytes = msgs * m * static_cast<long long>(sizeof(int));
    }
  }, opts);
  res.messages = msgs;
  res.bytes = bytes;
  res.set_samples(std::move(samples));
  return res;
}

// -- 2D 5-point cache-hit non-persistent alltoall -----------------------------

Result run_planhit(int p, int iters, int reps, const mpl::RunOptions& opts) {
  int side = 1;
  while ((side + 1) * (side + 1) <= p) ++side;
  const int grid_p = side * side;
  Result res;
  res.workload = "planhit";
  res.p = grid_p;
  long long msgs = 0, bytes = 0;
  std::vector<double> samples;
  mpl::run(grid_p, [&](mpl::Comm& world) {
    const std::vector<int> dims{side, side};
    const auto nb = cartcomm::Neighborhood::von_neumann(2, false);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const int m = 32;  // ints per neighbor block
    std::vector<int> sb(static_cast<std::size_t>(t) * m, world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t) * m, -1);
    cartcomm::plan_cache_set_enabled(true);
    for (int rep = -1; rep < reps; ++rep) {
      const double tsec = timed_region(world, [&] {
        for (int i = 0; i < iters; ++i) {
          cartcomm::alltoall(sb.data(), m, kInt, rb.data(), m, kInt, cc,
                             cartcomm::Algorithm::combining);
        }
      });
      if (world.rank() == 0 && rep >= 0) samples.push_back(tsec);
    }
    if (world.rank() == 0) {
      msgs = static_cast<long long>(grid_p) * t * iters;
      bytes = msgs * m * static_cast<long long>(sizeof(int));
    }
  }, opts);
  res.messages = msgs;
  res.bytes = bytes;
  res.set_samples(std::move(samples));
  return res;
}

// -- driver -------------------------------------------------------------------

bool write_json(const std::string& path, const std::vector<Result>& results,
                bool telemetry) {
  if (path.empty()) return true;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << "{\n  \"kind\": \"bench-transport\",\n  \"telemetry\": "
     << (telemetry ? "true" : "false") << ",\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char line[384];
    std::snprintf(line, sizeof(line),
                  "%s\n    {\"workload\": \"%s\", \"p\": %d, "
                  "\"messages\": %lld, \"bytes\": %lld, \"seconds\": %.6g, "
                  "\"min\": %.6g, \"median\": %.6g, \"stddev\": %.6g, "
                  "\"msgs_per_sec\": %.6g, \"mb_per_sec\": %.6g}",
                  i ? "," : "", r.workload.c_str(), r.p, r.messages, r.bytes,
                  r.seconds, r.min, r.median, r.stddev, r.msgs_per_sec(),
                  r.mb_per_sec());
    os << line;
  }
  os << "\n  ]\n}\n";
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_transport.json";
  std::string only_workload;
  bool quick = false;
  bool telemetry = false;
  int reps_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--telemetry") {
      // Arm the production-telemetry layer (histograms + contention
      // probes) for every run, so the CI perf gate can assert its
      // overhead against a plain run of the same binary.
      telemetry = true;
    } else if (arg.rfind("--workload=", 0) == 0) {
      // Restrict the sweep to one workload (the overhead gate measures
      // only fanin, with extra reps — no point paying for the others).
      only_workload = arg.substr(std::strlen("--workload="));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps_override = std::atoi(arg.c_str() + std::strlen("--reps="));
      if (reps_override <= 0) {
        std::fprintf(stderr, "bad --reps value in %s\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg == "--no-json") {
      json_path.clear();
    } else {
      std::fprintf(stderr,
                   "unknown option %s\n"
                   "usage: bench_transport [--quick] [--telemetry] "
                   "[--workload=NAME] [--reps=N] [--json=PATH|--no-json]\n",
                   arg.c_str());
      return 2;
    }
  }
  mpl::RunOptions opts;
  opts.telemetry.enabled = telemetry;
  const auto want = [&](const char* w) {
    return only_workload.empty() || only_workload == w;
  };

  const std::vector<int> ps = quick ? std::vector<int>{16, 64}
                                    : std::vector<int>{16, 64, 256};
  // Best-of-N: the host has few cores, so any single rep can absorb a
  // scheduler hiccup; the minimum over several reps is far more stable.
  // The overhead gate compares medians instead and passes --reps to get
  // enough samples for the median to shed single hiccups too.
  const int reps = reps_override > 0 ? reps_override : (quick ? 2 : 6);
  std::vector<Result> results;
  std::printf("Transport wall-clock benchmark (model off)%s%s\n",
              quick ? " [quick]" : "", telemetry ? " [telemetry]" : "");
  for (const int p : ps) {
    // Scale iteration counts down with p so total message counts (and the
    // oversubscription of host cores) stay comparable across the sweep.
    const int pingpong_iters = (quick ? 2000 : 8000) / (p / 16);
    // Fan-in drains in bulk, so per-message cost is tiny; use 4x the
    // message volume to keep each sample well above scheduler noise.
    const int fanin_iters = (quick ? 2000 : 16000) / (p / 16);
    const int halo_iters = (quick ? 50 : 200) / (p / 16);
    std::vector<Result> batch;
    if (want("pingpong"))
      batch.push_back(run_pingpong(p, pingpong_iters, reps, opts));
    if (want("fanin")) batch.push_back(run_fanin(p, fanin_iters, reps, opts));
    if (want("halo2d")) batch.push_back(run_halo2d(p, halo_iters, reps, opts));
    if (want("planhit"))
      batch.push_back(run_planhit(p, halo_iters, reps, opts));
    for (const Result& r : batch) {
      std::printf("p=%4d %-9s %10lld msgs in %8.3f s  -> %12.0f msgs/s, "
                  "%8.1f MB/s\n",
                  r.p, r.workload.c_str(), r.messages, r.seconds,
                  r.msgs_per_sec(), r.mb_per_sec());
      results.push_back(r);
    }
  }
  return write_json(json_path, results, telemetry) ? 0 : 1;
}
