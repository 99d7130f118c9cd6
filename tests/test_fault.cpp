// Fault-injection & resilience layer: spec parsing, decision determinism,
// FIFO preservation under drops/retransmit, chaos soak of the combining
// alltoall under randomized fault plans, bit-identical virtual clocks for
// equal seeds, buffer-pool exhaustion, blocking-wait timeouts, and the
// progress watchdog.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cart_test_util.hpp"
#include "telemetry/telemetry.hpp"

using cartcomm::Algorithm;
using cartcomm::Neighborhood;
using mpl::FaultConfig;
using mpl::FaultPlan;

namespace {

/// Run-based fault tests configure faults programmatically; the ctest
/// harness exports MPL_TIMEOUT_MS (and a fault matrix may export
/// MPL_FAULTS), and the environment would override RunOptions::faults.
class FaultRun : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("MPL_FAULTS");
    unsetenv("MPL_TIMEOUT_MS");
  }
};

using FaultResilience = FaultRun;
using FaultPool = FaultRun;

}  // namespace

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParseFullSpec) {
  const FaultConfig c = FaultConfig::parse(
      "seed=42,drop=0.25,retries=8,backoff=1e-6,backoff_cap=1e-4,"
      "delay=5e-6,delay_prob=0.5,straggler_frac=0.125,straggler=2e-6,"
      "pool_miss=0.75,pool_cap=4,timeout_ms=500,watchdog_ms=1000");
  EXPECT_EQ(c.seed, 42u);
  EXPECT_DOUBLE_EQ(c.drop, 0.25);
  EXPECT_EQ(c.max_retries, 8);
  EXPECT_DOUBLE_EQ(c.backoff, 1e-6);
  EXPECT_DOUBLE_EQ(c.backoff_cap, 1e-4);
  EXPECT_DOUBLE_EQ(c.delay, 5e-6);
  EXPECT_DOUBLE_EQ(c.delay_prob, 0.5);
  EXPECT_DOUBLE_EQ(c.straggler_frac, 0.125);
  EXPECT_DOUBLE_EQ(c.straggler, 2e-6);
  EXPECT_DOUBLE_EQ(c.pool_miss, 0.75);
  EXPECT_EQ(c.pool_cap, 4u);
  EXPECT_DOUBLE_EQ(c.timeout_ms, 500.0);
  EXPECT_DOUBLE_EQ(c.watchdog_ms, 1000.0);
  EXPECT_TRUE(c.injecting());
}

TEST(FaultSpec, MergeKeepsUnmentionedKeys) {
  FaultConfig c;
  c.drop = 0.5;
  c.timeout_ms = 123.0;
  c.merge("seed=9,delay=1e-6,delay_prob=1");
  EXPECT_EQ(c.seed, 9u);
  EXPECT_DOUBLE_EQ(c.drop, 0.5);        // untouched by the merge
  EXPECT_DOUBLE_EQ(c.timeout_ms, 123.0);
  EXPECT_DOUBLE_EQ(c.delay, 1e-6);
  EXPECT_DOUBLE_EQ(c.delay_prob, 1.0);
}

TEST(FaultSpec, WhitespaceAndEmptyEntriesTolerated) {
  const FaultConfig c = FaultConfig::parse(" drop = 0.1 , , seed = 3 ");
  EXPECT_DOUBLE_EQ(c.drop, 0.1);
  EXPECT_EQ(c.seed, 3u);
}

TEST(FaultSpec, UnknownKeyThrows) {
  EXPECT_THROW(FaultConfig::parse("drp=0.1"), mpl::Error);
  EXPECT_THROW(FaultConfig::parse("drop"), mpl::Error);
  EXPECT_THROW(FaultConfig::parse("drop=abc"), mpl::Error);
}

TEST(FaultSpec, DefaultIsInert) {
  const FaultConfig c;
  EXPECT_FALSE(c.injecting());
  FaultPlan plan;
  plan.configure(c, 8);
  EXPECT_FALSE(plan.any_armed());
}

// ---------------------------------------------------------------------------
// Decision determinism
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, DecisionsArePureFunctionsOfSeed) {
  FaultConfig c;
  c.seed = 7;
  c.drop = 0.3;
  c.delay = 1e-5;
  c.delay_prob = 0.4;
  c.straggler_frac = 0.25;
  c.straggler = 1e-6;
  c.pool_miss = 0.2;
  FaultPlan a, b;
  a.configure(c, 16);
  b.configure(c, 16);
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(a.is_straggler(r), b.is_straggler(r));
    for (std::uint64_t s = 0; s < 64; ++s) {
      EXPECT_EQ(a.drop(r, s, 0), b.drop(r, s, 0));
      EXPECT_EQ(a.drop(r, s, 3), b.drop(r, s, 3));
      EXPECT_DOUBLE_EQ(a.delay(r, s), b.delay(r, s));
      EXPECT_EQ(a.pool_forced_miss(r, s), b.pool_forced_miss(r, s));
    }
  }
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  FaultConfig c;
  c.drop = 0.5;
  c.seed = 1;
  FaultPlan a;
  a.configure(c, 4);
  c.seed = 2;
  FaultPlan b;
  b.configure(c, 4);
  int differs = 0;
  for (std::uint64_t s = 0; s < 256; ++s) {
    differs += a.drop(0, s, 0) != b.drop(0, s, 0);
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlanTest, BackoffIsBoundedExponential) {
  FaultConfig c;
  c.backoff = 1e-6;
  c.backoff_cap = 8e-6;
  FaultPlan p;
  p.configure(c, 2);
  EXPECT_DOUBLE_EQ(p.backoff(1), 1e-6);
  EXPECT_DOUBLE_EQ(p.backoff(2), 2e-6);
  EXPECT_DOUBLE_EQ(p.backoff(3), 4e-6);
  EXPECT_DOUBLE_EQ(p.backoff(4), 8e-6);
  EXPECT_DOUBLE_EQ(p.backoff(20), 8e-6);  // capped
}

TEST(FaultPlanTest, DropRateRoughlyMatchesProbability) {
  FaultConfig c;
  c.drop = 0.25;
  FaultPlan p;
  p.configure(c, 2);
  int dropped = 0;
  const int n = 20000;
  for (std::uint64_t s = 0; s < n; ++s) dropped += p.drop(0, s, 0);
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.25, 0.02);
}

// ---------------------------------------------------------------------------
// FIFO under drops + retransmit
// ---------------------------------------------------------------------------

TEST_F(FaultRun, FifoPreservedUnderDrops) {
  mpl::RunOptions opts;
  opts.faults.seed = 11;
  opts.faults.drop = 0.2;
  constexpr int kMsgs = 500;
  mpl::run(
      2,
      [](mpl::Comm& world) {
        const mpl::Datatype ty = mpl::Datatype::of<int>();
        if (world.rank() == 0) {
          for (int i = 0; i < kMsgs; ++i) world.send(&i, 1, ty, 1, 5);
        } else {
          for (int i = 0; i < kMsgs; ++i) {
            int got = -1;
            world.recv(&got, 1, ty, 0, 5);
            ASSERT_EQ(got, i) << "retransmit broke FIFO at message " << i;
          }
        }
      },
      opts);
}

TEST_F(FaultRun, CertainDropExhaustsRetriesWithError) {
  mpl::RunOptions opts;
  opts.faults.drop = 1.0;       // every attempt dropped
  opts.faults.max_retries = 3;  // give up quickly
  try {
    mpl::run(
        2,
        [](mpl::Comm& world) {
          int v = 0;
          if (world.rank() == 0) {
            world.send(&v, 1, mpl::Datatype::of<int>(), 1, 0);
          } else {
            world.recv(&v, 1, mpl::Datatype::of<int>(), 0, 0);
          }
        },
        opts);
    FAIL() << "expected mpl::Error";
  } catch (const mpl::Error& e) {
    EXPECT_NE(std::string(e.what()).find("dropped after"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Chaos soak: combining alltoall under randomized fault plans
// ---------------------------------------------------------------------------

namespace {

/// One faulted alltoall on a 3x3 torus with the Moore neighborhood,
/// checked element-exact against the oracle. Returns the fault counters
/// (retries + delays) the alltoall itself saw, summed over all ranks: the
/// delta of each rank's Cartesian-communicator block around the call, so
/// faults on the creation traffic or on world do not count.
double chaos_alltoall(const FaultConfig& faults, const std::string& metrics) {
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  opts.faults = faults;
  opts.telemetry.metrics_path = metrics;
  double events = 0.0;
  mpl::run(
      9,
      [&events](mpl::Comm& world) {
        const Neighborhood nb = Neighborhood::moore(2);
        const std::vector<int> dims{3, 3};
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        const int t = nb.count();
        const int m = 4;
        std::vector<int> sb(static_cast<std::size_t>(t) * m);
        std::vector<int> rb(static_cast<std::size_t>(t) * m, -777);
        for (int i = 0; i < t; ++i) {
          for (int e = 0; e < m; ++e) {
            sb[static_cast<std::size_t>(i) * m + e] =
                carttest::pattern(world.rank(), i, e);
          }
        }
        const telemetry::CommCounters* ctr = cc.comm().counters();
        ASSERT_NE(ctr, nullptr);
        auto injected = [ctr] {
          return (*ctr)[telemetry::Count::fault_retries] +
                 (*ctr)[telemetry::Count::fault_delays];
        };
        const std::uint64_t before = injected();
        cartcomm::alltoall(sb.data(), m, mpl::Datatype::of<int>(), rb.data(),
                           m, mpl::Datatype::of<int>(), cc,
                           Algorithm::combining);
        const auto mine = static_cast<double>(injected() - before);
        for (int i = 0; i < t; ++i) {
          const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
          for (int e = 0; e < m; ++e) {
            ASSERT_EQ(rb[static_cast<std::size_t>(i) * m + e],
                      carttest::pattern(src, i, e))
                << "rank " << world.rank() << " block " << i << " elem " << e;
          }
        }
        const double total =
            mpl::allreduce(mine, mpl::ReduceOp::sum<double>(), world);
        if (world.rank() == 0) events = total;
      },
      opts);
  return events;
}

}  // namespace

TEST_F(FaultRun, ChaosSoakAlltoallStaysCorrect) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    FaultConfig f;
    f.seed = seed;
    f.drop = 0.15;
    f.delay = 2e-6;
    f.delay_prob = 0.3;
    f.straggler_frac = 0.25;
    f.straggler = 1e-6;
    const std::string metrics = ::testing::TempDir() + "fault_metrics.json";
    const double events = chaos_alltoall(f, metrics);
    std::remove(metrics.c_str());
    // Deterministic given the seed: this plan provably injects something
    // into the collective itself.
    EXPECT_GT(events, 0.0);
  }
}

TEST_F(FaultRun, SameSeedBitIdenticalVclocks) {
  FaultConfig f;
  f.seed = 99;
  f.drop = 0.2;
  f.delay = 3e-6;
  f.delay_prob = 0.5;
  f.straggler_frac = 0.5;
  f.straggler = 2e-6;

  auto faulted_clocks = [&f]() {
    std::vector<double> clocks(9, -1.0);
    std::string dump;
    mpl::RunOptions opts;
    opts.net = mpl::NetConfig::omnipath();
    opts.faults = f;
    mpl::run(
        9,
        [&clocks, &dump](mpl::Comm& world) {
          const Neighborhood nb = Neighborhood::moore(2);
          const std::vector<int> dims{3, 3};
          auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
          const int t = nb.count();
          std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
          std::vector<int> rb(static_cast<std::size_t>(t), -1);
          std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
          std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
          for (int i = 0; i < t; ++i) {
            sends[static_cast<std::size_t>(i)] = {
                &sb[static_cast<std::size_t>(i)], 1, mpl::Datatype::of<int>()};
            recvs[static_cast<std::size_t>(i)] = {
                &rb[static_cast<std::size_t>(i)], 1, mpl::Datatype::of<int>()};
          }
          cartcomm::Schedule s =
              cartcomm::build_alltoall_schedule(cc, sends, recvs);
          s.execute(cc.comm());
          clocks[static_cast<std::size_t>(world.rank())] = world.vclock();
          if (world.rank() == 0) dump = s.dump();
        },
        opts);
    return std::make_pair(clocks, dump);
  };

  const auto [clocks1, dump1] = faulted_clocks();
  const auto [clocks2, dump2] = faulted_clocks();
  for (int r = 0; r < 9; ++r) {
    // Bit-identical, not approximately equal: the fault decisions are pure
    // functions of (seed, rank, sequence), never of thread interleaving.
    EXPECT_EQ(clocks1[static_cast<std::size_t>(r)],
              clocks2[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_GE(clocks1[static_cast<std::size_t>(r)], 0.0);
  }
  EXPECT_EQ(dump1, dump2);
  EXPECT_FALSE(dump1.empty());
}

TEST_F(FaultRun, DirectAndStagedDeliveryReplayBitIdentical) {
  // Drops, delays and stragglers over a ring exchange whose even rounds
  // post every receive before the sends (direct delivery) and whose odd
  // rounds send first (staged delivery). The virtual clocks are a pure
  // function of the seed whichever path each message took.
  FaultConfig f;
  f.seed = 5;
  f.drop = 0.25;
  f.delay = 4e-6;
  f.delay_prob = 0.5;
  f.straggler_frac = 0.5;
  f.straggler = 1e-6;
  constexpr int kRanks = 4;
  constexpr int kRounds = 8;
  constexpr int kInts = 32;

  auto faulted_clocks = [&f]() {
    std::vector<double> clocks(kRanks, -1.0);
    std::vector<std::uint64_t> staged(kRanks, 0);
    mpl::RunOptions opts;
    opts.net = mpl::NetConfig::omnipath();
    opts.faults = f;
    opts.telemetry.enabled = true;
    mpl::run(
        kRanks,
        [&](mpl::Comm& c) {
          const mpl::Datatype kInt = mpl::Datatype::of<int>();
          const int right = (c.rank() + 1) % kRanks;
          const int left = (c.rank() + kRanks - 1) % kRanks;
          std::vector<int> out(kInts), in(kInts, -1);
          for (int round = 0; round < kRounds; ++round) {
            for (int i = 0; i < kInts; ++i) {
              out[static_cast<std::size_t>(i)] = c.rank() * 1000 + round + i;
            }
            mpl::Request r;
            if (round % 2 == 0) {
              r = c.irecv(in.data(), kInts, kInt, left, round);
              c.hard_sync();
              c.send(out.data(), kInts, kInt, right, round);
            } else {
              c.send(out.data(), kInts, kInt, right, round);
              c.hard_sync();
              r = c.irecv(in.data(), kInts, kInt, left, round);
            }
            r.wait();
            ASSERT_EQ(in[1], left * 1000 + round + 1);
          }
          clocks[static_cast<std::size_t>(c.rank())] = c.vclock();
          staged[static_cast<std::size_t>(c.rank())] =
              c.telemetry()->staged_bytes();
        },
        opts);
    for (const std::uint64_t b : staged) {
      EXPECT_EQ(b, (kRounds / 2) * kInts * sizeof(int)) << "odd rounds only";
    }
    return clocks;
  };

  const std::vector<double> clocks1 = faulted_clocks();
  const std::vector<double> clocks2 = faulted_clocks();
  EXPECT_EQ(clocks1, clocks2);
  for (const double v : clocks1) EXPECT_GT(v, 0.0);
}

// ---------------------------------------------------------------------------
// Buffer-pool exhaustion
// ---------------------------------------------------------------------------

TEST_F(FaultPool, ExhaustionKeepsTransportCorrect) {
  mpl::RunOptions opts;
  opts.faults.pool_miss = 1.0;  // every acquire misses the freelist
  opts.faults.pool_cap = 0;     // nothing is ever recycled
  mpl::run(
      4,
      [](mpl::Comm& world) {
        const mpl::Datatype ty = mpl::Datatype::of<int>();
        const int partner = world.rank() ^ 1;
        for (int i = 0; i < 50; ++i) {
          const int v = world.rank() * 1000 + i;
          int got = -1;
          world.sendrecv(&v, 1, ty, partner, 3, &got, 1, ty, partner, 3);
          ASSERT_EQ(got, partner * 1000 + i);
        }
        const auto stats = mpl::this_proc()->pool().stats();
        EXPECT_GT(stats.forced_misses, 0u);
        EXPECT_EQ(stats.hits, 0u);      // freelist never serves under miss=1
        EXPECT_EQ(stats.recycled, 0u);  // depth cap 0 drops every return
      },
      opts);
}

// ---------------------------------------------------------------------------
// Timeouts & watchdog
// ---------------------------------------------------------------------------

TEST_F(FaultResilience, WedgedRecvTimesOutWithPendingDump) {
  const auto t0 = std::chrono::steady_clock::now();
  mpl::RunOptions opts;
  opts.faults.timeout_ms = 250;
  try {
    mpl::run(
        2,
        [](mpl::Comm& world) {
          if (world.rank() == 0) {
            int v = -1;
            world.recv(&v, 1, mpl::Datatype::of<int>(), 1, 9);  // never sent
          }
        },
        opts);
    FAIL() << "expected mpl::TimeoutError";
  } catch (const mpl::TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    // The rank building the dump has already left its wait, so it reports
    // as running — with the unsatisfied receive still posted.
    EXPECT_NE(e.pending_dump().find("posted recvs: [ctx=0 src=1 tag=9]"),
              std::string::npos)
        << e.pending_dump();
    EXPECT_NE(e.pending_dump().find("rank 1: exited"), std::string::npos)
        << e.pending_dump();
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(secs, 5.0) << "timeout did not fail fast";
}

TEST_F(FaultResilience, WatchdogReportsWedgedCollective) {
  const auto t0 = std::chrono::steady_clock::now();
  mpl::RunOptions opts;
  opts.faults.watchdog_ms = 300;
  try {
    mpl::run(
        4,
        [](mpl::Comm& world) {
          const Neighborhood nb = Neighborhood::von_neumann(2);
          const std::vector<int> dims{2, 2};
          auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
          if (world.rank() == 0) return;  // wedge: rank 0 skips the collective
          const int t = nb.count();
          std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
          std::vector<int> rb(static_cast<std::size_t>(t), -1);
          cartcomm::alltoall(sb.data(), 1, mpl::Datatype::of<int>(), rb.data(),
                             1, mpl::Datatype::of<int>(), cc,
                             Algorithm::combining);
        },
        opts);
    FAIL() << "expected mpl::TimeoutError from the watchdog";
  } catch (const mpl::TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    // The stall report names the schedule point each live rank is stuck at.
    EXPECT_NE(e.pending_dump().find("schedule point: phase"),
              std::string::npos)
        << e.pending_dump();
    EXPECT_NE(e.pending_dump().find("exited"), std::string::npos)
        << e.pending_dump();
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(secs, 10.0) << "watchdog did not fire promptly";
}

TEST_F(FaultResilience, EnvSpecOverridesProgrammaticConfig) {
  setenv("MPL_FAULTS", "drop=1.0,retries=2", 1);
  mpl::RunOptions opts;
  opts.faults.drop = 0.0;  // env must win
  bool threw = false;
  try {
    mpl::run(
        2,
        [](mpl::Comm& world) {
          int v = 0;
          if (world.rank() == 0) {
            world.send(&v, 1, mpl::Datatype::of<int>(), 1, 0);
          } else {
            world.recv(&v, 1, mpl::Datatype::of<int>(), 0, 0);
          }
        },
        opts);
  } catch (const mpl::Error&) {
    threw = true;
  }
  unsetenv("MPL_FAULTS");
  EXPECT_TRUE(threw) << "MPL_FAULTS did not override RunOptions::faults";
}
