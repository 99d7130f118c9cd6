// Production-telemetry layer: log-linear histogram bucket math and
// single-writer/concurrent-reader discipline, lock-contention probe
// counters (direct two-thread contention and a real two-rank mailbox
// workload), flight-recorder ring semantics and its appearance in
// watchdog stall reports, the OpenMetrics exporter, Comm::telemetry()
// counters, and the lock-level name cross-check against checked.hpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cart_test_util.hpp"
#include "mpl/checked.hpp"
#include "telemetry/contention.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/openmetrics.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/json.hpp"

using telemetry::FlightKind;
using telemetry::FlightRecorder;
using telemetry::Histogram;

namespace {

/// Telemetry tests configure everything programmatically; scrub the env
/// knobs that would overlay RunOptions (the ctest harness exports
/// MPL_TIMEOUT_MS, and a matrix job may export the telemetry ones).
class TelemetryRun : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("MPL_TELEMETRY");
    unsetenv("MPL_OPENMETRICS");
    unsetenv("MPL_OPENMETRICS_PERIOD_MS");
    unsetenv("MPL_FAULTS");
    unsetenv("MPL_TIMEOUT_MS");
  }
};

using TelemetryStall = TelemetryRun;
using TelemetryExport = TelemetryRun;

const mpl::Datatype kInt = mpl::Datatype::of<int>();

}  // namespace

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(TelemetryHistogram, SmallValuesAreExactBuckets) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_upper(v), v);
  }
}

TEST(TelemetryHistogram, BucketBoundaries) {
  // First bucket of the first split octave: values 8..8 (stride 1).
  EXPECT_EQ(Histogram::bucket_index(8), 8u);
  EXPECT_EQ(Histogram::bucket_upper(8), 8u);
  EXPECT_EQ(Histogram::bucket_index(15), 15u);
  EXPECT_EQ(Histogram::bucket_upper(15), 15u);
  // Octave [16,32): stride 2, so 16 and 17 share a bucket.
  EXPECT_EQ(Histogram::bucket_index(16), Histogram::bucket_index(17));
  EXPECT_EQ(Histogram::bucket_upper(Histogram::bucket_index(16)), 17u);
  EXPECT_NE(Histogram::bucket_index(17), Histogram::bucket_index(18));

  // Every value lands in a bucket whose range contains it, and indices
  // are monotone in the value.
  std::vector<std::uint64_t> probes;
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    probes.push_back(p);
    probes.push_back(p - 1);
    probes.push_back(p + 1);
    probes.push_back(p + p / 3);
  }
  probes.push_back(std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t v : probes) {
    const std::size_t i = Histogram::bucket_index(v);
    ASSERT_LT(i, Histogram::kBuckets) << v;
    EXPECT_LE(v, Histogram::bucket_upper(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(i - 1)) << v;
    }
  }
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_GT(Histogram::bucket_upper(i), Histogram::bucket_upper(i - 1));
  }
}

TEST(TelemetryHistogram, OverflowBucketCatchesMax) {
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Histogram::bucket_index(top), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBuckets - 1), top);
  Histogram h;
  h.record(top);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.max(), top);
}

TEST(TelemetryHistogram, RecordAggregatesAndQuantiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-linear quantization error is bounded by 2^-kSubBits = 12.5%.
  const std::uint64_t p50 = h.quantile(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 563u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(TelemetryHistogram, MergeIsDeterministicAcrossThreadInterleavings) {
  // Each rank thread records into its own histogram (the runtime's
  // single-writer discipline); the merged result must be bucket-for-bucket
  // identical to a serial reference regardless of scheduling.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  const auto value = [](int t, int i) {
    return static_cast<std::uint64_t>((t * 977 + i * 31) % 100000 + 1);
  };

  Histogram reference;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) reference.record(value(t, i));
  }

  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Histogram> per_thread(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&per_thread, t, value] {
        for (int i = 0; i < kPerThread; ++i) {
          per_thread[static_cast<std::size_t>(t)].record(value(t, i));
        }
      });
    }
    for (auto& th : threads) th.join();
    Histogram merged;
    for (const Histogram& h : per_thread) merged.merge(h);
    ASSERT_EQ(merged.count(), reference.count());
    ASSERT_EQ(merged.sum(), reference.sum());
    ASSERT_EQ(merged.min(), reference.min());
    ASSERT_EQ(merged.max(), reference.max());
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      ASSERT_EQ(merged.bucket_count(i), reference.bucket_count(i)) << i;
    }
  }
}

TEST(TelemetryHistogram, ConcurrentReadersSeeConsistentSnapshots) {
  // One writer, concurrent readers (the exporter's periodic-snapshot
  // pattern): readers must never observe count() exceeding what the
  // writer has published, and the test must be data-race free under TSan.
  Histogram h;
  constexpr std::uint64_t kWrites = 200000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t c = h.count();
      EXPECT_LE(c, kWrites);
      std::uint64_t from_buckets = 0;
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        from_buckets += h.bucket_count(i);
      }
      EXPECT_LE(from_buckets, kWrites);
    }
  });
  for (std::uint64_t v = 0; v < kWrites; ++v) h.record(v % 4096);
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(h.count(), kWrites);
}

// ---------------------------------------------------------------------------
// Lock-contention probes
// ---------------------------------------------------------------------------

TEST(TelemetryContention, LevelNamesMatchCheckedHpp) {
  using mpl::detail::LockLevel;
  const std::pair<LockLevel, const char*> expected[] = {
      {LockLevel::comm_registry, "comm_registry"},
      {LockLevel::oob_barrier, "oob_barrier"},
      {LockLevel::mailbox, "mailbox"},
      {LockLevel::buffer_pool, "buffer_pool"},
      {LockLevel::stall_info, "stall_info"},
      {LockLevel::error_capture, "error_capture"},
  };
  for (const auto& [level, name] : expected) {
    EXPECT_STREQ(telemetry::lock_level_name(static_cast<int>(level)), name);
#ifdef MPL_CHECKED
    // The authoritative table is LockTracker::name(); the telemetry copy
    // (kept separate to avoid a circular include) must never drift.
    EXPECT_STREQ(telemetry::lock_level_name(static_cast<int>(level)),
                 mpl::detail::LockTracker::name(level));
#endif
  }
  EXPECT_STREQ(telemetry::lock_level_name(0), "?");
  EXPECT_STREQ(telemetry::lock_level_name(99), "?");
}

TEST(TelemetryContention, DisarmedProbeCountsNothing) {
  telemetry::contention_arm(false);
  telemetry::contention_reset();
  mpl::detail::MailboxMutex mtx;
  mtx.lock();
  mtx.unlock();
  const telemetry::ContentionTotals t = telemetry::contention_totals();
  const int lvl = static_cast<int>(mpl::detail::LockLevel::mailbox);
  EXPECT_EQ(t.acquisitions[lvl], 0u);
}

TEST(TelemetryContention, TwoThreadContentionIsCountedWithBlockedTime) {
  telemetry::contention_arm(true);  // resets totals
  mpl::detail::MailboxMutex mtx;
  std::atomic<bool> held{false};
  std::thread holder([&] {
    mtx.lock();
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    mtx.unlock();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  mtx.lock();  // must block: the holder sleeps with the lock held
  mtx.unlock();
  holder.join();
  telemetry::contention_arm(false);  // disarm leaves totals readable

  const telemetry::ContentionTotals t = telemetry::contention_totals();
  const int lvl = static_cast<int>(mpl::detail::LockLevel::mailbox);
  EXPECT_GE(t.acquisitions[lvl], 2u);
  EXPECT_GE(t.contended[lvl], 1u);
  // The contender slept most of the holder's 60 ms nap inside lock().
  EXPECT_GT(t.blocked_ns[lvl], 1000000u);  // > 1 ms
}

TEST(TelemetryContention, TryLockCountsUncontendedAcquisition) {
  telemetry::contention_arm(true);
  mpl::detail::BufferPoolMutex mtx;
  ASSERT_TRUE(mtx.try_lock());
  mtx.unlock();
  telemetry::contention_arm(false);
  const telemetry::ContentionTotals t = telemetry::contention_totals();
  const int lvl = static_cast<int>(mpl::detail::LockLevel::buffer_pool);
  EXPECT_GE(t.acquisitions[lvl], 1u);
  EXPECT_EQ(t.contended[lvl], 0u);
}

TEST_F(TelemetryRun, MailboxWorkloadRecordsContention) {
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;  // run() arms the probes
  mpl::run(2, [](mpl::Comm& world) {
    std::vector<int> buf(16, world.rank());
    const int peer = 1 - world.rank();
    // Send, sync, then receive: every message finds no posted receive and
    // is staged through the sender's pool.
    for (int i = 0; i < 2000; ++i) {
      world.send(buf.data(), 16, kInt, peer, 5);
      world.hard_sync();
      world.recv(buf.data(), 16, kInt, peer, 5);
    }
  }, opts);
  const telemetry::ContentionTotals t = telemetry::contention_totals();
  const int mailbox = static_cast<int>(mpl::detail::LockLevel::mailbox);
  const int pool = static_cast<int>(mpl::detail::LockLevel::buffer_pool);
  // Every delivery takes the receiver's mailbox lock, and every staged
  // one the sender's pool lock; 2000 round trips cannot fail to register.
  EXPECT_GT(t.acquisitions[mailbox], 1000u);
  EXPECT_GT(t.acquisitions[pool], 1000u);
  EXPECT_FALSE(telemetry::contention_enabled()) << "run() must disarm";
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(TelemetryFlight, RingWrapsKeepingNewestEvents) {
  FlightRecorder fr;
  for (int i = 0; i < 100; ++i) {
    fr.record(FlightKind::round, 0, i);
  }
  EXPECT_EQ(fr.recorded(), 100u);
  std::ostringstream os;
  fr.dump(os);
  const std::string d = os.str();
  EXPECT_NE(d.find("(36 older dropped)"), std::string::npos) << d;
  EXPECT_NE(d.find("round(0,99)"), std::string::npos) << d;
  EXPECT_NE(d.find("round(0,36)"), std::string::npos) << d;
  EXPECT_EQ(d.find("round(0,35)"), std::string::npos) << d;
}

TEST(TelemetryFlight, DumpElidesAbsentPayloadsAndNamesKinds) {
  FlightRecorder fr;
  std::ostringstream empty;
  fr.dump(empty);
  EXPECT_EQ(empty.str(), "(no events)");

  fr.record(FlightKind::pool_miss);          // no payload
  fr.record(FlightKind::retry, 2, 1);        // both payloads
  fr.record(FlightKind::wait_block, 1);      // one payload
  fr.record(FlightKind::wait_timeout);
  std::ostringstream os;
  fr.dump(os);
  const std::string d = os.str();
  EXPECT_NE(d.find("pool_miss "), std::string::npos) << d;
  EXPECT_EQ(d.find("pool_miss("), std::string::npos) << d;
  EXPECT_NE(d.find("retry(2,1)"), std::string::npos) << d;
  EXPECT_NE(d.find("wait_block(1)"), std::string::npos) << d;
  EXPECT_NE(d.find("wait_timeout"), std::string::npos) << d;
}

TEST_F(TelemetryStall, StallReportCarriesFlightTimelineForEveryRank) {
  mpl::RunOptions opts;
  opts.faults.watchdog_ms = 300;
  try {
    mpl::run(
        4,
        [](mpl::Comm& world) {
          const cartcomm::Neighborhood nb =
              cartcomm::Neighborhood::von_neumann(2);
          const std::vector<int> dims{2, 2};
          auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
          if (world.rank() == 0) return;  // wedge the collective
          const int t = nb.count();
          std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
          std::vector<int> rb(static_cast<std::size_t>(t), -1);
          cartcomm::alltoall(sb.data(), 1, kInt, rb.data(), 1, kInt, cc,
                             cartcomm::Algorithm::combining);
        },
        opts);
    FAIL() << "expected mpl::TimeoutError from the watchdog";
  } catch (const mpl::TimeoutError& e) {
    const std::string dump = e.pending_dump();
    const std::size_t flight = dump.find("flight recorder");
    ASSERT_NE(flight, std::string::npos) << dump;
    // Every rank gets a timeline line — including rank 0, which exited.
    for (int r = 0; r < 4; ++r) {
      EXPECT_NE(dump.find("rank " + std::to_string(r) + ": ", flight),
                std::string::npos)
          << "no flight line for rank " << r << "\n" << dump;
    }
    // The wedged ranks entered the schedule executor and then parked:
    // their timelines show the schedule start and the blocking wait.
    EXPECT_NE(dump.find("sched_begin", flight), std::string::npos) << dump;
    EXPECT_NE(dump.find("phase_begin", flight), std::string::npos) << dump;
    EXPECT_NE(dump.find("wait_block", flight), std::string::npos) << dump;
  }
}

TEST_F(TelemetryStall, TimeoutErrorCarriesFlightTimeline) {
  mpl::RunOptions opts;
  opts.faults.timeout_ms = 250;
  try {
    mpl::run(
        2,
        [](mpl::Comm& world) {
          if (world.rank() == 0) {
            int v = -1;
            world.recv(&v, 1, kInt, 1, 9);  // never sent
          }
        },
        opts);
    FAIL() << "expected mpl::TimeoutError";
  } catch (const mpl::TimeoutError& e) {
    const std::string dump = e.pending_dump();
    const std::size_t flight = dump.find("flight recorder");
    ASSERT_NE(flight, std::string::npos) << dump;
    // The timed-out rank recorded its park and then the terminal timeout.
    EXPECT_NE(dump.find("wait_block", flight), std::string::npos) << dump;
    EXPECT_NE(dump.find("wait_timeout", flight), std::string::npos) << dump;
  }
}

// ---------------------------------------------------------------------------
// RankTelemetry counters via Comm::telemetry()
// ---------------------------------------------------------------------------

TEST_F(TelemetryRun, TelemetryNullWhenNotArmed) {
  mpl::run(1, [](mpl::Comm& world) {
    EXPECT_EQ(world.telemetry(), nullptr);
  });
}

TEST_F(TelemetryRun, CountersTrackTrafficAndWaits) {
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  mpl::run(2, [](mpl::Comm& world) {
    const telemetry::RankTelemetry* tm = world.telemetry();
    ASSERT_NE(tm, nullptr);
    std::vector<int> buf(16, world.rank());
    if (world.rank() == 0) {
      // Park the receiver for a measurable while before sending.
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      for (int i = 0; i < 5; ++i) world.send(buf.data(), 16, kInt, 1, 3);
      EXPECT_EQ(tm->msgs_sent(), 5u);
      EXPECT_EQ(tm->bytes_sent(), 5u * 16u * sizeof(int));
      EXPECT_EQ(tm->message_sizes().count(), 5u);
      EXPECT_EQ(tm->message_sizes().max(), 16u * sizeof(int));
    } else {
      for (int i = 0; i < 5; ++i) world.recv(buf.data(), 16, kInt, 0, 3);
      EXPECT_EQ(tm->msgs_recv(), 5u);
      EXPECT_EQ(tm->bytes_recv(), 5u * 16u * sizeof(int));
      // The first receive arrived ~40 ms after the post, so the rank
      // parked at least once and the wait histogram saw it.
      EXPECT_GE(tm->waits(), 1u);
      EXPECT_GE(tm->wait_block_latency().count(), 1u);
      EXPECT_GT(tm->wait_ns(), 1000000u);  // > 1 ms parked
    }
  }, opts);
}

TEST_F(TelemetryRun, CollectiveLatencyHistogramFillsPerExecution) {
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  mpl::run(4, [](mpl::Comm& world) {
    const cartcomm::Neighborhood nb = cartcomm::Neighborhood::von_neumann(2);
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t), -1);
    constexpr int kExecs = 3;
    for (int i = 0; i < kExecs; ++i) {
      cartcomm::alltoall(sb.data(), 1, kInt, rb.data(), 1, kInt, cc,
                         cartcomm::Algorithm::combining);
    }
    const telemetry::RankTelemetry* tm = world.telemetry();
    ASSERT_NE(tm, nullptr);
    EXPECT_EQ(tm->collectives(), static_cast<std::uint64_t>(kExecs));
    EXPECT_EQ(tm->collective_latency().count(),
              static_cast<std::uint64_t>(kExecs));
    EXPECT_GT(tm->collective_latency().sum(), 0u);
  }, opts);
}

TEST_F(TelemetryRun, FaultRetriesSurfaceInTelemetry) {
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  opts.faults.drop = 0.5;
  opts.faults.seed = 7;
  std::atomic<std::uint64_t> retries{0};
  mpl::run(2, [&](mpl::Comm& world) {
    std::vector<int> buf(16, world.rank());
    if (world.rank() == 0) {
      for (int i = 0; i < 50; ++i) world.send(buf.data(), 16, kInt, 1, 2);
      retries.store(world.telemetry()->fault_retries(),
                    std::memory_order_relaxed);
    } else {
      for (int i = 0; i < 50; ++i) world.recv(buf.data(), 16, kInt, 0, 2);
    }
  }, opts);
  // drop=0.5 over 50 messages: the deterministic fault plan forces many
  // retransmits; each one counts.
  EXPECT_GT(retries.load(), 0u);
}

// ---------------------------------------------------------------------------
// OpenMetrics export
// ---------------------------------------------------------------------------

TEST_F(TelemetryExport, WriterEmitsValidSkeletonForEmptySnapshot) {
  telemetry::MetricsSnapshot snap;
  snap.nprocs = 3;
  std::ostringstream os;
  telemetry::write_openmetrics(os, snap);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE mpl_ranks gauge\n"), std::string::npos);
  EXPECT_NE(text.find("mpl_ranks 3\n"), std::string::npos);
  EXPECT_NE(text.find("mpl_msgs_sent_total 0\n"), std::string::npos);
  // Histograms always carry the +Inf bucket and _count/_sum.
  EXPECT_NE(text.find("mpl_message_size_bytes_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpl_message_size_bytes_count 0\n"), std::string::npos);
  // Terminated exactly once, at the end.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST_F(TelemetryExport, HistogramBucketsAreCumulative) {
  telemetry::MetricsSnapshot snap;
  snap.msg_bytes.record(10);
  snap.msg_bytes.record(10);
  snap.msg_bytes.record(100000);
  std::ostringstream os;
  telemetry::write_openmetrics(os, snap);
  const std::string text = os.str();
  // Two values in the le=10 bucket, cumulative 3 by the +Inf bucket.
  EXPECT_NE(text.find("mpl_message_size_bytes_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mpl_message_size_bytes_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mpl_message_size_bytes_count 3\n"), std::string::npos);
}

TEST_F(TelemetryExport, RunWritesOpenMetricsFile) {
  const std::string path = ::testing::TempDir() + "telemetry_export.om";
  std::remove(path.c_str());
  mpl::RunOptions opts;
  opts.telemetry.openmetrics_path = path;  // implies armed()
  mpl::run(4, [](mpl::Comm& world) {
    const cartcomm::Neighborhood nb = cartcomm::Neighborhood::von_neumann(2);
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t), -1);
    cartcomm::alltoall(sb.data(), 1, kInt, rb.data(), 1, kInt, cc,
                       cartcomm::Algorithm::combining);
  }, opts);

  std::ifstream is(path);
  ASSERT_TRUE(is) << "run() did not write " << path;
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("mpl_ranks 4\n"), std::string::npos);
  // Counters moved: 4 ranks exchanged schedule traffic.
  EXPECT_NE(text.find("# TYPE mpl_msgs_sent counter\n"), std::string::npos);
  EXPECT_EQ(text.find("mpl_msgs_sent_total 0\n"), std::string::npos) << text;
  // The collective histogram saw one execution per rank.
  EXPECT_NE(text.find("mpl_collective_latency_seconds_count 4\n"),
            std::string::npos)
      << text;
  // Pool gauges and contention counters are present.
  EXPECT_NE(text.find("# TYPE mpl_pool_free_buffers gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpl_lock_acquisitions_total{level=\"mailbox\"}"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST_F(TelemetryExport, StagedBytesReachOpenMetricsAndMetricsJson) {
  // Rank 0 sends before rank 1 posts (16 ints staged); rank 1 sends into
  // a receive rank 0 already posted (direct, nothing staged). Both
  // exporters carry the one sender-side count.
  const std::string om = ::testing::TempDir() + "telemetry_staged.om";
  const std::string js = ::testing::TempDir() + "telemetry_staged.json";
  std::remove(om.c_str());
  std::remove(js.c_str());
  mpl::RunOptions opts;
  opts.telemetry.openmetrics_path = om;
  opts.telemetry.metrics_path = js;
  mpl::run(2, [](mpl::Comm& c) {
    std::vector<int> buf(16, c.rank());
    if (c.rank() == 0) {
      c.send(buf.data(), 16, kInt, 1, 0);
      mpl::Request r = c.irecv(buf.data(), 16, kInt, 1, 1);
      c.hard_sync();
      r.wait();
    } else {
      c.hard_sync();
      c.send(buf.data(), 16, kInt, 0, 1);
      c.recv(buf.data(), 16, kInt, 0, 0);
    }
  }, opts);

  auto slurp = [](const std::string& path) {
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
  };
  const std::string text = slurp(om);
  EXPECT_NE(text.find("mpl_staged_bytes_total 64\n"), std::string::npos)
      << text;
  const auto ranks = trace::json::parse_file(js).at("ranks").as_array();
  ASSERT_EQ(ranks.size(), 2u);
  EXPECT_EQ(ranks[0].num_or("rank", -1), 0.0);
  EXPECT_EQ(ranks[0].at("totals").num_or("staged_bytes", -1), 64.0)
      << "rank 0 staged";
  EXPECT_EQ(ranks[1].at("totals").num_or("staged_bytes", -1), 0.0)
      << "rank 1 did not";
  std::remove(om.c_str());
  std::remove(js.c_str());
}

namespace {

/// The value of the OpenMetrics sample `name` (e.g. "mpl_msgs_sent_total").
double om_sample(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(name + ' ', 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "no sample " << name << " in\n" << text;
  return -1.0;
}

}  // namespace

TEST_F(TelemetryExport, MetricsJsonAndOpenMetricsSerializeOneSnapshot) {
  // Traffic on two communicators, some of it staged, with injected drops
  // and delays; the per-rank JSON totals must add up to the run-wide
  // OpenMetrics counters.
  const std::string om = ::testing::TempDir() + "telemetry_both.om";
  const std::string js = ::testing::TempDir() + "telemetry_both.json";
  std::remove(om.c_str());
  std::remove(js.c_str());
  mpl::RunOptions opts;
  opts.telemetry.openmetrics_path = om;
  opts.telemetry.metrics_path = js;
  opts.faults.seed = 3;
  opts.faults.drop = 0.3;
  opts.faults.delay = 1e-6;
  opts.faults.delay_prob = 0.3;
  mpl::run(4, [](mpl::Comm& world) {
    const cartcomm::Neighborhood nb = cartcomm::Neighborhood::von_neumann(2);
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t), -1);
    cartcomm::alltoall(sb.data(), 1, kInt, rb.data(), 1, kInt, cc,
                       cartcomm::Algorithm::combining);
    std::vector<int> buf(8, world.rank());
    const int next = (world.rank() + 1) % world.size();
    const int prev = (world.rank() + world.size() - 1) % world.size();
    for (int i = 0; i < 10; ++i) {
      world.send(buf.data(), 8, kInt, next, 1);
      if (i == 0) world.hard_sync();  // the first round is staged
      world.recv(buf.data(), 8, kInt, prev, 1);
    }
  }, opts);

  const auto ranks = trace::json::parse_file(js).at("ranks").as_array();
  ASSERT_EQ(ranks.size(), 4u);
  std::ifstream is(om);
  std::stringstream text;
  text << is.rdbuf();
  for (const char* name :
       {"msgs_sent", "bytes_sent", "msgs_recv", "bytes_recv", "staged_bytes",
        "fault_retries", "fault_delays"}) {
    double sum = 0.0;
    for (const auto& r : ranks) sum += r.at("totals").num_or(name, -1e9);
    EXPECT_EQ(sum, om_sample(text.str(), std::string("mpl_") + name + "_total"))
        << name;
  }
  EXPECT_GT(om_sample(text.str(), "mpl_fault_retries_total"), 0.0);
  EXPECT_GT(om_sample(text.str(), "mpl_staged_bytes_total"), 0.0);
  std::remove(om.c_str());
  std::remove(js.c_str());
}

TEST_F(TelemetryExport, EnvConfigOverlays) {
  telemetry::TelemetryConfig c;
  EXPECT_FALSE(c.armed());
  setenv("MPL_TELEMETRY", "1", 1);
  c.apply_env();
  EXPECT_TRUE(c.enabled);
  EXPECT_TRUE(c.armed());

  setenv("MPL_TELEMETRY", "0", 1);
  setenv("MPL_OPENMETRICS", "metrics.om", 1);
  setenv("MPL_OPENMETRICS_PERIOD_MS", "250", 1);
  telemetry::TelemetryConfig c2;
  c2.apply_env();
  EXPECT_FALSE(c2.enabled);
  EXPECT_EQ(c2.openmetrics_path, "metrics.om");
  EXPECT_TRUE(c2.armed()) << "an export path alone must arm telemetry";
  EXPECT_DOUBLE_EQ(c2.period_ms, 250.0);
  unsetenv("MPL_TELEMETRY");
  unsetenv("MPL_OPENMETRICS");
  unsetenv("MPL_OPENMETRICS_PERIOD_MS");
}
