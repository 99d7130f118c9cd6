// Pre-posted receives of the trivial schedule: which schedules pre-post,
// the staging bound it buys, isolation of persistent operations in flight
// together by their own matching tags, and the traced post order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cart_test_util.hpp"
#include "mpl/proc.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

using cartcomm::Algorithm;
using cartcomm::Neighborhood;
using cartcomm::Schedule;

namespace {

const mpl::Datatype kInt = mpl::Datatype::of<int>();

/// bulk3d's shape: a 1x2x2 torus with the full Moore(3) neighborhood
/// (t = 27 including the zero vector; 26 trivial rounds).
const std::vector<int> kBulkDims{1, 2, 2};
const std::vector<int> kTorus2d{2, 2};

/// Per-neighbor blocks of `m` ints over one send and one receive buffer.
struct Blocks {
  std::vector<cartcomm::SendBlock> sends;
  std::vector<cartcomm::RecvBlock> recvs;
};

Blocks blocks_of(std::vector<int>& sb, std::vector<int>& rb, int t, int m) {
  Blocks b;
  for (int i = 0; i < t; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * m;
    b.sends.push_back({sb.data() + at, m, kInt});
    b.recvs.push_back({rb.data() + at, m, kInt});
  }
  return b;
}

/// Value rank `origin` sends to its neighbor `idx` in execution `rep` of
/// operation `op`: distinct per operation, so a message delivered to the
/// wrong operation shows up in the data.
int value(int op, int rep, int origin, int idx, int elem) {
  return static_cast<int>(
      static_cast<unsigned>(carttest::pattern(origin, idx, elem)) +
      1000003u * static_cast<unsigned>(op) +
      7919u * static_cast<unsigned>(rep));
}

void fill(std::vector<int>& sb, int op, int rep, int rank, int t, int m) {
  for (int i = 0; i < t; ++i) {
    for (int e = 0; e < m; ++e) {
      sb[static_cast<std::size_t>(i) * m + e] = value(op, rep, rank, i, e);
    }
  }
}

void expect_received(const std::vector<int>& rb,
                     const cartcomm::CartNeighborComm& cc, int op, int rep,
                     int m) {
  for (int i = 0; i < cc.neighbor_count(); ++i) {
    const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
    for (int e = 0; e < m; ++e) {
      ASSERT_EQ(rb[static_cast<std::size_t>(i) * m + e],
                value(op, rep, src, i, e))
          << "op " << op << " rep " << rep << " rank " << cc.rank()
          << " block " << i << " elem " << e;
    }
  }
}

}  // namespace

TEST(SchedulePrepost, OnlyTrivialSchedulesPrepost) {
  mpl::run(4, [](mpl::Comm& world) {
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, kTorus2d, {}, nb);
    const int t = nb.count();
    const int m = 2;
    std::vector<int> sb(static_cast<std::size_t>(t) * m, 0);
    std::vector<int> rb(static_cast<std::size_t>(t) * m, 0);
    Blocks b = blocks_of(sb, rb, t, m);

    EXPECT_TRUE(cartcomm::build_trivial_schedule(cc, b.sends, b.recvs)
                    .preposts_receives());
    EXPECT_FALSE(cartcomm::build_alltoall_schedule(cc, b.sends, b.recvs)
                     .preposts_receives());
    EXPECT_FALSE(
        cartcomm::build_allgather_schedule(cc, b.sends.front(), b.recvs)
            .preposts_receives());
    // merge() output never pre-posts, even when built from trivial parts.
    std::vector<Schedule> parts;
    parts.push_back(cartcomm::build_trivial_schedule(cc, b.sends, b.recvs));
    EXPECT_FALSE(Schedule::merge(std::move(parts)).preposts_receives());
    // The persistent trivial operation runs the pre-posting schedule.
    auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                      cc, Algorithm::trivial);
    EXPECT_TRUE(op.schedule().preposts_receives());
  });
}

TEST(SchedulePrepost, StagingIsBoundedByOneBlockPerExecution) {
  // start() posts every receive and then phase 0's send; hard_sync() makes
  // sure every rank is past that point. From then on each send of phase
  // >= 1 finds its receive posted and is copied once, straight into the
  // caller's block. Only phase 0's message can still have found its
  // partner not yet started, so at most one block per rank per execution
  // is staged. (Posting each phase's receive only when the phase begins
  // stages most of the later phases' messages here.)
  constexpr int kReps = 8;
  constexpr int m = 16;
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  mpl::run(
      4,
      [&](mpl::Comm& world) {
        const Neighborhood nb = Neighborhood::moore(3);
        auto cc = cartcomm::cart_neighborhood_create(world, kBulkDims, {}, nb);
        const int t = nb.count();
        std::vector<int> sb(static_cast<std::size_t>(t) * m, 0);
        std::vector<int> rb(static_cast<std::size_t>(t) * m, -1);
        auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m,
                                          kInt, cc, Algorithm::trivial);
        ASSERT_EQ(op.algorithm(), Algorithm::trivial);
        ASSERT_EQ(op.schedule().phases(), 26);
        const telemetry::RankTelemetry* tm = world.telemetry();
        ASSERT_NE(tm, nullptr);
        world.hard_sync();
        const std::uint64_t staged0 = tm->staged_bytes();
        const std::uint64_t sent0 = tm->bytes_sent();
        for (int rep = 0; rep < kReps; ++rep) {
          fill(sb, 0, rep, world.rank(), t, m);
          cartcomm::CartRequest req = op.start();
          world.hard_sync();
          req.wait();
          expect_received(rb, cc, 0, rep, m);
        }
        const std::uint64_t block = m * sizeof(int);
        EXPECT_EQ(tm->bytes_sent() - sent0, kReps * 26 * block);
        EXPECT_LE(tm->staged_bytes() - staged0, kReps * block)
            << "rank " << world.rank();
      },
      opts);
}

TEST(SchedulePrepost, PersistentOperationsInFlightTogetherKeepTheirData) {
  // Two persistent trivial alltoalls on one communicator (the second on a
  // with_neighborhood view, which shares the tag sequence), both started
  // before either is waited, waited in both orders. Each operation matches
  // on its own tag, so neither takes the other's pre-posted receives.
  mpl::run(4, [](mpl::Comm& world) {
    const Neighborhood moore = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, kTorus2d, {}, moore);
    auto vn = cc.with_neighborhood(Neighborhood::von_neumann(2));
    const int m = 3;
    const int ta = cc.neighbor_count();
    const int tb = vn.neighbor_count();
    std::vector<int> sa(static_cast<std::size_t>(ta) * m);
    std::vector<int> ra(sa.size());
    std::vector<int> sb(static_cast<std::size_t>(tb) * m);
    std::vector<int> rb(sb.size());
    auto a = cartcomm::alltoall_init(sa.data(), m, kInt, ra.data(), m, kInt,
                                     cc, Algorithm::trivial);
    auto b = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                     vn, Algorithm::trivial);
    for (int rep = 0; rep < 6; ++rep) {
      fill(sa, 1, rep, world.rank(), ta, m);
      fill(sb, 2, rep, world.rank(), tb, m);
      std::fill(ra.begin(), ra.end(), -1);
      std::fill(rb.begin(), rb.end(), -1);
      cartcomm::CartRequest qa = a.start();
      cartcomm::CartRequest qb = b.start();
      if (rep % 2 == 0) {
        qa.wait();
        qb.wait();
      } else {
        qb.wait();
        qa.wait();
      }
      expect_received(ra, cc, 1, rep, m);
      expect_received(rb, vn, 2, rep, m);
    }
  });
}

TEST(SchedulePrepost, TracedExecutionPostsEveryReceiveBeforeTheFirstSend) {
  const std::string path =
      std::string(::testing::TempDir()) + "schedule_prepost_trace.json";
  mpl::RunOptions opts;
  opts.trace.chrome_path = path;
  mpl::run(
      4,
      [](mpl::Comm& world) {
        const Neighborhood nb = Neighborhood::moore(3);
        auto cc = cartcomm::cart_neighborhood_create(world, kBulkDims, {}, nb);
        const int t = nb.count();
        const int m = 2;
        std::vector<int> sb(static_cast<std::size_t>(t) * m, world.rank());
        std::vector<int> rb(static_cast<std::size_t>(t) * m, -1);
        auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m,
                                          kInt, cc, Algorithm::trivial);
        const int section = world.trace_section_begin("prepost");
        op.execute();
        world.trace_section_end();
        ASSERT_GE(section, 0);

        int recv_posts = 0;
        int send_posts = 0;
        int phase_spans = 0;
        for (const trace::Event& e : world.proc().trace()->snapshot()) {
          if (e.section != section) continue;
          if (e.kind == trace::EventKind::recv_post) {
            EXPECT_EQ(send_posts, 0) << "receive posted after a send";
            EXPECT_EQ(e.phase, 0) << "pre-post outside phase 0's scope";
            ++recv_posts;
          } else if (e.kind == trace::EventKind::send_post) {
            EXPECT_EQ(e.phase, send_posts) << "one send per phase, in order";
            ++send_posts;
          } else if (e.kind == trace::EventKind::phase) {
            ++phase_spans;
          }
        }
        EXPECT_EQ(recv_posts, 26);
        EXPECT_EQ(send_posts, 26);
        EXPECT_EQ(phase_spans, 27);  // 26 rounds + the self-copy phase
      },
      opts);
  std::remove(path.c_str());
}
