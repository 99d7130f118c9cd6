// Correctness of the Cartesian alltoall: trivial and message-combining
// algorithms against an analytic oracle, schedule structure against
// Proposition 3.2, randomized isomorphic neighborhoods.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cart_test_util.hpp"

using cartcomm::Algorithm;
using cartcomm::Neighborhood;
using carttest::check_alltoall;

namespace {
const std::vector<int> kNoPeriods;  // default: fully periodic (torus)
}

TEST(CartAlltoall, Moore2DTrivial) {
  check_alltoall({3, 4}, kNoPeriods, Neighborhood::stencil(2, 3, -1), 3,
                 Algorithm::trivial);
}

TEST(CartAlltoall, Moore2DCombining) {
  check_alltoall({3, 4}, kNoPeriods, Neighborhood::stencil(2, 3, -1), 3,
                 Algorithm::combining);
}

TEST(CartAlltoall, Moore3DCombining) {
  check_alltoall({3, 2, 4}, kNoPeriods, Neighborhood::stencil(3, 3, -1), 2,
                 Algorithm::combining);
}

TEST(CartAlltoall, Asymmetric4Neighbors) {
  // n=4, f=-1: offsets {-1,0,1,2} — the paper's asymmetric configuration.
  check_alltoall({4, 5}, kNoPeriods, Neighborhood::stencil(2, 4, -1), 2,
                 Algorithm::combining);
}

TEST(CartAlltoall, OffsetsLargerThanDims) {
  // Offsets wrap multiple times around a small torus; multiple target
  // vectors collapse onto the same process.
  Neighborhood nb(2, {3, 0, -4, 1, 5, 5, 0, -7});
  check_alltoall({3, 2}, kNoPeriods, nb, 4, Algorithm::combining);
  check_alltoall({3, 2}, kNoPeriods, nb, 4, Algorithm::trivial);
}

TEST(CartAlltoall, RepeatedOffsets) {
  Neighborhood nb(2, {1, 1, 1, 1, -1, 0, 1, 1});
  check_alltoall({3, 3}, kNoPeriods, nb, 2, Algorithm::combining);
  check_alltoall({3, 3}, kNoPeriods, nb, 2, Algorithm::trivial);
}

TEST(CartAlltoall, ZeroVectorOnly) {
  Neighborhood nb(2, {0, 0});
  check_alltoall({2, 2}, kNoPeriods, nb, 5, Algorithm::combining);
}

TEST(CartAlltoall, EmptyNeighborhood) {
  Neighborhood nb(2, {});
  check_alltoall({2, 2}, kNoPeriods, nb, 1, Algorithm::combining);
}

TEST(CartAlltoall, SingleProcessTorus) {
  // Everything wraps to self.
  check_alltoall({1, 1}, kNoPeriods, Neighborhood::stencil(2, 3, -1), 2,
                 Algorithm::combining);
}

TEST(CartAlltoall, OneDimensionalRing) {
  check_alltoall({6}, kNoPeriods, Neighborhood(1, {-2, -1, 0, 1, 2}), 3,
                 Algorithm::combining);
}

TEST(CartAlltoall, AutomaticSmallBlocksPicksCombining) {
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  mpl::run(
      8,
      [](mpl::Comm& world) {
        const std::vector<int> dims{2, 4};
        auto cc = cartcomm::cart_neighborhood_create(
            world, dims, {}, Neighborhood::stencil(2, 3, -1));
        auto op = cartcomm::alltoall_init(nullptr, 0, mpl::Datatype::of<int>(),
                                          nullptr, 0, mpl::Datatype::of<int>(),
                                          cc, Algorithm::automatic);
        EXPECT_EQ(op.algorithm(), Algorithm::combining);
      },
      opts);
}

TEST(CartAlltoall, AutomaticHugeBlocksPicksTrivial) {
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  mpl::run(
      4,
      [](mpl::Comm& world) {
        const std::vector<int> dims{2, 2};
        auto cc = cartcomm::cart_neighborhood_create(
            world, dims, {}, Neighborhood::stencil(2, 3, -1));
        std::vector<int> dummy(9 * (1 << 20));
        auto op = cartcomm::alltoall_init(
            dummy.data(), 1 << 20, mpl::Datatype::of<int>(), dummy.data(),
            1 << 20, mpl::Datatype::of<int>(), cc, Algorithm::automatic);
        EXPECT_EQ(op.algorithm(), Algorithm::trivial);
      },
      opts);
}

TEST(CartAlltoallSchedule, StructureMatchesProposition32) {
  mpl::run(8, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2, 2};
    const Neighborhood nb = Neighborhood::stencil(3, 3, -1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t));
    auto op = cartcomm::alltoall_init(sb.data(), 1, mpl::Datatype::of<int>(),
                                      rb.data(), 1, mpl::Datatype::of<int>(),
                                      cc, Algorithm::combining);
    const cartcomm::Schedule& s = op.schedule();
    EXPECT_EQ(s.phases(), 3);                 // d communication phases
    EXPECT_EQ(s.rounds(), 6);                 // C = d(n-1)
    EXPECT_EQ(s.send_block_count(), 54);      // V = sum z_i
    EXPECT_EQ(s.copy_count(), 1);             // the zero vector
    for (int ph : s.phase_rounds()) EXPECT_EQ(ph, 2);  // C_k = n-1
    // Volume in bytes: V * m.
    EXPECT_EQ(s.send_bytes(), 54 * static_cast<long long>(sizeof(int)));
  });
}

TEST(CartAlltoallSchedule, TempBufferOnlyForMultiHopBlocks) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    // Von Neumann: all blocks single-hop — no temp space needed.
    const Neighborhood nb = Neighborhood::von_neumann(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    std::vector<int> sb(4), rb(4);
    auto op = cartcomm::alltoall_init(sb.data(), 1, mpl::Datatype::of<int>(),
                                      rb.data(), 1, mpl::Datatype::of<int>(),
                                      cc, Algorithm::combining);
    EXPECT_EQ(op.schedule().temp_bytes(), 0u);
  });
}

namespace {

/// Combining alltoall schedule (Algorithm 1 over the offsets as given) of
/// `nb` on this process, one block of `m`
/// ints per neighbor, the blocks back to back in one send and one receive
/// buffer (which must outlive the schedule).
cartcomm::Schedule contiguous_alltoall(const cartcomm::CartNeighborComm& cc,
                                       std::vector<int>& sb,
                                       std::vector<int>& rb, int m) {
  const int t = cc.neighborhood().count();
  sb.assign(static_cast<std::size_t>(t * m), 0);
  rb.assign(static_cast<std::size_t>(t * m), 0);
  std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
  std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
  for (std::size_t i = 0; i < sends.size(); ++i) {
    sends[i] = {&sb[i * static_cast<std::size_t>(m)], m,
                mpl::Datatype::of<int>()};
    recvs[i] = {&rb[i * static_cast<std::size_t>(m)], m,
                mpl::Datatype::of<int>()};
  }
  return cartcomm::build_alltoall_schedule(cc, sends, recvs,
                                          Algorithm::combining);
}

}  // namespace

TEST(CartAlltoallSchedule, LandingZonesMergeRunsPerRound) {
  // Each round's blocks sit in order (send blocks by index, then temp by
  // offset) and intermediate arrivals land back to back, so neighbouring
  // blocks share one contiguous datatype run. Pinned: the summed send and
  // receive runs over all rounds of the stencil alltoall, one int per
  // block, on a 1x..x1x2x2 torus (every rank alike). `parked` is the total
  // of the earlier layout, which parked each block in a slot of its own in
  // neighbor-index order; from d = 3 on the zones need strictly fewer.
  // Temp space is one slot per intermediate hop: (V - moving blocks) ints.
  struct Case {
    int d, n;
    std::size_t runs, parked;
  };
  for (const Case c : {Case{2, 3, 20, 20}, Case{3, 3, 64, 88},
                       Case{4, 3, 192, 360}, Case{5, 3, 572, 1388},
                       Case{3, 5, 280, 368}, Case{5, 5, 6888, 14072}}) {
    mpl::run(4, [&](mpl::Comm& world) {
      std::vector<int> dims(static_cast<std::size_t>(c.d), 1);
      dims[dims.size() - 1] = dims[dims.size() - 2] = 2;
      const Neighborhood nb = Neighborhood::stencil(c.d, c.n, -(c.n / 2));
      auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
      std::vector<int> sb, rb;
      const cartcomm::Schedule s = contiguous_alltoall(cc, sb, rb, 1);
      std::size_t runs = 0;
      for (const cartcomm::ScheduleRound& r : s.round_list()) {
        runs += r.send_blocks() + r.recv_blocks();
      }
      EXPECT_EQ(runs, c.runs) << "d=" << c.d << " n=" << c.n;
      if (c.d >= 3) {
        EXPECT_LT(runs, c.parked) << "d=" << c.d << " n=" << c.n;
      }
      const long long moving = nb.count() - 1;  // all but the zero vector
      EXPECT_EQ(s.temp_bytes(),
                static_cast<std::size_t>(s.send_block_count() - moving) *
                    sizeof(int))
          << "d=" << c.d << " n=" << c.n;
    });
  }
}

TEST(CartAlltoallSchedule, TempBytesWrittenOnceAndSentInALaterPhase) {
  // Every temp byte of a combining alltoall is received at most once per
  // execution and sent only in a later phase: on tori, on meshes (where
  // boundary filtering leaves holes in the landing zones) and with
  // irregular neighborhoods with repeated offsets. Blocks of four or more
  // hops (d = 4) would reuse a slot under per-block parking. The schedule
  // is also executed and its result checked.
  struct Grid {
    std::vector<int> dims, periods;
    Neighborhood nb;
  };
  const Neighborhood irregular(2, {2, 1, -1, 0, 0, -2, 0, 0, 2, 1, 1, -1});
  const Grid grids[] = {
      {{3, 3}, {1, 1}, Neighborhood::stencil(2, 3, -1)},
      {{2, 2, 2}, {1, 1, 1}, Neighborhood::stencil(3, 3, -1)},
      {{3, 3}, {0, 0}, Neighborhood::stencil(2, 3, -1)},
      {{4, 3}, {0, 1}, Neighborhood::stencil(2, 5, -2)},
      {{3, 2, 2}, {0, 0, 0}, Neighborhood::stencil(3, 3, -1)},
      {{2, 2, 2, 2}, {1, 1, 1, 1}, Neighborhood::stencil(4, 3, -1)},
      {{2, 2, 2, 2}, {0, 1, 0, 0}, Neighborhood::stencil(4, 3, -1)},
      {{5, 4}, {0, 0}, irregular},
      {{5, 4}, {1, 1}, irregular},
  };
  for (const Grid& g : grids) {
    std::vector<std::size_t> temp(static_cast<std::size_t>(
        carttest::product(g.dims)));
    mpl::run(carttest::product(g.dims), [&](mpl::Comm& world) {
      auto cc = cartcomm::cart_neighborhood_create(world, g.dims, g.periods,
                                                   g.nb);
      const int m = 2;
      std::vector<int> sb, rb;
      const cartcomm::Schedule s = contiguous_alltoall(cc, sb, rb, m);
      temp[static_cast<std::size_t>(world.rank())] = s.temp_bytes();
      EXPECT_EQ(carttest::temp_write_once_issue(s), "")
          << "rank " << world.rank() << "\n" << s.dump();
      const int t = g.nb.count();
      for (int i = 0; i < t; ++i) {
        for (int e = 0; e < m; ++e) {
          sb[static_cast<std::size_t>(i * m + e)] =
              carttest::pattern(world.rank(), i, e);
        }
      }
      std::fill(rb.begin(), rb.end(), -777);
      s.execute(cc.comm());
      for (int i = 0; i < t; ++i) {
        const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
        for (int e = 0; e < m; ++e) {
          ASSERT_EQ(rb[static_cast<std::size_t>(i * m + e)],
                    src == mpl::PROC_NULL ? -777 : carttest::pattern(src, i, e))
              << "rank " << world.rank() << " block " << i << " elem " << e;
        }
      }
    });
    // Every grid has multi-hop blocks, so the check is never vacuous.
    EXPECT_GT(*std::max_element(temp.begin(), temp.end()), 0u);
  }
}

TEST(CartAlltoall, CombiningMatchesTrivialElementwise) {
  // Same inputs through both algorithms must agree bit for bit.
  mpl::run(12, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 4};
    const Neighborhood nb = Neighborhood::stencil(2, 4, -1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const int m = 7;
    std::vector<double> sb(static_cast<std::size_t>(t) * m);
    for (std::size_t j = 0; j < sb.size(); ++j) {
      sb[j] = world.rank() * 1000.0 + static_cast<double>(j) * 0.5;
    }
    std::vector<double> r1(sb.size(), -1), r2(sb.size(), -2);
    cartcomm::alltoall(sb.data(), m, mpl::Datatype::of<double>(), r1.data(), m,
                       mpl::Datatype::of<double>(), cc, Algorithm::trivial);
    cartcomm::alltoall(sb.data(), m, mpl::Datatype::of<double>(), r2.data(), m,
                       mpl::Datatype::of<double>(), cc, Algorithm::combining);
    EXPECT_EQ(r1, r2);
  });
}

TEST(CartAlltoall, MatchesNeighborAlltoallBaseline) {
  // The Cartesian operation implements exactly the pattern of the MPI
  // neighborhood collective on the equivalent distributed graph.
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    mpl::DistGraphComm g = cc.to_dist_graph();
    const int t = nb.count();
    const int m = 3;
    std::vector<int> sb(static_cast<std::size_t>(t) * m);
    for (std::size_t j = 0; j < sb.size(); ++j) {
      sb[j] = world.rank() * 100 + static_cast<int>(j);
    }
    std::vector<int> r1(sb.size(), -1), r2(sb.size(), -2);
    cartcomm::alltoall(sb.data(), m, mpl::Datatype::of<int>(), r1.data(), m,
                       mpl::Datatype::of<int>(), cc, Algorithm::combining);
    mpl::neighbor_alltoall(sb.data(), m, mpl::Datatype::of<int>(), r2.data(), m,
                           mpl::Datatype::of<int>(), g);
    EXPECT_EQ(r1, r2);
  });
}

// -- randomized isomorphic neighborhoods --------------------------------------

struct RandomCase {
  unsigned seed;
  int d;
};

class CartAlltoallRandom : public ::testing::TestWithParam<RandomCase> {};

TEST_P(CartAlltoallRandom, OracleAgreement) {
  const auto [seed, d] = GetParam();
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dim_dist(2, 4);
  std::uniform_int_distribution<int> off_dist(-3, 3);
  std::uniform_int_distribution<int> t_dist(1, 10);
  std::uniform_int_distribution<int> m_dist(1, 5);

  std::vector<int> dims(static_cast<std::size_t>(d));
  for (auto& x : dims) x = dim_dist(rng);
  const int t = t_dist(rng);
  std::vector<int> flat;
  for (int i = 0; i < t * d; ++i) flat.push_back(off_dist(rng));
  const Neighborhood nb(d, std::move(flat));
  const int m = m_dist(rng);

  check_alltoall(dims, kNoPeriods, nb, m, Algorithm::combining);
  check_alltoall(dims, kNoPeriods, nb, m, Algorithm::trivial);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CartAlltoallRandom,
                         ::testing::Values(RandomCase{1, 2}, RandomCase{2, 2},
                                           RandomCase{3, 2}, RandomCase{4, 3},
                                           RandomCase{5, 3}, RandomCase{6, 3},
                                           RandomCase{7, 4}, RandomCase{8, 4},
                                           RandomCase{9, 1}, RandomCase{10, 1},
                                           RandomCase{11, 5}, RandomCase{12, 5}));

TEST(CartAlltoall, LargeMooreD4) {
  // d=4, n=3: t=81 neighbors on a 16-process torus.
  check_alltoall({2, 2, 2, 2}, kNoPeriods, Neighborhood::stencil(4, 3, -1), 2,
                 Algorithm::combining);
}
