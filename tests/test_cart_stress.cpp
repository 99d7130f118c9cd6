// Stress and integration tests: the paper's largest neighborhood, virtual
// clock determinism, the Listing 3 in-place buffer pattern, and several
// communicators operating concurrently.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cart_test_util.hpp"

using cartcomm::Algorithm;
using cartcomm::Neighborhood;

namespace {
const mpl::Datatype kInt = mpl::Datatype::of<int>();
}

TEST(CartStress, LargestPaperNeighborhoodD5N5) {
  // t = 3125 neighbors on a 32-process torus: the paper's biggest case.
  const Neighborhood nb = Neighborhood::stencil(5, 5, -1);
  ASSERT_EQ(nb.count(), 3125);
  carttest::check_alltoall({2, 2, 2, 2, 2}, {}, nb, 1, Algorithm::combining);
  carttest::check_allgather({2, 2, 2, 2, 2}, {}, nb, 1, Algorithm::combining);
}

TEST(CartStress, ScheduleStatsD5N5) {
  mpl::run(32, [](mpl::Comm& world) {
    const std::vector<int> dims(5, 2);
    const Neighborhood nb = Neighborhood::stencil(5, 5, -1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    std::vector<int> sb(3125), rb(3125);
    auto a2a = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                       cc, Algorithm::combining);
    EXPECT_EQ(a2a.schedule().rounds(), 20);           // C = d(n-1)
    EXPECT_EQ(a2a.schedule().send_block_count(), 12500);  // Table 1
    auto ag = cartcomm::allgather_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                       cc, Algorithm::combining);
    EXPECT_EQ(ag.schedule().rounds(), 20);
    EXPECT_EQ(ag.schedule().send_block_count(), 3124);
  });
}

TEST(CartStress, VclockDeterminismAcrossRuns) {
  auto run_once = [] {
    double result = 0.0;
    mpl::RunOptions opts;
    opts.net = mpl::NetConfig::gemini();
    mpl::run(
        16,
        [&](mpl::Comm& world) {
          const std::vector<int> dims{4, 4};
          auto cc = cartcomm::cart_neighborhood_create(
              world, dims, {}, Neighborhood::stencil(2, 4, -1));
          std::vector<int> sb(16 * 10, 1), rb(16 * 10);
          auto op = cartcomm::alltoall_init(sb.data(), 10, kInt, rb.data(), 10,
                                            kInt, cc, Algorithm::combining);
          world.vclock_reset_sync();
          op.execute();
          op.execute();
          const double v = mpl::allreduce(
              world.vclock(), mpl::ReduceOp::max<double>(), world);
          if (world.rank() == 0) result = v;
        },
        opts);
    return result;
  };
  const double a = run_once();
  const double b = run_once();
  EXPECT_GT(a, 0.0);
  EXPECT_EQ(a, b);  // bit-identical regardless of thread scheduling
}

TEST(CartStress, InPlaceHaloBuffersListing3) {
  // Listing 3 uses the same matrix as send and receive buffer: interior
  // regions go out while ghost regions come in — disjoint layouts in one
  // allocation, through one alltoallw.
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    constexpr int N = 5;  // interior
    const Neighborhood nb(2, {0, 1, 0, -1, -1, 0, 1, 0});
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    std::vector<int> matrix((N + 2) * (N + 2), -1);
    for (int i = 1; i <= N; ++i) {
      for (int j = 1; j <= N; ++j) {
        matrix[static_cast<std::size_t>(i * (N + 2) + j)] =
            world.rank() * 1000 + i * 10 + j;
      }
    }
    const mpl::Datatype ROW = mpl::Datatype::contiguous(N, kInt);
    const mpl::Datatype COL = mpl::Datatype::vector(N, 1, N + 2, kInt);
    auto disp = [](int i, int j) {
      return static_cast<std::ptrdiff_t>((i * (N + 2) + j) * sizeof(int));
    };
    std::vector<int> counts(4, 1);
    std::vector<std::ptrdiff_t> sdisp{disp(1, N), disp(1, 1), disp(1, 1),
                                      disp(N, 1)};
    std::vector<std::ptrdiff_t> rdisp{disp(1, 0), disp(1, N + 1), disp(N + 1, 1),
                                      disp(0, 1)};
    std::vector<mpl::Datatype> stypes{COL, COL, ROW, ROW};
    std::vector<mpl::Datatype> rtypes{COL, COL, ROW, ROW};
    cartcomm::alltoallw(matrix.data(), counts, sdisp, stypes, matrix.data(),
                        counts, rdisp, rtypes, cc, Algorithm::combining);

    // Left ghost column came from the (0,-1)-side neighbor's right column.
    const int src_left = cc.source_ranks()[0];
    for (int i = 1; i <= N; ++i) {
      EXPECT_EQ(matrix[static_cast<std::size_t>(i * (N + 2))],
                src_left * 1000 + i * 10 + N);
    }
    const int src_top = cc.source_ranks()[3];
    for (int j = 1; j <= N; ++j) {
      EXPECT_EQ(matrix[static_cast<std::size_t>(j)], src_top * 1000 + N * 10 + j);
    }
  });
}

TEST(CartStress, ManyCommunicatorsConcurrently) {
  // Several neighborhoods over one world, interleaved persistent ops.
  mpl::run(8, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 4};
    auto cc1 = cartcomm::cart_neighborhood_create(world, dims, {},
                                                  Neighborhood::moore(2));
    auto cc2 = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood::von_neumann(2));
    auto cc3 = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood(2, {2, 2, -2, -2}));
    std::vector<int> s1(9, world.rank()), r1(9);
    std::vector<int> s2(4, world.rank() * 2), r2(16);  // 4 blocks of 4
    std::vector<int> s3(2, world.rank() * 3), r3(2);
    auto op1 = cartcomm::alltoall_init(s1.data(), 1, kInt, r1.data(), 1, kInt,
                                       cc1, Algorithm::combining);
    auto op2 = cartcomm::allgather_init(s2.data(), 4, kInt, r2.data(), 4, kInt,
                                        cc2, Algorithm::trivial);
    auto op3 = cartcomm::alltoall_init(s3.data(), 1, kInt, r3.data(), 1, kInt,
                                       cc3, Algorithm::combining);
    for (int iter = 0; iter < 3; ++iter) {
      op1.execute();
      op3.execute();
      op2.execute();
    }
    for (int i = 0; i < 9; ++i) {
      EXPECT_EQ(r1[static_cast<std::size_t>(i)],
                cc1.source_ranks()[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(r3[0], cc3.source_ranks()[0] * 3);
    EXPECT_EQ(r3[1], cc3.source_ranks()[1] * 3);
  });
}

TEST(CartStress, RepeatedCreateDestroyCycles) {
  // Communicator churn: create, use, drop, many times.
  mpl::run(6, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 3};
    for (int cycle = 0; cycle < 20; ++cycle) {
      auto cc = cartcomm::cart_neighborhood_create(
          world, dims, {}, Neighborhood::von_neumann(2));
      std::vector<int> sb(4, cycle), rb(4, -1);
      cartcomm::alltoall(sb.data(), 1, kInt, rb.data(), 1, kInt, cc);
      EXPECT_EQ(rb[0], cycle);
    }
  });
}
