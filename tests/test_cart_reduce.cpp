// Cartesian neighborhood reduction (the Section 2.2 / Section 5 extension).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "cart_test_util.hpp"
#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "telemetry/telemetry.hpp"

using cartcomm::Neighborhood;

TEST(CartReduce, SumOverMooreNeighborhood) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int mine[2] = {world.rank(), 1};
    int out[2] = {-1, -1};
    const int blocks = cartcomm::cart_neighbor_reduce(
        mine, out, 2, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(), cc);
    EXPECT_EQ(blocks, 9);
    // Sum of all source ranks (with multiplicity) and the neighbor count.
    int expect = 0;
    for (int s : cc.source_ranks()) expect += s;
    EXPECT_EQ(out[0], expect);
    EXPECT_EQ(out[1], 9);
  });
}

TEST(CartReduce, MaxExcludesSelfWithoutZeroVector) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{4};
    const Neighborhood nb(1, {-1, 1});  // no zero vector
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int mine = world.rank() * 10;
    int out = -1;
    const int blocks = cartcomm::cart_neighbor_reduce(
        &mine, &out, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::max<int>(),
        cc);
    EXPECT_EQ(blocks, 2);
    const int left = (world.rank() + 3) % 4 * 10;
    const int right = (world.rank() + 1) % 4 * 10;
    EXPECT_EQ(out, std::max(left, right));
  });
}

TEST(CartReduce, StencilAverageOnMesh) {
  // 5-point Jacobi-style averaging with PROC_NULL boundaries: boundary
  // processes reduce over fewer contributions.
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const std::vector<int> periods{0, 0};
    const Neighborhood nb = Neighborhood::von_neumann(2, true);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    const double mine = 1.0;
    double sum = 0.0;
    const int blocks = cartcomm::cart_neighbor_reduce(
        &mine, &sum, 1, mpl::Datatype::of<double>(),
        mpl::ReduceOp::sum<double>(), cc);
    int live = 0;
    for (int s : cc.source_ranks()) live += (s != mpl::PROC_NULL);
    EXPECT_EQ(blocks, live);
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(live));
    // Center of the 3x3 mesh sees all 5 contributions, corners only 3.
    if (world.rank() == 4) {
      EXPECT_EQ(blocks, 5);
    }
    if (world.rank() == 0) {
      EXPECT_EQ(blocks, 3);
    }
  });
}

TEST(CartReduce, CombiningMatchesTrivialOnMoore) {
  mpl::run(12, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 4};
    const Neighborhood nb = Neighborhood::stencil(2, 3, -1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int mine[3] = {world.rank(), world.rank() * world.rank(), 1};
    int a[3], b[3];
    const int na = cartcomm::cart_neighbor_reduce(
        mine, a, 3, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(), cc,
        cartcomm::Algorithm::trivial);
    const int nb2 = cartcomm::cart_neighbor_reduce(
        mine, b, 3, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(), cc,
        cartcomm::Algorithm::combining);
    EXPECT_EQ(na, 9);
    EXPECT_EQ(nb2, 9);
    for (int j = 0; j < 3; ++j) EXPECT_EQ(a[j], b[j]);
  });
}

TEST(CartReduce, CombiningAllDimensionOrders) {
  mpl::run(8, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2, 2};
    const Neighborhood nb(3, {-2, 1, 1, -1, 1, 1, 1, 1, 1, 2, 1, 1});
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const double mine = world.rank() + 1.5;
    double ref = 0.0;
    cartcomm::cart_neighbor_reduce(
        &mine, &ref, 1, mpl::Datatype::of<double>(),
        mpl::ReduceOp::sum<double>(), cc, cartcomm::Algorithm::trivial);
    for (const auto order :
         {cartcomm::DimOrder::natural, cartcomm::DimOrder::increasing_ck,
          cartcomm::DimOrder::decreasing_ck}) {
      double out = 0.0;
      cartcomm::cart_neighbor_reduce(
          &mine, &out, 1, mpl::Datatype::of<double>(),
          mpl::ReduceOp::sum<double>(), cc, cartcomm::Algorithm::combining,
          order);
      EXPECT_DOUBLE_EQ(out, ref);
    }
  });
}

TEST(CartReduce, CombiningHandlesRepetitions) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    // (1,1) twice, plus self twice: multiplicity in both leaf classes.
    const Neighborhood nb(2, {1, 1, 1, 1, 0, 0, 0, 0});
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const long long mine = 1 + world.rank();
    long long a = 0, b = 0;
    cartcomm::cart_neighbor_reduce(
        &mine, &a, 1, mpl::Datatype::of<long long>(),
        mpl::ReduceOp::sum<long long>(), cc, cartcomm::Algorithm::trivial);
    cartcomm::cart_neighbor_reduce(
        &mine, &b, 1, mpl::Datatype::of<long long>(),
        mpl::ReduceOp::sum<long long>(), cc, cartcomm::Algorithm::combining);
    EXPECT_EQ(a, b);
  });
}

TEST(CartReduce, CombiningRandomizedAgainstTrivial) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> off(-2, 2);
  for (int trial = 0; trial < 4; ++trial) {
    const int d = 2 + trial % 2;
    const int t = 3 + trial;
    std::vector<int> flat;
    for (int i = 0; i < t * d; ++i) flat.push_back(off(rng));
    const Neighborhood nb(d, std::move(flat));
    const std::vector<int> dims(static_cast<std::size_t>(d), 3);
    const int p = d == 2 ? 9 : 27;
    mpl::run(p, [&](mpl::Comm& world) {
      auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
      const int mine = world.rank() * 7 + 1;
      int a = 0, b = 0;
      cartcomm::cart_neighbor_reduce(
          &mine, &a, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(), cc,
          cartcomm::Algorithm::trivial);
      cartcomm::cart_neighbor_reduce(
          &mine, &b, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(), cc,
          cartcomm::Algorithm::combining);
      EXPECT_EQ(a, b) << "trial " << trial << " rank " << world.rank();
    });
  }
}

TEST(CartReduce, CombiningMatchesTrivialOnMesh) {
  // The combining schedule now handles mesh boundaries: partial aggregates
  // shrink consistently where the forwarding chain leaves the mesh. Every
  // position class (corner, edge, interior) must agree with the trivial
  // algorithm, on a pure mesh and on mixed periodicity.
  for (const std::vector<int>& periods :
       {std::vector<int>{0, 0}, std::vector<int>{1, 0}, std::vector<int>{0, 1}}) {
    mpl::run(12, [&](mpl::Comm& world) {
      const std::vector<int> dims{3, 4};
      const Neighborhood nb = Neighborhood::moore(2);
      auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
      const long long mine[2] = {world.rank() * 131 + 7, 1};
      long long a[2] = {-1, -1}, b[2] = {-1, -1};
      const int na = cartcomm::cart_neighbor_reduce(
          mine, a, 2, mpl::Datatype::of<long long>(),
          mpl::ReduceOp::sum<long long>(), cc, cartcomm::Algorithm::trivial);
      const int nc = cartcomm::cart_neighbor_reduce(
          mine, b, 2, mpl::Datatype::of<long long>(),
          mpl::ReduceOp::sum<long long>(), cc, cartcomm::Algorithm::combining);
      EXPECT_EQ(na, nc);
      EXPECT_EQ(a[0], b[0]) << "rank " << world.rank();
      EXPECT_EQ(a[1], b[1]) << "rank " << world.rank();
      // a[1] counts the live contributions directly.
      EXPECT_EQ(a[1], na) << "rank " << world.rank();
    });
  }
}

TEST(CartReduce, CombiningRejectsNonCommutativeOps) {
  // The combining algorithm reassociates and reorders contributions;
  // explicitly requesting it with a non-commutative op must throw, and
  // `automatic` must fall back to the trivial fixed-order algorithm.
  EXPECT_THROW(
      mpl::run(4,
               [](mpl::Comm& world) {
                 const std::vector<int> dims{4};
                 auto cc = cartcomm::cart_neighborhood_create(
                     world, dims, {}, Neighborhood::von_neumann(1));
                 const mpl::ReduceOp op = mpl::ReduceOp::make<int>(
                     "second", [](int, int b) { return b; },
                     /*commutative=*/false, 0);
                 int v = 1, out = 0;
                 cartcomm::cart_neighbor_reduce(&v, &out, 1,
                                                mpl::Datatype::of<int>(), op,
                                                cc, cartcomm::Algorithm::combining);
               }),
      mpl::Error);
}

TEST(CartReduce, MinMaxIdentityWhenAllSourcesOffMesh) {
  // Regression: the old implementation zero-filled the result when a
  // process had no valid contributions, which is wrong for min/max (and
  // any op whose identity is not 0). A one-sided neighborhood on a mesh
  // leaves the boundary process with zero on-mesh sources.
  mpl::run(2, [](mpl::Comm& world) {
    const std::vector<int> dims{2};
    const std::vector<int> periods{0};
    const Neighborhood nb(1, {1});  // source at -1: off-mesh for rank 0
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    const int mine = -5 - world.rank();
    int mx = 123, mn = 123;
    const int bx = cartcomm::cart_neighbor_reduce(
        &mine, &mx, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::max<int>(), cc);
    const int bn = cartcomm::cart_neighbor_reduce(
        &mine, &mn, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::min<int>(), cc);
    if (world.rank() == 0) {
      EXPECT_EQ(bx, 0);
      EXPECT_EQ(mx, std::numeric_limits<int>::lowest());
      EXPECT_EQ(bn, 0);
      EXPECT_EQ(mn, std::numeric_limits<int>::max());
    } else {
      EXPECT_EQ(bx, 1);
      EXPECT_EQ(mx, -5);  // rank 0's value; all values negative
      EXPECT_EQ(mn, -5);
    }
  });
}

TEST(CartReduce, AllreduceIncludesSelfExactlyOnce) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{4};
    const Neighborhood nb(1, {-1, 1});  // no zero vector
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int mine = world.rank() * 10 + 1;
    int out = -1;
    const int blocks = cartcomm::cart_neighbor_allreduce(
        &mine, &out, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(),
        cc);
    EXPECT_EQ(blocks, 3);  // left, right, self
    const int left = (world.rank() + 3) % 4 * 10 + 1;
    const int right = (world.rank() + 1) % 4 * 10 + 1;
    EXPECT_EQ(out, left + right + mine);
    // A neighborhood already containing the zero vector is unchanged:
    // allreduce == reduce.
    const Neighborhood nbz(1, {-1, 0, 1});
    auto ccz = cartcomm::cart_neighborhood_create(world, dims, {}, nbz);
    int out2 = -1;
    const int blocks2 = cartcomm::cart_neighbor_allreduce(
        &mine, &out2, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(),
        ccz);
    EXPECT_EQ(blocks2, 3);
    EXPECT_EQ(out2, out);
  });
}

TEST(CartReduce, ReduceScatterBlockMatchesOracle) {
  // Block i of the send buffer is addressed to the target at N[i]; each
  // process receives the op over the blocks addressed to it. Checked on a
  // mesh (boundary processes see fewer contributions) for both algorithms.
  // Operands stay below 2^20, so no sum of the t blocks can overflow int.
  const auto operand = [](int rank, int i, int e) {
    return static_cast<int>(
        static_cast<unsigned>(carttest::pattern(rank, i, e)) % (1u << 20));
  };
  for (const auto alg :
       {cartcomm::Algorithm::trivial, cartcomm::Algorithm::combining}) {
    mpl::run(9, [&](mpl::Comm& world) {
      const std::vector<int> dims{3, 3};
      const std::vector<int> periods{0, 0};
      const Neighborhood nb = Neighborhood::von_neumann(2, true);
      auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
      const int t = nb.count();
      const int m = 3;
      std::vector<int> sendbuf(static_cast<std::size_t>(t) * m);
      for (int i = 0; i < t; ++i)
        for (int e = 0; e < m; ++e)
          sendbuf[static_cast<std::size_t>(i) * m + e] =
              operand(world.rank(), i, e);
      std::vector<int> out(static_cast<std::size_t>(m), -777);
      const int blocks = cartcomm::cart_reduce_scatter_block(
          sendbuf.data(), out.data(), m, mpl::Datatype::of<int>(),
          mpl::ReduceOp::sum<int>(), cc, alg);
      // Oracle: contribution i arrives from the source at -N[i] when that
      // process exists; it sent operand(src, i, e).
      int live = 0;
      std::vector<int> expect(static_cast<std::size_t>(m), 0);
      for (int i = 0; i < t; ++i) {
        const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
        if (src == mpl::PROC_NULL) continue;
        ++live;
        for (int e = 0; e < m; ++e)
          expect[static_cast<std::size_t>(e)] += operand(src, i, e);
      }
      EXPECT_EQ(blocks, live);
      for (int e = 0; e < m; ++e)
        EXPECT_EQ(out[static_cast<std::size_t>(e)],
                  expect[static_cast<std::size_t>(e)])
            << "rank " << world.rank() << " elem " << e;
    });
  }
}

TEST(CartReduce, PersistentVariantsExecuteRepeatedly) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    int mine = 0;
    int out = -1;
    auto op = cartcomm::cart_neighbor_reduce_init(
        &mine, &out, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(),
        cc);
    // The reducing trivial algorithm is schedule-native too, so the
    // schedule accessor is valid for every resolved algorithm.
    EXPECT_GT(op.schedule().rounds(), 0);
    for (int rep = 0; rep < 3; ++rep) {
      mine = world.rank() + rep;
      out = -1;
      op.execute();
      int expect = 0;
      for (int s : cc.source_ranks()) expect += s + rep;
      EXPECT_EQ(out, expect) << "rep " << rep;
    }
    // Non-blocking persistent execution.
    mine = world.rank() + 100;
    out = -1;
    auto req = op.start();
    req.wait();
    int expect = 0;
    for (int s : cc.source_ranks()) expect += s + 100;
    EXPECT_EQ(out, expect);

    // Persistent allreduce and reduce_scatter.
    const Neighborhood nb2(2, {-1, 0, 1, 0});
    auto cc2 = cartcomm::cart_neighborhood_create(world, dims, {}, nb2);
    double dv = 0.0, dout = -1.0;
    auto ar = cartcomm::cart_neighbor_allreduce_init(
        &dv, &dout, 1, mpl::Datatype::of<double>(),
        mpl::ReduceOp::sum<double>(), cc2);
    dv = world.rank() + 0.25;
    ar.execute();
    double expect2 = dv;
    for (int s : cc2.source_ranks()) expect2 += s + 0.25;
    EXPECT_DOUBLE_EQ(dout, expect2);

    const int t2 = nb2.count();
    std::vector<int> sb(static_cast<std::size_t>(t2));
    for (int i = 0; i < t2; ++i)
      sb[static_cast<std::size_t>(i)] = carttest::pattern(world.rank(), i, 0);
    int sout = -1;
    auto rs = cartcomm::cart_reduce_scatter_block_init(
        sb.data(), &sout, 1, mpl::Datatype::of<int>(),
        mpl::ReduceOp::sum<int>(), cc2);
    rs.execute();
    int sexpect = 0;
    for (int i = 0; i < t2; ++i) {
      const int src = cc2.source_ranks()[static_cast<std::size_t>(i)];
      sexpect += carttest::pattern(src, i, 0);
    }
    EXPECT_EQ(sout, sexpect);
  });
}

TEST(CartReduce, UserOpAndFloatConsistency) {
  // A user-defined commutative op through the combining schedule, and
  // bit-identical float results across repeated runs (compile-order
  // folding makes the combine order a pure function of the tree).
  std::vector<double> first(9), second(9);
  auto run_once = [&](std::vector<double>& out) {
    mpl::run(9, [&](mpl::Comm& world) {
      const std::vector<int> dims{3, 3};
      const Neighborhood nb = Neighborhood::moore(2);
      auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
      const double mine = 1.0 / (world.rank() + 3.0);
      double r = 0.0;
      const mpl::ReduceOp op = mpl::ReduceOp::make<double>(
          "sum2", [](double a, double b) { return a + b; },
          /*commutative=*/true, 0.0);
      cartcomm::cart_neighbor_reduce(&mine, &r, 1, mpl::Datatype::of<double>(),
                                     op, cc, cartcomm::Algorithm::combining);
      out[static_cast<std::size_t>(world.rank())] = r;
    });
  };
  run_once(first);
  run_once(second);
  for (int r = 0; r < 9; ++r) {
    // Bitwise equality, not EXPECT_DOUBLE_EQ: determinism is the claim.
    EXPECT_EQ(std::memcmp(&first[static_cast<std::size_t>(r)],
                          &second[static_cast<std::size_t>(r)],
                          sizeof(double)),
              0)
        << "rank " << r;
  }
}

TEST(CartReduce, UserOpsSharingANameNeverShareASchedule) {
  // Two user ops under one name and element type fold differently. The
  // reduce slot matches the op digest, so a repeated call on the same
  // buffers must not replay the other op's schedule.
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{4};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::von_neumann(1));
    const mpl::ReduceOp first = mpl::ReduceOp::make<int>(
        "pick", [](int a, int) { return a; }, /*commutative=*/false);
    const mpl::ReduceOp last = mpl::ReduceOp::make<int>(
        "pick", [](int, int b) { return b; }, /*commutative=*/false);
    EXPECT_NE(first.digest(), last.digest());
    const int mine = world.rank() * 10;
    int out = -1;
    // The trivial algorithm folds in neighbor order.
    cartcomm::cart_neighbor_reduce(&mine, &out, 1, mpl::Datatype::of<int>(),
                                   first, cc, cartcomm::Algorithm::trivial);
    EXPECT_EQ(out, cc.source_ranks().front() * 10);
    cartcomm::cart_neighbor_reduce(&mine, &out, 1, mpl::Datatype::of<int>(),
                                   last, cc, cartcomm::Algorithm::trivial);
    EXPECT_EQ(out, cc.source_ranks().back() * 10);
  });
}

TEST(CartReduce, RejectsPermutedTwoBlockLayout) {
  // Two ints stored in swapped order: 8 bytes of payload over an 8-byte
  // extent, but two blocks, so the fold cannot walk it as an int array
  // (it used to sum the wrong halves). Every Cartesian reduction, with
  // either algorithm, refuses it.
  const mpl::Datatype kInt = mpl::Datatype::of<int>();
  const int lens[] = {1, 1};
  const std::ptrdiff_t displs[] = {4, 0};
  const mpl::Datatype types[] = {kInt, kInt};
  const mpl::Datatype swapped = mpl::Datatype::strukt(lens, displs, types);
  ASSERT_FALSE(swapped.dense());
  for (const auto alg :
       {cartcomm::Algorithm::trivial, cartcomm::Algorithm::combining}) {
    for (int entry = 0; entry < 3; ++entry) {
      EXPECT_THROW(
          mpl::run(4,
                   [&](mpl::Comm& world) {
                     const std::vector<int> dims{2, 2};
                     auto cc = cartcomm::cart_neighborhood_create(
                         world, dims, {},
                         Neighborhood::von_neumann(2, /*include_self=*/true));
                     const std::vector<int> in(2 * 5, world.rank());
                     std::vector<int> out(2, -1);
                     const mpl::ReduceOp sum = mpl::ReduceOp::sum<int>();
                     switch (entry) {
                       case 0:
                         cartcomm::cart_neighbor_reduce(
                             in.data(), out.data(), 1, swapped, sum, cc, alg);
                         break;
                       case 1:
                         cartcomm::cart_neighbor_allreduce(
                             in.data(), out.data(), 1, swapped, sum, cc, alg);
                         break;
                       default:
                         cartcomm::cart_reduce_scatter_block(
                             in.data(), out.data(), 1, swapped, sum, cc, alg);
                     }
                   }),
          mpl::Error)
          << "entry point " << entry << " combining "
          << (alg == cartcomm::Algorithm::combining);
    }
  }
}

TEST(CartReduce, AutomaticPrefersCombiningOnTorus) {
  // No direct introspection for the chosen path; verify automatic gives
  // trivially-correct results on a case where combining is selected.
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::moore(2));
    const int mine = 2;
    int out = 0;
    const int blocks = cartcomm::cart_neighbor_reduce(
        &mine, &out, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(),
        cc);
    EXPECT_EQ(blocks, 9);
    EXPECT_EQ(out, 18);
  });
}

TEST(CartReduce, CombiningVolumeMatchesTreeAndBeatsTrivial) {
  // The combine-on-the-fly unpack keeps the per-hop payload at one block
  // per tree node, so the per-process volume equals the allgather tree's
  // (#edges) instead of one block per neighbor. A neighborhood with
  // repeated offsets shares tree nodes: (1,1) x3 builds a 2-edge chain, so
  // combining moves 2 blocks where the trivial algorithm moves 3. Asserted
  // through the production telemetry byte counters.
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  const int m = 4;
  std::vector<std::uint64_t> reduce_b(9), trivial_b(9), allgather_b(9);
  std::vector<std::uint64_t> folds(9), reduces(9);
  mpl::run(
      9,
      [&](mpl::Comm& world) {
        const std::vector<int> dims{3, 3};
        const Neighborhood nb(2, {1, 1, 1, 1, 1, 1});
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        const std::size_t r = static_cast<std::size_t>(world.rank());
        std::vector<int> mine(m, world.rank() + 1);
        std::vector<int> out(m, -1);
        const telemetry::RankTelemetry* tm = world.telemetry();
        ASSERT_NE(tm, nullptr);
        const std::uint64_t b0 = tm->bytes_sent();
        cartcomm::cart_neighbor_reduce(
            mine.data(), out.data(), m, mpl::Datatype::of<int>(),
            mpl::ReduceOp::sum<int>(), cc, cartcomm::Algorithm::combining);
        const std::uint64_t b1 = tm->bytes_sent();
        cartcomm::cart_neighbor_reduce(
            mine.data(), out.data(), m, mpl::Datatype::of<int>(),
            mpl::ReduceOp::sum<int>(), cc, cartcomm::Algorithm::trivial);
        const std::uint64_t b2 = tm->bytes_sent();
        const int t = nb.count();
        std::vector<int> ag(static_cast<std::size_t>(t) * m, 0);
        cartcomm::allgather(mine.data(), m, mpl::Datatype::of<int>(), ag.data(),
                            m, mpl::Datatype::of<int>(), cc,
                            cartcomm::Algorithm::combining);
        const std::uint64_t b3 = tm->bytes_sent();
        reduce_b[r] = b1 - b0;
        trivial_b[r] = b2 - b1;
        allgather_b[r] = b3 - b2;
        folds[r] = tm->reduce_folds();
        reduces[r] = tm->reduces();
      },
      opts);
  for (int r = 0; r < 9; ++r) {
    const std::size_t ur = static_cast<std::size_t>(r);
    // 2 tree edges x 16 B vs 3 neighbor blocks x 16 B.
    EXPECT_EQ(reduce_b[ur], 2u * m * sizeof(int)) << "rank " << r;
    EXPECT_EQ(trivial_b[ur], 3u * m * sizeof(int)) << "rank " << r;
    // Identical tree, identical movement: V -> t shrinkage means the
    // reducing schedule never moves more than the movement schedule.
    EXPECT_EQ(reduce_b[ur], allgather_b[ur]) << "rank " << r;
    EXPECT_LT(reduce_b[ur], trivial_b[ur]) << "rank " << r;
    // Fold and execution counters flowed into the telemetry block.
    EXPECT_GT(folds[ur], 0u) << "rank " << r;
    EXPECT_EQ(reduces[ur], 2u) << "rank " << r;  // both reducing executions
  }
}

TEST(CartReduce, DeterministicUnderFaultInjection) {
  // Same fault seed => bit-identical virtual clocks and bit-identical
  // float results: drops and jitter reorder message arrivals, but the fold
  // program is applied in compile order, never arrival order.
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  opts.faults =
      mpl::FaultConfig::parse("seed=11,drop=0.05,delay=1e-6,delay_prob=0.5");
  std::vector<double> clocks1(9), clocks2(9), res1(9), res2(9);
  auto run_once = [&](std::vector<double>& clocks, std::vector<double>& res) {
    mpl::run(
        9,
        [&](mpl::Comm& world) {
          const std::vector<int> dims{3, 3};
          const Neighborhood nb = Neighborhood::moore(2);
          auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
          const double mine = 0.1 * (world.rank() + 1);
          double r = 0.0;
          for (int rep = 0; rep < 3; ++rep) {
            cartcomm::cart_neighbor_reduce(
                &mine, &r, 1, mpl::Datatype::of<double>(),
                mpl::ReduceOp::sum<double>(), cc,
                cartcomm::Algorithm::combining);
          }
          res[static_cast<std::size_t>(world.rank())] = r;
          clocks[static_cast<std::size_t>(world.rank())] = world.vclock();
        },
        opts);
  };
  run_once(clocks1, res1);
  run_once(clocks2, res2);
  for (int r = 0; r < 9; ++r) {
    const std::size_t ur = static_cast<std::size_t>(r);
    EXPECT_EQ(std::memcmp(&clocks1[ur], &clocks2[ur], sizeof(double)), 0)
        << "rank " << r;
    EXPECT_EQ(std::memcmp(&res1[ur], &res2[ur], sizeof(double)), 0)
        << "rank " << r;
  }
}

TEST(CartReduce, EmptyNeighborhoodZeroFills) {
  mpl::run(2, [](mpl::Comm& world) {
    const std::vector<int> dims{2};
    const Neighborhood nb(1, std::vector<int>{});
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    double out = 42.0;
    EXPECT_EQ(cartcomm::cart_neighbor_reduce(
        &out, &out, 0, mpl::Datatype::of<double>(),
        mpl::ReduceOp::sum<double>(), cc), 0);
    int iout = 7;
    const int mine = 3;
    EXPECT_EQ(cartcomm::cart_neighbor_reduce(
        &mine, &iout, 1, mpl::Datatype::of<int>(), mpl::ReduceOp::sum<int>(),
        cc), 0);
    EXPECT_EQ(iout, 0);  // zero-filled
  });
}

// ---------------------------------------------------------------------------
// The shared-partial DAG: tree nodes covering equal subtrees compute equal
// partials, so one block per distinct (level, coordinate, class) travels.
// ---------------------------------------------------------------------------

namespace {

struct CallCounts {
  std::uint64_t rounds = 0;
  std::uint64_t bytes = 0;
  std::uint64_t folds = 0;
};

// What one call adds to this rank's production telemetry counters.
template <class F>
CallCounts counted(const mpl::Comm& world, F&& call) {
  const telemetry::RankTelemetry* tm = world.telemetry();
  const telemetry::Counts a = tm->totals();
  call();
  const telemetry::Counts b = tm->totals();
  return {b[telemetry::Count::rounds] - a[telemetry::Count::rounds],
          b[telemetry::Count::bytes_sent] - a[telemetry::Count::bytes_sent],
          b[telemetry::Count::reduce_folds] - a[telemetry::Count::reduce_folds]};
}

// The neighborhoods whose DAG is not one class per level: unit offsets,
// long hops, repeated offsets and the zero vector.
std::vector<Neighborhood> irregular_neighborhoods() {
  std::vector<Neighborhood> out;
  out.push_back(Neighborhood::von_neumann(2));
  out.push_back(Neighborhood::von_neumann(3, true));
  out.push_back(Neighborhood(2, {2, 0, 0, 1, -1, -1, 0, 0, 2, 0, 1, 2}));
  out.push_back(Neighborhood(2, {1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0, -1, 1}));
  std::mt19937 rng(2025);
  std::uniform_int_distribution<int> off(-2, 2);
  for (int trial = 0; trial < 4; ++trial) {
    const int d = 2 + trial % 2;
    std::vector<int> flat;
    for (int i = 0; i < (5 + 2 * trial) * d; ++i) flat.push_back(off(rng));
    out.emplace_back(d, std::move(flat));
  }
  return out;
}

int contribution_of(int rank) { return 3 * rank + 1; }

}  // namespace

TEST(CartReduceDag, BoxesMoveCBlocksInCRounds) {
  // Stencil/Moore boxes are products of per-dimension offset sets: each
  // tree level is one class, so reduce and allreduce send one block per
  // round (C blocks in C rounds) and fold at most twice per round plus the
  // leaf init. The sums are exact.
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  const int m = 3;
  for (int d = 2; d <= 5; ++d) {
    for (const int n : {3, 5}) {
      const Neighborhood nb = Neighborhood::stencil(d, n, -(n / 2));
      const int C = nb.combining_rounds();
      EXPECT_EQ(cartcomm::reduce_volume(nb), C) << "d=" << d << " n=" << n;
      std::vector<int> dims(static_cast<std::size_t>(d), 1);
      dims[static_cast<std::size_t>(d - 1)] = 2;
      dims[static_cast<std::size_t>(d - 2)] = 2;
      mpl::run(
          4,
          [&](mpl::Comm& world) {
            auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
            std::vector<int> mine(m, contribution_of(world.rank()));
            int expect = 0;
            for (const int s : cc.source_ranks()) expect += contribution_of(s);
            for (const bool all : {false, true}) {
              std::vector<int> out(m, -1);
              const CallCounts k = counted(world, [&] {
                const auto fn = all ? cartcomm::cart_neighbor_allreduce
                                    : cartcomm::cart_neighbor_reduce;
                fn(mine.data(), out.data(), m, mpl::Datatype::of<int>(),
                   mpl::ReduceOp::sum<int>(), cc,
                   cartcomm::Algorithm::combining,
                   cartcomm::DimOrder::increasing_ck);
              });
              SCOPED_TRACE("d=" + std::to_string(d) + " n=" +
                           std::to_string(n) + (all ? " allreduce" : " reduce") +
                           " rank " + std::to_string(world.rank()));
              EXPECT_EQ(k.rounds, static_cast<std::uint64_t>(C));
              EXPECT_EQ(k.bytes, static_cast<std::uint64_t>(C) * m * sizeof(int));
              EXPECT_LE(k.folds, static_cast<std::uint64_t>(2 * C + 1));
              for (const int v : out) EXPECT_EQ(v, expect);
            }
          },
          opts);
    }
  }
}

TEST(CartReduceDag, IrregularNeverExceedsTreeAndMatchesTrivial) {
  // Where equal subtrees are rarer the DAG gains partly, and never moves
  // more than the tree (the allgather volume). On a torus every rank moves
  // exactly reduce_volume blocks; on a mesh at most that. Integer results
  // equal the trivial ones exactly, float results within the reassociation
  // bound, for reduce and allreduce.
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  const int m = 2;
  for (const Neighborhood& nb : irregular_neighborhoods()) {
    const int d = nb.ndims();
    const long long tree = cartcomm::allgather_volume(nb);
    const long long dag = cartcomm::reduce_volume(nb);
    EXPECT_LE(dag, tree);
    for (const int periodic : {1, 0}) {
      const std::vector<int> dims(static_cast<std::size_t>(d), 3);
      const std::vector<int> periods(static_cast<std::size_t>(d), periodic);
      mpl::run(
          carttest::product(dims),
          [&](mpl::Comm& world) {
            auto cc =
                cartcomm::cart_neighborhood_create(world, dims, periods, nb);
            SCOPED_TRACE("t=" + std::to_string(nb.count()) + " d=" +
                         std::to_string(d) + " periodic=" +
                         std::to_string(periodic) + " rank " +
                         std::to_string(world.rank()));
            std::vector<int> mine(m, contribution_of(world.rank()));
            std::vector<double> dmine(m, 1.0 / (3.0 + world.rank()));
            for (const bool all : {false, true}) {
              const auto fn = all ? cartcomm::cart_neighbor_allreduce
                                  : cartcomm::cart_neighbor_reduce;
              std::vector<int> a(m, -1), b(m, -2);
              fn(mine.data(), a.data(), m, mpl::Datatype::of<int>(),
                 mpl::ReduceOp::sum<int>(), cc, cartcomm::Algorithm::trivial,
                 cartcomm::DimOrder::increasing_ck);
              const CallCounts k = counted(world, [&] {
                fn(mine.data(), b.data(), m, mpl::Datatype::of<int>(),
                   mpl::ReduceOp::sum<int>(), cc,
                   cartcomm::Algorithm::combining,
                   cartcomm::DimOrder::increasing_ck);
              });
              EXPECT_EQ(a, b) << (all ? "allreduce" : "reduce");
              if (!all) {
                const std::uint64_t blocks = k.bytes / (m * sizeof(int));
                EXPECT_LE(blocks, static_cast<std::uint64_t>(tree));
                if (periodic == 1) {
                  EXPECT_EQ(blocks, static_cast<std::uint64_t>(dag));
                } else {
                  EXPECT_LE(blocks, static_cast<std::uint64_t>(dag));
                }
              }
              std::vector<double> da(m, -1.0), db(m, -2.0);
              fn(dmine.data(), da.data(), m, mpl::Datatype::of<double>(),
                 mpl::ReduceOp::sum<double>(), cc,
                 cartcomm::Algorithm::trivial,
                 cartcomm::DimOrder::increasing_ck);
              fn(dmine.data(), db.data(), m, mpl::Datatype::of<double>(),
                 mpl::ReduceOp::sum<double>(), cc,
                 cartcomm::Algorithm::combining,
                 cartcomm::DimOrder::increasing_ck);
              for (int e = 0; e < m; ++e) {
                const double tol = 64.0 *
                                   std::numeric_limits<double>::epsilon() *
                                   (nb.count() + 1.0);
                EXPECT_NEAR(db[static_cast<std::size_t>(e)],
                            da[static_cast<std::size_t>(e)], tol);
              }
            }
          },
          opts);
    }
  }
}

TEST(CartReduceDag, DuplicatesMeshesAndIdentityFills) {
  // Repeated offsets put leaves of different multiplicity into different
  // classes; on a mesh the partials shrink where origins fall off; a rank
  // none of whose sources exists gets the op identity. max and min agree
  // with the trivial algorithm everywhere, for reduce and allreduce (whose
  // appended zero vector joins an existing leaf class).
  const Neighborhood nb(2, {2, 0, 2, 0, 2, 1, 1, 1, 1, 1, 0, 1});
  for (const std::vector<int>& periods :
       {std::vector<int>{0, 0}, std::vector<int>{1, 0}}) {
    mpl::run(9, [&](mpl::Comm& world) {
      const std::vector<int> dims{3, 3};
      auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
      const int mine[2] = {contribution_of(world.rank()), -world.rank()};
      bool any_source = false;
      for (const int s : cc.source_ranks()) any_source |= s != mpl::PROC_NULL;
      for (const bool all : {false, true}) {
        const auto fn = all ? cartcomm::cart_neighbor_allreduce
                            : cartcomm::cart_neighbor_reduce;
        const mpl::ReduceOp ops[] = {mpl::ReduceOp::max<int>(),
                                     mpl::ReduceOp::min<int>(),
                                     mpl::ReduceOp::sum<int>()};
        const int identity[] = {std::numeric_limits<int>::min(),
                                std::numeric_limits<int>::max(), 0};
        for (int o = 0; o < 3; ++o) {
          int a[2] = {7, 7}, b[2] = {9, 9};
          fn(mine, a, 2, mpl::Datatype::of<int>(), ops[o], cc,
             cartcomm::Algorithm::trivial, cartcomm::DimOrder::increasing_ck);
          fn(mine, b, 2, mpl::Datatype::of<int>(), ops[o], cc,
             cartcomm::Algorithm::combining,
             cartcomm::DimOrder::increasing_ck);
          EXPECT_EQ(a[0], b[0]) << ops[o].name() << " rank " << world.rank();
          EXPECT_EQ(a[1], b[1]) << ops[o].name() << " rank " << world.rank();
          if (!all && !any_source) {
            EXPECT_EQ(b[0], identity[o]) << ops[o].name();
            EXPECT_EQ(b[1], identity[o]) << ops[o].name();
          }
        }
      }
    });
  }
}

TEST(CartReduceDag, FloatFoldOrderIsFixedDimensionByDimension) {
  // The documented combine order on a product neighborhood: the deepest
  // dimension first, and within a dimension the zero child, then the
  // arrivals in increasing coordinate (coordinate c arrives from -c*e_k).
  // On a 3x3 torus with Moore(2), increasing-C_k order keeps dimensions
  // (0, 1), so phase 0 sums along dimension 1 and phase 1 along 0:
  //   S(x)  = (v(x) + v(x + e1)) + v(x - e1)
  //   R(x)  = (S(x) + S(x + e0)) + S(x - e0)
  // Floats chosen so association matters must match bit for bit.
  std::vector<double> got(9);
  mpl::run(9, [&](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::moore(2));
    const double mine = 1.0 / (7.0 + world.rank()) + world.rank() * 1e8;
    double r = 0.0;
    cartcomm::cart_neighbor_allreduce(&mine, &r, 1,
                                      mpl::Datatype::of<double>(),
                                      mpl::ReduceOp::sum<double>(), cc,
                                      cartcomm::Algorithm::combining);
    got[static_cast<std::size_t>(world.rank())] = r;
  });
  const mpl::CartGrid grid(std::vector<int>{3, 3}, std::vector<int>{1, 1});
  auto v = [&](std::vector<int> x) {
    for (int& c : x) c = (c + 3) % 3;
    const int r = grid.rank_of(x);
    return 1.0 / (7.0 + r) + r * 1e8;
  };
  auto S = [&](int x0, int x1) {
    return (v({x0, x1}) + v({x0, x1 + 1})) + v({x0, x1 - 1});
  };
  for (int r = 0; r < 9; ++r) {
    const std::vector<int> x = grid.coords_of(r);
    const double expect =
        (S(x[0], x[1]) + S(x[0] + 1, x[1])) + S(x[0] - 1, x[1]);
    const double g = got[static_cast<std::size_t>(r)];
    EXPECT_EQ(std::memcmp(&g, &expect, sizeof(double)), 0)
        << "rank " << r << ": " << g << " vs " << expect;
  }
}

TEST(CartReduceDag, FloatResultsBitIdenticalAcrossRunsAndFaultSeeds) {
  // The fold program is a function of the DAG alone: results do not depend
  // on arrival order, so runs without faults and under two different
  // drop/jitter seeds agree bit for bit, zero-child folds and partials
  // folded into several parents included.
  const Neighborhood nb(2, {1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0, -1, 1, 2, -1});
  auto run_once = [&](const char* faults) {
    mpl::RunOptions opts;
    opts.net = mpl::NetConfig::omnipath();
    if (faults != nullptr) opts.faults = mpl::FaultConfig::parse(faults);
    std::vector<double> res(12 * 2);
    mpl::run(
        12,
        [&](mpl::Comm& world) {
          auto cc = cartcomm::cart_neighborhood_create(
              world, std::vector<int>{4, 3}, std::vector<int>{1, 0}, nb);
          const double mine[2] = {0.1 * (world.rank() + 1),
                                  1.0 / (world.rank() + 3.0)};
          double out[2] = {0.0, 0.0};
          for (int rep = 0; rep < 2; ++rep) {
            cartcomm::cart_neighbor_allreduce(
                mine, out, 2, mpl::Datatype::of<double>(),
                mpl::ReduceOp::sum<double>(), cc,
                cartcomm::Algorithm::combining);
          }
          std::memcpy(&res[static_cast<std::size_t>(world.rank()) * 2], out,
                      sizeof out);
        },
        opts);
    return res;
  };
  const std::vector<double> clean = run_once(nullptr);
  const std::vector<double> seed11 =
      run_once("seed=11,drop=0.05,delay=1e-6,delay_prob=0.5");
  const std::vector<double> seed12 =
      run_once("seed=12,drop=0.1,delay=2e-6,delay_prob=0.3");
  EXPECT_EQ(std::memcmp(clean.data(), seed11.data(),
                        clean.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(clean.data(), seed12.data(),
                        clean.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(clean.data(), run_once(nullptr).data(),
                        clean.size() * sizeof(double)),
            0);
}
