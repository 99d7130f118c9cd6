// cart_neighborhood_create (Listing 1), helper functions (Listing 2),
// isomorphism detection (Section 2.2).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"

using cartcomm::Neighborhood;

TEST(CartNeighborhoodCreate, BasicProperties) {
  mpl::run(12, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 4};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    EXPECT_TRUE(cc.valid());
    EXPECT_EQ(cc.rank(), world.rank());
    EXPECT_EQ(cc.size(), 12);
    EXPECT_EQ(cc.neighbor_count(), 9);
    EXPECT_EQ(cc.neighborhood(), nb);
    EXPECT_EQ(cc.stats().combining_rounds, 4);
  });
}

TEST(CartNeighborhoodCreate, IsolatedFromParent) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::von_neumann(2));
    // Traffic on the parent must not interfere with the cart communicator.
    if (world.rank() == 0) {
      const int v = 5;
      world.send(&v, 1, mpl::Datatype::of<int>(), 1, cartcomm::kCartTag);
    }
    std::vector<int> sb(4, world.rank()), rb(4, -1);
    cartcomm::alltoall(sb.data(), 1, mpl::Datatype::of<int>(), rb.data(), 1,
                       mpl::Datatype::of<int>(), cc);
    if (world.rank() == 1) {
      int v = -1;
      world.recv(&v, 1, mpl::Datatype::of<int>(), 0, cartcomm::kCartTag);
      EXPECT_EQ(v, 5);
    }
  });
}

TEST(CartNeighborhoodCreate, UserWildcardReceiveNeverMatchesCollectives) {
  // A user ANY_SOURCE/ANY_TAG receive posted on the Cartesian communicator
  // itself stays pending through every kind of schedule execution and then
  // takes exactly the user message sent afterwards. Were schedule traffic
  // on the user channel, the wildcard would take a collective message and
  // the collective would wedge (the watchdog turns that into an error).
  mpl::RunOptions opts;
  opts.faults.watchdog_ms = 2000;
  mpl::run(
      4,
      [](mpl::Comm& world) {
        const std::vector<int> dims{2, 2};
        const Neighborhood nb = Neighborhood::moore(2);
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        const mpl::Datatype kInt = mpl::Datatype::of<int>();
        const int t = nb.count();
        int user = -1;
        mpl::Request wild;
        if (world.rank() == 0) {
          wild = cc.comm().irecv(&user, 1, kInt, mpl::ANY_SOURCE, mpl::ANY_TAG);
        }
        std::vector<int> sb(static_cast<std::size_t>(t));
        for (int i = 0; i < t; ++i) {
          sb[static_cast<std::size_t>(i)] = world.rank() * 100 + i;
        }
        auto expect_alltoall = [&](const std::vector<int>& rb) {
          for (int i = 0; i < t; ++i) {
            const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
            EXPECT_EQ(rb[static_cast<std::size_t>(i)], src * 100 + i)
                << "block " << i;
          }
        };
        for (const auto alg : {cartcomm::Algorithm::trivial,
                               cartcomm::Algorithm::combining}) {
          std::vector<int> rb(static_cast<std::size_t>(t), -1);
          cartcomm::alltoall(sb.data(), 1, kInt, rb.data(), 1, kInt, cc, alg);
          expect_alltoall(rb);
        }
        std::vector<int> rb(static_cast<std::size_t>(t), -1);
        auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1,
                                          kInt, cc,
                                          cartcomm::Algorithm::combining);
        op.start().wait();
        expect_alltoall(rb);
        if (world.rank() == 1) {
          const int v = 4242;
          cc.comm().send(&v, 1, kInt, 0, 5);
        }
        if (world.rank() == 0) {
          const mpl::Status st = wild.wait();
          EXPECT_EQ(user, 4242);
          EXPECT_EQ(st.source, 1);
          EXPECT_EQ(st.tag, 5);
        }
      },
      opts);
}

TEST(CartNeighborhoodCreate, RejectsNonIsomorphic) {
  EXPECT_THROW(
      mpl::run(4,
               [](mpl::Comm& world) {
                 const std::vector<int> dims{2, 2};
                 // Process 2 supplies a different offset list.
                 std::vector<int> flat =
                     world.rank() == 2 ? std::vector<int>{1, 0}
                                       : std::vector<int>{0, 1};
                 cartcomm::cart_neighborhood_create(world, dims, {},
                                                    Neighborhood(2, flat));
               }),
      mpl::Error);
}

TEST(CartNeighborhoodCreate, RejectsWrongArity) {
  EXPECT_THROW(mpl::run(4,
                        [](mpl::Comm& world) {
                          const std::vector<int> dims{2, 2};
                          cartcomm::cart_neighborhood_create(
                              world, dims, {}, Neighborhood(3, {1, 0, 0}));
                        }),
               mpl::Error);
}

TEST(CartNeighborhoodCreate, WeightsStored) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    const Neighborhood nb = Neighborhood::von_neumann(2);
    const std::vector<int> w{4, 4, 1, 1};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb, w);
    EXPECT_EQ(cc.weights().size(), 4u);
    EXPECT_EQ(cc.weights()[0], 4);
  });
}

TEST(IsomorphismDetection, AcceptsIdenticalLists) {
  mpl::run(6, [](mpl::Comm& world) {
    EXPECT_TRUE(cartcomm::is_isomorphic_neighborhood(
        world, Neighborhood::stencil(2, 3, -1)));
  });
}

TEST(IsomorphismDetection, RejectsDifferentCounts) {
  mpl::run(6, [](mpl::Comm& world) {
    const Neighborhood nb = world.rank() == 3
                                ? Neighborhood::von_neumann(2)
                                : Neighborhood::moore(2);
    EXPECT_FALSE(cartcomm::is_isomorphic_neighborhood(world, nb));
  });
}

TEST(IsomorphismDetection, RejectsPermutedLists) {
  // Same set of offsets in a different order is not accepted (block
  // placement depends on list order).
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> a{1, 0, 0, 1};
    const std::vector<int> b{0, 1, 1, 0};
    const Neighborhood nb(2, world.rank() == 0 ? a : b);
    EXPECT_FALSE(cartcomm::is_isomorphic_neighborhood(world, nb));
  });
}

TEST(Listing2Helpers, RelativeRankAndShift) {
  mpl::run(12, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 4};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::moore(2));
    const std::array<int, 2> rel{1, -1};
    const int target = cc.relative_rank(rel);
    auto [src, dst] = cc.relative_shift(rel);
    EXPECT_EQ(dst, target);
    // Shift source must be the inverse offset.
    const std::array<int, 2> inv{-1, 1};
    EXPECT_EQ(src, cc.relative_rank(inv));
  });
}

TEST(Listing2Helpers, RelativeCoordRoundTrip) {
  mpl::run(12, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 4};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::moore(2));
    for (int r = 0; r < world.size(); ++r) {
      const std::vector<int> rel = cc.relative_coord(r);
      EXPECT_EQ(cc.relative_rank(rel), r);
      // Minimal-magnitude representative: |component| <= dim/2.
      EXPECT_LE(std::abs(rel[0]), 3 / 2 + 1);
      EXPECT_LE(std::abs(rel[1]), 4 / 2);
    }
  });
}

TEST(Listing2Helpers, NeighborGetMatchesShifts) {
  mpl::run(12, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 4};
    const Neighborhood nb = Neighborhood::stencil(2, 4, -1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    ASSERT_EQ(cc.target_ranks().size(), static_cast<std::size_t>(nb.count()));
    for (int i = 0; i < nb.count(); ++i) {
      auto [src, dst] = cc.relative_shift(nb.offset(i));
      EXPECT_EQ(cc.target_ranks()[static_cast<std::size_t>(i)], dst);
      EXPECT_EQ(cc.source_ranks()[static_cast<std::size_t>(i)], src);
    }
  });
}

TEST(Listing2Helpers, ToDistGraphDropsNulls) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{4};
    const std::vector<int> periods{0};  // open mesh
    auto cc = cartcomm::cart_neighborhood_create(
        world, dims, periods, Neighborhood::von_neumann(1));
    mpl::DistGraphComm g = cc.to_dist_graph();
    const int expected = (world.rank() == 0 || world.rank() == 3) ? 1 : 2;
    EXPECT_EQ(g.outdegree(), expected);
    EXPECT_EQ(g.indegree(), expected);
  });
}

TEST(InfoObject, AlgorithmDefaultsParsed) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood::moore(2), {},
        {{"alltoall_algorithm", "trivial"},
         {"allgather_algorithm", "combining"},
         {"allgather_order", "decreasing_ck"}});
    EXPECT_EQ(cc.default_alltoall_algorithm(), cartcomm::Algorithm::trivial);
    EXPECT_EQ(cc.default_allgather_algorithm(), cartcomm::Algorithm::combining);
    EXPECT_EQ(cc.allgather_order(), cartcomm::DimOrder::decreasing_ck);
  });
}

TEST(InfoObject, BadValueThrows) {
  EXPECT_THROW(mpl::run(1,
                        [](mpl::Comm& world) {
                          const std::vector<int> dims{1};
                          cartcomm::cart_neighborhood_create(
                              world, dims, {}, Neighborhood::von_neumann(1), {},
                              {{"alltoall_algorithm", "warp-speed"}});
                        }),
               mpl::Error);
}
