// Section 2.2 detection: reconstructing a Cartesian neighborhood from the
// distributed-graph (absolute target rank) specification.
#include <gtest/gtest.h>

#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"

using cartcomm::Neighborhood;

TEST(DetectCartesian, RecoversMooreNeighborhood) {
  mpl::run(12, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 4};
    mpl::CartComm cart = mpl::cart_create(world, dims, {});
    // Application-side: compute the absolute target ranks as an MPI user
    // would pass them to MPI_Dist_graph_create_adjacent.
    const Neighborhood nb = Neighborhood::moore(2);
    std::vector<int> targets;
    for (int i = 0; i < nb.count(); ++i) {
      targets.push_back(cart.grid().rank_at_offset(
          cart.grid().coords_of(world.rank()), nb.offset(i)));
    }
    auto detected = cartcomm::detect_cartesian(cart, targets);
    ASSERT_TRUE(detected.has_value());
    EXPECT_EQ(detected->neighbor_count(), 9);
    EXPECT_EQ(detected->neighborhood(), nb);  // offsets within rep range

    // And the detected communicator must be fully functional.
    std::vector<int> sb(9, world.rank()), rb(9, -1);
    cartcomm::alltoall(sb.data(), 1, mpl::Datatype::of<int>(), rb.data(), 1,
                       mpl::Datatype::of<int>(), *detected,
                       cartcomm::Algorithm::combining);
    for (int i = 0; i < 9; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                detected->source_ranks()[static_cast<std::size_t>(i)]);
    }
  });
}

TEST(DetectCartesian, RejectsNonIsomorphicGraphs) {
  mpl::run(6, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 3};
    mpl::CartComm cart = mpl::cart_create(world, dims, {});
    // Everyone names their right neighbor, except rank 3 names itself.
    std::vector<int> targets{world.rank() == 3
                                 ? 3
                                 : cart.grid().rank_at_offset(
                                       cart.grid().coords_of(world.rank()),
                                       std::vector<int>{0, 1})};
    EXPECT_FALSE(cartcomm::detect_cartesian(cart, targets).has_value());
  });
}

TEST(DetectCartesian, RejectsDifferentDegrees) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    mpl::CartComm cart = mpl::cart_create(world, dims, {});
    std::vector<int> targets(world.rank() == 0 ? 2u : 1u, 0);
    EXPECT_FALSE(cartcomm::detect_cartesian(cart, targets).has_value());
  });
}

TEST(DetectCartesian, RejectsOutOfRangeRankEverywhere) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{4};
    mpl::CartComm cart = mpl::cart_create(world, dims, {});
    // Only rank 2 passes garbage; the result must still be collectively
    // consistent (nullopt everywhere, no hang).
    std::vector<int> targets{world.rank() == 2 ? 99 : (world.rank() + 1) % 4};
    EXPECT_FALSE(cartcomm::detect_cartesian(cart, targets).has_value());
  });
}

TEST(DetectCartesian, AcceptsTranslationInvariantPermutedOffsets) {
  // All processes list [right, left] — detection succeeds; a mixture of
  // list orders must fail (block placement is order-sensitive).
  mpl::run(5, [](mpl::Comm& world) {
    const std::vector<int> dims{5};
    mpl::CartComm cart = mpl::cart_create(world, dims, {});
    const int right = (world.rank() + 1) % 5;
    const int left = (world.rank() + 4) % 5;
    std::vector<int> same{right, left};
    EXPECT_TRUE(cartcomm::detect_cartesian(cart, same).has_value());
    std::vector<int> mixed = world.rank() % 2 == 0
                                 ? std::vector<int>{right, left}
                                 : std::vector<int>{left, right};
    EXPECT_FALSE(cartcomm::detect_cartesian(cart, mixed).has_value());
  });
}

TEST(DetectCartesian, InfoForwarded) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{4};
    mpl::CartComm cart = mpl::cart_create(world, dims, {});
    std::vector<int> targets{(world.rank() + 1) % 4};
    auto detected = cartcomm::detect_cartesian(
        cart, targets, {{"alltoall_algorithm", "combining"}});
    ASSERT_TRUE(detected.has_value());
    // One neighbor: automatic alone would move the block directly.
    EXPECT_EQ(detected
                  ->route(cartcomm::Collective::alltoall,
                          cartcomm::Algorithm::automatic, 4)
                  .alg,
              cartcomm::Algorithm::combining);
  });
}
