// The routing neighborhood (CartNeighborComm::routing): offsets folded to
// their minimal-magnitude representatives on small tori, and the automatic
// alltoall that combines over it. The virtual-time sweep pins that
// automatic is never slower than the algorithm the unfolded cut-off picks,
// strictly faster on the 1x1x1x2x2 torus, and unchanged where nothing
// aliases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "cart_test_util.hpp"
#include "cartcomm/build_schedule.hpp"

using cartcomm::Algorithm;
using cartcomm::CartNeighborComm;
using cartcomm::Neighborhood;

namespace {

TEST(CartRouting, FoldsPeriodicOffsetsOntoTheirPartners) {
  // 1x1x1x2x2 torus, stencil d=5 n=3: every +-1 in an extent-1 dimension
  // reaches this process, and -1 reaches the same process as +1 in an
  // extent-2 dimension.
  const std::vector<int> dims{1, 1, 1, 2, 2};
  mpl::run(4, [&](mpl::Comm& world) {
    const auto cc = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood::stencil(5, 3, -1));
    // 4-byte blocks: the 162 blocks of a merged round pack in less time
    // than the message overhead the merge saves, so everything folds.
    const CartNeighborComm& rc = cc.routing(4);
    ASSERT_NE(&rc, &cc);
    ASSERT_EQ(rc.neighbor_count(), cc.neighbor_count());
    for (int i = 0; i < cc.neighbor_count(); ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      const auto folded = rc.neighborhood().offset(i);
      EXPECT_EQ(std::vector<int>(folded.begin(), folded.end()),
                cc.relative_coord(cc.target_ranks()[ui]))
          << "neighbor " << i;
      EXPECT_EQ(rc.target_ranks()[ui], cc.target_ranks()[ui]);
      EXPECT_EQ(rc.source_ranks()[ui], cc.source_ranks()[ui]);
    }
    // Two rounds (one per extent-2 dimension) instead of C = 10.
    EXPECT_EQ(rc.stats().combining_rounds, 2);
    EXPECT_EQ(cc.stats().combining_rounds, 10);
    // 64 KiB blocks: the extent-1 dimensions still fold, the extent-2
    // rounds stay apart.
    const CartNeighborComm& big = cc.routing(std::size_t{64} << 10);
    EXPECT_EQ(big.stats().combining_rounds, 4);
    for (int i = 0; i < cc.neighbor_count(); ++i) {
      for (int k = 0; k < 5; ++k) {
        EXPECT_EQ(big.neighborhood().coord(i, k),
                  k < 3 ? 0 : cc.neighborhood().coord(i, k));
      }
    }
    // Built once and shared by the communicator's copies; a view routes
    // over itself.
    const CartNeighborComm copy = cc;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(&copy.routing(4), &rc);
    EXPECT_EQ(&cc.routing(8), &rc);
    EXPECT_EQ(&rc.routing(4), &rc);
  });
}

TEST(CartRouting, NothingAliasesNothingFolds) {
  mpl::run(8, [](mpl::Comm& world) {
    // Mesh dimensions never fold, and +-1 are distinct on extent >= 3.
    const std::vector<int> dims{2, 4};
    const std::vector<int> periods{0, 1};
    const auto cc = cartcomm::cart_neighborhood_create(
        world, dims, periods, Neighborhood::moore(2));
    EXPECT_EQ(&cc.routing(4), &cc);
    EXPECT_EQ(&cc.alltoall_routing(Algorithm::automatic, 4), &cc);
  });
  mpl::run(4, [](mpl::Comm& world) {
    // An explicit algorithm, by argument or Info default, never folds.
    const std::vector<int> dims{2, 2};
    const auto cc = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood::moore(2), {},
        {{"alltoall_algorithm", "combining"}});
    EXPECT_NE(&cc.routing(4), &cc);
    EXPECT_EQ(&cc.alltoall_routing(Algorithm::automatic, 4), &cc);
    EXPECT_EQ(&cc.alltoall_routing(Algorithm::combining, 4), &cc);
  });
}

TEST(CartRouting, EveryAlltoallVariantRoutesAndDelivers) {
  // One int per block on the 1x1x1x2x2 torus: automatic combines over the
  // fully folded offsets in every variant, one-shot and persistent, and
  // still delivers block i from source i.
  const std::vector<int> dims{1, 1, 1, 2, 2};
  const Neighborhood nb = Neighborhood::stencil(5, 3, -1);
  const int t = nb.count();
  const std::size_t ut = static_cast<std::size_t>(t);
  mpl::run(4, [&](mpl::Comm& world) {
    const auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const mpl::Datatype I = mpl::Datatype::of<int>();
    std::vector<int> sb(ut), rb(ut);
    for (int i = 0; i < t; ++i) {
      sb[static_cast<std::size_t>(i)] = carttest::pattern(world.rank(), i, 0);
    }
    // v and w layouts: block i lands at t-1-i.
    const std::vector<int> ones(ut, 1);
    std::vector<int> sdispls(ut), rdispls(ut);
    std::vector<std::ptrdiff_t> sbytes(ut), rbytes(ut);
    for (std::size_t i = 0; i < ut; ++i) {
      sdispls[i] = static_cast<int>(i);
      rdispls[i] = t - 1 - static_cast<int>(i);
      sbytes[i] = static_cast<std::ptrdiff_t>(sizeof(int) * i);
      rbytes[i] = static_cast<std::ptrdiff_t>(sizeof(int)) * rdispls[i];
    }
    const std::vector<mpl::Datatype> types(ut, I);
    auto expect = [&](bool reversed, const char* what) {
      for (int i = 0; i < t; ++i) {
        const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
        const std::size_t at = static_cast<std::size_t>(reversed ? t - 1 - i : i);
        ASSERT_EQ(rb[at], carttest::pattern(src, i, 0))
            << what << ": rank " << world.rank() << " block " << i;
      }
      std::fill(rb.begin(), rb.end(), -1);
    };
    for (int rep = 0; rep < 2; ++rep) {  // the second call runs from the slot
      cartcomm::alltoall(sb.data(), 1, I, rb.data(), 1, I, cc);
      expect(false, "alltoall");
      cartcomm::alltoallv(sb.data(), ones, sdispls, I, rb.data(), ones,
                          rdispls, I, cc);
      expect(true, "alltoallv");
      cartcomm::alltoallw(sb.data(), ones, sbytes, types, rb.data(), ones,
                          rbytes, types, cc);
      expect(true, "alltoallw");
    }
    const cartcomm::PersistentColl ops[] = {
        cartcomm::alltoall_init(sb.data(), 1, I, rb.data(), 1, I, cc),
        cartcomm::alltoallv_init(sb.data(), ones, sdispls, I, rb.data(), ones,
                                 rdispls, I, cc),
        cartcomm::alltoallw_init(sb.data(), ones, sbytes, types, rb.data(),
                                 ones, rbytes, types, cc)};
    for (const cartcomm::PersistentColl& op : ops) {
      EXPECT_EQ(op.algorithm(), Algorithm::combining);
      EXPECT_EQ(op.schedule().rounds(), 2);
      EXPECT_EQ(op.schedule().copy_count(), 1);  // all 27 self blocks
      op.execute();
      expect(&op != &ops[0], "persistent");
    }
    // Explicit combining keeps the paper's 10 rounds.
    EXPECT_EQ(cartcomm::alltoall_init(sb.data(), 1, I, rb.data(), 1, I, cc,
                                      Algorithm::combining)
                  .schedule()
                  .rounds(),
              10);
  });
  // A mesh dimension between folding ones keeps its boundaries.
  carttest::check_alltoall({1, 3, 2}, {1, 0, 1}, Neighborhood::moore(3), 1,
                           Algorithm::automatic);
}

/// The algorithm the cut-off on the offsets as given picks: automatic
/// before the routing neighborhood existed.
Algorithm unfolded_choice(const CartNeighborComm& cc, std::size_t m,
                          const mpl::NetConfig& net) {
  const cartcomm::NeighborhoodStats& s = cc.stats();
  if (s.combining_rounds >= s.trivial_rounds) return Algorithm::trivial;
  return static_cast<double>(m) < cartcomm::predicted_cutoff_bytes(s, net)
             ? Algorithm::combining
             : Algorithm::trivial;
}

/// Makespan of one alltoall of `m`-byte blocks under the cost model.
double makespan(const CartNeighborComm& cc, std::size_t m, Algorithm alg,
                std::vector<std::byte>& sb, std::vector<std::byte>& rb) {
  const mpl::Comm& comm = cc.comm();
  const int count = static_cast<int>(m);
  const mpl::Datatype B = mpl::Datatype::of<std::byte>();
  comm.vclock_reset_sync();
  cartcomm::alltoall(sb.data(), count, B, rb.data(), count, B, cc, alg);
  const double elapsed = comm.vclock();
  comm.hard_sync();
  return mpl::allreduce(elapsed, mpl::ReduceOp::max<double>(), comm);
}

struct SweepGrid {
  std::vector<int> dims;
  Neighborhood nb;
  const char* name;
};

TEST(CartRouting, AutomaticNeverSlowerThanTheUnfoldedCutoff) {
  const std::vector<SweepGrid> grids = {
      {{1, 2, 2}, Neighborhood::moore(3), "1x2x2 Moore(3)"},
      {{1, 1, 1, 2, 2}, Neighborhood::stencil(5, 3, -1), "1x1x1x2x2 stencil(5,3)"},
      {{3, 3}, Neighborhood::stencil(2, 5, -2), "3x3 stencil(2,5)"},
      {{2, 2}, Neighborhood::moore(2), "2x2 Moore(2)"},
      {{4, 4, 4}, Neighborhood::moore(3), "4x4x4 Moore(3)"},
  };
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  for (const SweepGrid& g : grids) {
    const bool control = g.dims == std::vector<int>{4, 4, 4};
    const bool oneshot = g.dims == std::vector<int>{1, 1, 1, 2, 2};
    const std::size_t t = static_cast<std::size_t>(g.nb.count());
    mpl::run(
        carttest::product(g.dims),
        [&](mpl::Comm& world) {
          const auto cc =
              cartcomm::cart_neighborhood_create(world, g.dims, {}, g.nb);
          // The 64-rank control stops at 16 KiB (56 MB of buffers): from
          // 4 KiB on, both sides run the same trivial schedule anyway.
          const std::size_t top = (control ? std::size_t{16} : std::size_t{64}) << 10;
          for (std::size_t m = 4; m <= top; m *= 2) {
            std::vector<std::byte> sb(t * m, std::byte{1});
            std::vector<std::byte> rb(t * m);
            const Algorithm parent = unfolded_choice(cc, m, opts.net);
            const double before = makespan(cc, m, parent, sb, rb);
            const double after = makespan(cc, m, Algorithm::automatic, sb, rb);
            const std::string at = std::string(g.name) + " m=" +
                                   std::to_string(m) + " parent " +
                                   (parent == Algorithm::trivial ? "trivial"
                                                                 : "combining");
            EXPECT_LE(after, before) << at;
            if (oneshot && parent == Algorithm::combining) {
              EXPECT_LT(after, before) << at;
            }
            if (control) {
              EXPECT_EQ(&cc.routing(m), &cc) << at;
              EXPECT_EQ(after, before) << at;
              // The automatic combining schedule is the paper's.
              std::vector<cartcomm::SendBlock> sends(t);
              std::vector<cartcomm::RecvBlock> recvs(t);
              const mpl::Datatype B = mpl::Datatype::of<std::byte>();
              for (std::size_t i = 0; i < t; ++i) {
                sends[i] = {&sb[i * m], static_cast<int>(m), B};
                recvs[i] = {&rb[i * m], static_cast<int>(m), B};
              }
              EXPECT_EQ(
                  cartcomm::build_alltoall_schedule(cc, sends, recvs).dump(),
                  cartcomm::build_alltoall_schedule(cc, sends, recvs,
                                                    Algorithm::combining)
                      .dump())
                  << at;
            }
          }
        },
        opts);
  }
}

}  // namespace
