// Golden-output test for Schedule::dump(): phase/round structure, partner
// provenance for PROC_NULL (mesh boundary vs unmarked), and the local-copy
// phase listing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"

using cartcomm::Neighborhood;
using cartcomm::Schedule;

namespace {

const mpl::Datatype kInt = mpl::Datatype::of<int>();

// Build the 5-point-with-self alltoall schedule (m ints per neighbor) for
// this process on the given mesh/torus and return its dump.
std::string dump_5point(mpl::Comm& world, const std::vector<int>& dims,
                        const std::vector<int>& periods, int m) {
  const Neighborhood nb = Neighborhood::von_neumann(2, /*include_self=*/true);
  auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
  const int t = nb.count();
  std::vector<int> sb(static_cast<std::size_t>(t * m), world.rank());
  std::vector<int> rb(static_cast<std::size_t>(t * m), -1);
  std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
  std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    sends[static_cast<std::size_t>(i)] = {&sb[static_cast<std::size_t>(i * m)],
                                          m, kInt};
    recvs[static_cast<std::size_t>(i)] = {&rb[static_cast<std::size_t>(i * m)],
                                          m, kInt};
  }
  Schedule s = cartcomm::build_alltoall_schedule(cc, sends, recvs);
  s.execute(cc.comm());  // golden structure must describe a working plan
  return s.dump();
}

}  // namespace

TEST(ScheduleDump, GoldenCornerRankOnMesh) {
  // Rank 0 sits in the corner of a non-periodic 3x3 mesh: the -1 offsets
  // leave the mesh in both dimensions, so their partners are PROC_NULL
  // with boundary provenance, and the self block becomes a local copy.
  std::string corner;
  mpl::run(9, [&](mpl::Comm& world) {
    const std::string d = dump_5point(world, {3, 3}, {0, 0}, 2);
    if (world.rank() == 0) corner = d;
  });
  const std::string kGolden =
      "schedule: 2 phases, 4 rounds, 2 blocks sent, 1 local copies, "
      "0 temp bytes\n"
      "  phase 0 (2 rounds)\n"
      "    round 0: offset (-1,0) send->null(boundary) [0 blk, 0 B]  "
      "recv<-3 [1 blk, 8 B]\n"
      "    round 1: offset (1,0) send->3 [1 blk, 8 B]  "
      "recv<-null(boundary) [0 blk, 0 B]\n"
      "  phase 1 (2 rounds)\n"
      "    round 0: offset (0,-1) send->null(boundary) [0 blk, 0 B]  "
      "recv<-1 [1 blk, 8 B]\n"
      "    round 1: offset (0,1) send->1 [1 blk, 8 B]  "
      "recv<-null(boundary) [0 blk, 0 B]\n"
      "  copy phase (1 copies)\n"
      "    copy 0: 1 blk, 8 B\n";
  EXPECT_EQ(corner, kGolden) << corner;
}

TEST(ScheduleDump, BoundaryProvenanceMarkedEverywhere) {
  // Every PROC_NULL partner in a mesh schedule must carry the boundary
  // provenance flag — an unmarked null partner means the builder lost
  // track of why the round is disabled.
  std::vector<std::string> dumps(9);
  mpl::run(9, [&](mpl::Comm& world) {
    dumps[static_cast<std::size_t>(world.rank())] =
        dump_5point(world, {3, 3}, {0, 0}, 1);
  });
  int boundary_rounds = 0;
  for (const std::string& d : dumps) {
    EXPECT_EQ(d.find("null(UNMARKED)"), std::string::npos) << d;
    for (std::size_t pos = d.find("null(boundary)"); pos != std::string::npos;
         pos = d.find("null(boundary)", pos + 1)) {
      ++boundary_rounds;
    }
  }
  EXPECT_GT(boundary_rounds, 0);
  // The center rank (4) of the 3x3 mesh has no boundary partners.
  EXPECT_EQ(dumps[4].find("null("), std::string::npos) << dumps[4];
}

namespace {

// Build a combining reduce schedule over the 3-point 1-D neighborhood
// (m ints), execute it (golden structure must describe a working plan)
// and return its dump.
std::string dump_reduce_3point(mpl::Comm& world, const std::vector<int>& dims,
                               const std::vector<int>& periods, int m) {
  const Neighborhood nb(1, {-1, 0, 1});
  auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
  std::vector<int> sb(static_cast<std::size_t>(m), world.rank() + 1);
  std::vector<int> rb(static_cast<std::size_t>(m), -1);
  const cartcomm::SendBlock sends[1] = {{sb.data(), m, kInt}};
  const cartcomm::RecvBlock recv{rb.data(), m, kInt};
  Schedule s = cartcomm::build_reduce_schedule(
      cc, sends, recv, mpl::ReduceOp::sum<int>(),
      cartcomm::ReduceVariant::reduce, /*combining=*/true);
  s.execute(cc.comm());
  return s.dump();
}

}  // namespace

TEST(ScheduleDump, ReducingGoldenCornerRankOnMesh) {
  // Rank 0 of a non-periodic 1-D 3-mesh: the -1 consumer is off-mesh, so
  // that round sends nothing (boundary provenance) but still folds the
  // arriving aggregate; the +1 round sends the leaf aggregate and receives
  // nothing. The three leaves contribute the same block, so they form one
  // class whose partial lives in the receive block itself: one leaf init,
  // no temp slot but the staging one. Reducing rounds render as "reduce<-"
  // and the fold program is listed with its phase tags (-1 = leaf init
  // before any send packs).
  std::string corner;
  mpl::run(3, [&](mpl::Comm& world) {
    const std::string d = dump_reduce_3point(world, {3}, {0}, 1);
    if (world.rank() == 0) corner = d;
  });
  const std::string kGolden =
      "schedule: 1 phases, 2 rounds, 1 blocks sent, 0 local copies, "
      "4 temp bytes, reduce op sum.i4, 2 folds\n"
      "  phase 0 (2 rounds)\n"
      "    round 0: offset (-1) send->null(boundary) [0 blk, 0 B]  "
      "reduce<-1 [1 blk, 4 B]\n"
      "    round 1: offset (1) send->1 [1 blk, 4 B]  "
      "reduce<-null(boundary) [0 blk, 0 B]\n"
      "  folds (2)\n"
      "    fold 0: phase -1 init 1 elems\n"
      "    fold 1: phase 0 combine 1 elems\n";
  EXPECT_EQ(corner, kGolden) << corner;
}

TEST(ScheduleDump, ReduceScatterAndTrivialGoldenCornerRankOnMesh) {
  // reduce_scatter contributes a distinct block toward every neighbor, so
  // no two subtrees are equal and its DAG is the allgather tree: three leaf
  // classes, two leaf inits on the corner rank (the -1 consumer is off
  // the mesh) and 8 temp bytes of partials plus one staging slot. The
  // trivial reducing schedule stages its one arrival and folds in neighbor
  // order.
  std::string scatter, trivial;
  mpl::run(3, [&](mpl::Comm& world) {
    const Neighborhood nb(1, {-1, 0, 1});
    auto cc = cartcomm::cart_neighborhood_create(world, std::vector<int>{3},
                                                 std::vector<int>{0}, nb);
    std::vector<int> sb(3, world.rank() + 1);
    int rb = -1;
    const cartcomm::SendBlock sends[3] = {
        {&sb[0], 1, kInt}, {&sb[1], 1, kInt}, {&sb[2], 1, kInt}};
    const cartcomm::RecvBlock recv{&rb, 1, kInt};
    Schedule s = cartcomm::build_reduce_schedule(
        cc, sends, recv, mpl::ReduceOp::sum<int>(),
        cartcomm::ReduceVariant::reduce_scatter, /*combining=*/true);
    s.execute(cc.comm());
    Schedule t = cartcomm::build_reduce_schedule(
        cc, std::span(sends).first(1), recv, mpl::ReduceOp::sum<int>(),
        cartcomm::ReduceVariant::reduce, /*combining=*/false);
    t.execute(cc.comm());
    if (world.rank() == 0) {
      scatter = s.dump();
      trivial = t.dump();
    }
  });
  const std::string kScatter =
      "schedule: 1 phases, 2 rounds, 1 blocks sent, 0 local copies, "
      "12 temp bytes, reduce op sum.i4, 3 folds\n"
      "  phase 0 (2 rounds)\n"
      "    round 0: offset (-1) send->null(boundary) [0 blk, 0 B]  "
      "reduce<-1 [1 blk, 4 B]\n"
      "    round 1: offset (1) send->1 [1 blk, 4 B]  "
      "reduce<-null(boundary) [0 blk, 0 B]\n"
      "  folds (3)\n"
      "    fold 0: phase -1 init 1 elems\n"
      "    fold 1: phase -1 init 1 elems\n"
      "    fold 2: phase 0 combine 1 elems\n";
  const std::string kTrivial =
      "schedule: 1 phases, 2 rounds, 1 blocks sent, 0 local copies, "
      "4 temp bytes, reduce op sum.i4, 2 folds\n"
      "  phase 0 (2 rounds)\n"
      "    round 0: offset (-1) send->null(boundary) [0 blk, 0 B]  "
      "reduce<-1 [1 blk, 4 B]\n"
      "    round 1: offset (1) send->1 [1 blk, 4 B]  "
      "reduce<-null(boundary) [0 blk, 0 B]\n"
      "  folds (2)\n"
      "    fold 0: phase 0 init 1 elems\n"
      "    fold 1: phase 0 combine 1 elems\n";
  EXPECT_EQ(scatter, kScatter) << scatter;
  EXPECT_EQ(trivial, kTrivial) << trivial;
}

TEST(ScheduleDump, ReducingDumpBitIdenticalAcrossBuildsAndCacheHits) {
  // The same inputs must dump byte-identically whether the plan was
  // freshly compiled, served from the plan cache, or built with the cache
  // disabled — reducing plans included.
  auto all_dumps = [](int m) {
    std::vector<std::string> dumps(9);
    mpl::run(9, [&](mpl::Comm& world) {
      dumps[static_cast<std::size_t>(world.rank())] =
          dump_reduce_3point(world, {9}, {0}, m);
    });
    return dumps;
  };
  cartcomm::plan_cache_clear();
  const auto first = all_dumps(2);   // compiles
  const auto second = all_dumps(2);  // plan-cache hits
  cartcomm::plan_cache_set_enabled(false);
  const auto third = all_dumps(2);   // no cache
  cartcomm::plan_cache_set_enabled(true);
  cartcomm::plan_cache_clear();
  for (int r = 0; r < 9; ++r) {
    const std::size_t ur = static_cast<std::size_t>(r);
    EXPECT_EQ(first[ur], second[ur]) << "rank " << r;
    EXPECT_EQ(first[ur], third[ur]) << "rank " << r;
  }
}

TEST(ScheduleDump, ReducingMeshProvenanceMarkedEverywhere) {
  // Reducing schedules obey the same provenance discipline as movement
  // schedules: every PROC_NULL partner on a mesh carries the boundary
  // flag, and interior ranks have none. The trivial reducing schedule is
  // schedule-native too and must render its rounds as "reduce<-".
  std::vector<std::string> combining(9), trivial(9);
  mpl::run(9, [&](mpl::Comm& world) {
    const Neighborhood nb = Neighborhood::moore(2);
    const std::vector<int> dims{3, 3};
    const std::vector<int> periods{0, 0};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    std::vector<int> sb(2, world.rank());
    std::vector<int> rb(2, -1);
    const cartcomm::SendBlock sends[1] = {{sb.data(), 2, kInt}};
    const cartcomm::RecvBlock recv{rb.data(), 2, kInt};
    const std::size_t r = static_cast<std::size_t>(world.rank());
    combining[r] = cartcomm::build_reduce_schedule(
                       cc, sends, recv, mpl::ReduceOp::sum<int>(),
                       cartcomm::ReduceVariant::reduce, true)
                       .dump();
    trivial[r] = cartcomm::build_reduce_schedule(
                     cc, sends, recv, mpl::ReduceOp::sum<int>(),
                     cartcomm::ReduceVariant::reduce, false)
                     .dump();
  });
  for (int r = 0; r < 9; ++r) {
    const std::size_t ur = static_cast<std::size_t>(r);
    EXPECT_EQ(combining[ur].find("null(UNMARKED)"), std::string::npos)
        << combining[ur];
    EXPECT_EQ(trivial[ur].find("null(UNMARKED)"), std::string::npos)
        << trivial[ur];
    EXPECT_NE(combining[ur].find("reduce<-"), std::string::npos);
    EXPECT_NE(trivial[ur].find("reduce<-"), std::string::npos);
    EXPECT_NE(combining[ur].find("reduce op sum.i4"), std::string::npos);
    EXPECT_NE(combining[ur].find("  folds ("), std::string::npos);
  }
  // The center rank (4) of the 3x3 mesh has no boundary partners.
  EXPECT_EQ(combining[4].find("null("), std::string::npos) << combining[4];
  EXPECT_EQ(trivial[4].find("null("), std::string::npos) << trivial[4];
}

TEST(ScheduleDump, TorusHasNoNullPartners) {
  std::string any;
  mpl::run(9, [&](mpl::Comm& world) {
    const std::string d = dump_5point(world, {3, 3}, {1, 1}, 1);
    if (world.rank() == 4) any = d;
  });
  EXPECT_EQ(any.find("null("), std::string::npos) << any;
  EXPECT_NE(any.find("copy phase (1 copies)"), std::string::npos) << any;
}
