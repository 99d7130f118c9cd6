// Neighborhood collectives (the paper's MPI baselines) against references.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "mpl/mpl.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

using mpl::Comm;
using mpl::Datatype;
using mpl::DistGraphComm;
using mpl::NeighborAlgorithm;

namespace {

const Datatype kInt = Datatype::of<int>();

// Directed ring graph: receive from left, send to right.
DistGraphComm make_ring(const Comm& c) {
  const std::vector<int> sources{(c.rank() - 1 + c.size()) % c.size()};
  const std::vector<int> targets{(c.rank() + 1) % c.size()};
  return mpl::dist_graph_create_adjacent(c, sources, {}, targets, {});
}

// Fully populated Moore-style ring of width 2 in both directions, with a
// duplicate neighbor to exercise FIFO disambiguation.
DistGraphComm make_multi(const Comm& c) {
  const int p = c.size();
  const int r = c.rank();
  const std::vector<int> targets{(r + 1) % p, (r + 2) % p, (r + 1) % p};
  const std::vector<int> sources{(r - 1 + p) % p, (r - 2 + p) % p, (r - 1 + p) % p};
  return mpl::dist_graph_create_adjacent(c, sources, {}, targets, {});
}

class NeighborhoodAlg
    : public ::testing::TestWithParam<NeighborAlgorithm> {};

}  // namespace

TEST_P(NeighborhoodAlg, AlltoallOnRing) {
  const auto alg = GetParam();
  mpl::run(5, [alg](Comm& c) {
    DistGraphComm g = make_ring(c);
    const int out = c.rank() * 7;
    int in = -1;
    mpl::neighbor_alltoall(&out, 1, kInt, &in, 1, kInt, g, alg);
    EXPECT_EQ(in, ((c.rank() - 1 + c.size()) % c.size()) * 7);
  });
}

TEST_P(NeighborhoodAlg, AlltoallWithDuplicateNeighbors) {
  const auto alg = GetParam();
  mpl::run(5, [alg](Comm& c) {
    DistGraphComm g = make_multi(c);
    // Distinct payload per target slot; duplicates must arrive in order.
    const std::vector<int> out{c.rank() * 10 + 0, c.rank() * 10 + 1,
                               c.rank() * 10 + 2};
    std::vector<int> in(3, -1);
    mpl::neighbor_alltoall(out.data(), 1, kInt, in.data(), 1, kInt, g, alg);
    const int p = c.size();
    const int left = (c.rank() - 1 + p) % p;
    const int left2 = (c.rank() - 2 + p) % p;
    EXPECT_EQ(in[0], left * 10 + 0);
    EXPECT_EQ(in[1], left2 * 10 + 1);
    EXPECT_EQ(in[2], left * 10 + 2);
  });
}

TEST_P(NeighborhoodAlg, AlltoallvRaggedBlocks) {
  const auto alg = GetParam();
  mpl::run(4, [alg](Comm& c) {
    DistGraphComm g = make_ring(c);
    // Send rank+1 ints to the right; receive left's size.
    const int p = c.size();
    const int left = (c.rank() - 1 + p) % p;
    std::vector<int> sbuf(static_cast<std::size_t>(c.rank() + 1), c.rank());
    std::vector<int> rbuf(static_cast<std::size_t>(left + 1), -1);
    const std::vector<int> scount{c.rank() + 1}, sdisp{0};
    const std::vector<int> rcount{left + 1}, rdisp{0};
    mpl::neighbor_alltoallv(sbuf.data(), scount, sdisp, kInt, rbuf.data(),
                            rcount, rdisp, kInt, g, alg);
    for (int v : rbuf) EXPECT_EQ(v, left);
  });
}

TEST_P(NeighborhoodAlg, AlltoallwDistinctTypes) {
  const auto alg = GetParam();
  mpl::run(4, [alg](Comm& c) {
    DistGraphComm g = make_ring(c);
    // Send a strided column; receive contiguous.
    constexpr int N = 4;
    std::vector<int> m(N * N);
    std::iota(m.begin(), m.end(), c.rank() * 100);
    std::vector<int> in(N, -1);
    Datatype col = Datatype::vector(N, 1, N, kInt);
    const std::vector<int> scount{1}, rcount{N};
    const std::vector<std::ptrdiff_t> sdisp{static_cast<std::ptrdiff_t>(sizeof(int))};
    const std::vector<std::ptrdiff_t> rdisp{0};
    const std::vector<Datatype> stypes{col}, rtypes{kInt};
    mpl::neighbor_alltoallw(m.data(), scount, sdisp, stypes, in.data(), rcount,
                            rdisp, rtypes, g, alg);
    const int p = c.size();
    const int left = (c.rank() - 1 + p) % p;
    EXPECT_EQ(in[0], left * 100 + 1);
    EXPECT_EQ(in[1], left * 100 + 5);
    EXPECT_EQ(in[2], left * 100 + 9);
    EXPECT_EQ(in[3], left * 100 + 13);
  });
}

TEST_P(NeighborhoodAlg, AllgatherSameBlockToAllTargets) {
  const auto alg = GetParam();
  mpl::run(6, [alg](Comm& c) {
    DistGraphComm g = make_multi(c);
    const int out[2] = {c.rank(), c.rank() + 50};
    std::vector<int> in(6, -1);
    mpl::neighbor_allgather(out, 2, kInt, in.data(), 2, kInt, g, alg);
    const int p = c.size();
    const int left = (c.rank() - 1 + p) % p;
    const int left2 = (c.rank() - 2 + p) % p;
    EXPECT_EQ(in[0], left);
    EXPECT_EQ(in[1], left + 50);
    EXPECT_EQ(in[2], left2);
    EXPECT_EQ(in[3], left2 + 50);
    EXPECT_EQ(in[4], left);
    EXPECT_EQ(in[5], left + 50);
  });
}

TEST_P(NeighborhoodAlg, AllgathervDisplacements) {
  const auto alg = GetParam();
  mpl::run(4, [alg](Comm& c) {
    DistGraphComm g = make_ring(c);
    const int out = c.rank() + 1;
    std::vector<int> in(4, 0);
    const std::vector<int> counts{1};
    const std::vector<int> displs{2};  // land the block at element 2
    mpl::neighbor_allgatherv(&out, 1, kInt, in.data(), counts, displs, kInt, g,
                             alg);
    const int left = (c.rank() - 1 + c.size()) % c.size();
    EXPECT_EQ(in[2], left + 1);
    EXPECT_EQ(in[0], 0);
  });
}

TEST_P(NeighborhoodAlg, AllgatherwPerSourceTypes) {
  const auto alg = GetParam();
  mpl::run(4, [alg](Comm& c) {
    DistGraphComm g = make_ring(c);
    // Receive the single int block scattered as a strided column.
    constexpr int N = 3;
    const int out[N] = {c.rank(), c.rank() + 1, c.rank() + 2};
    std::vector<int> m(N * N, -1);
    Datatype col = Datatype::vector(N, 1, N, kInt);
    const std::vector<int> counts{1};
    const std::vector<std::ptrdiff_t> displs{0};
    const std::vector<Datatype> types{col};
    mpl::neighbor_allgatherw(out, N, kInt, m.data(), counts, displs, types, g,
                             alg);
    const int left = (c.rank() - 1 + c.size()) % c.size();
    EXPECT_EQ(m[0], left);
    EXPECT_EQ(m[3], left + 1);
    EXPECT_EQ(m[6], left + 2);
    EXPECT_EQ(m[1], -1);
  });
}

INSTANTIATE_TEST_SUITE_P(Algorithms, NeighborhoodAlg,
                         ::testing::Values(NeighborAlgorithm::direct,
                                           NeighborAlgorithm::serialized_rendezvous));

TEST(Neighborhood, NonblockingAlltoall) {
  mpl::run(5, [](Comm& c) {
    DistGraphComm g = make_ring(c);
    const int out = c.rank();
    int in = -1;
    mpl::NeighborRequest r =
        mpl::ineighbor_alltoall(&out, 1, kInt, &in, 1, kInt, g);
    r.wait();
    EXPECT_EQ(in, (c.rank() - 1 + c.size()) % c.size());
  });
}

TEST(Neighborhood, NonblockingAllgather) {
  mpl::run(5, [](Comm& c) {
    DistGraphComm g = make_multi(c);
    const int out = c.rank();
    std::vector<int> in(3, -1);
    mpl::NeighborRequest r =
        mpl::ineighbor_allgather(&out, 1, kInt, in.data(), 1, kInt, g);
    r.wait();
    const int p = c.size();
    EXPECT_EQ(in[0], (c.rank() - 1 + p) % p);
    EXPECT_EQ(in[1], (c.rank() - 2 + p) % p);
    EXPECT_EQ(in[2], (c.rank() - 1 + p) % p);
  });
}

TEST(Neighborhood, AsymmetricDegrees) {
  // Process 0 only sends; the rest only receive from 0 (star graph).
  mpl::run(4, [](Comm& c) {
    std::vector<int> sources, targets;
    if (c.rank() == 0) {
      targets = {1, 2, 3};
    } else {
      sources = {0};
    }
    DistGraphComm g = mpl::dist_graph_create_adjacent(c, sources, {}, targets, {});
    const std::vector<int> out{10, 20, 30};
    int in = -1;
    mpl::neighbor_alltoall(out.data(), 1, kInt, &in, 1, kInt, g);
    if (c.rank() != 0) {
      EXPECT_EQ(in, 10 * c.rank());
    }
  });
}

TEST(Neighborhood, LargeBlocksSerializedMatchesDirect) {
  // Both algorithms must produce identical results for multi-segment blocks.
  mpl::run(3, [](Comm& c) {
    DistGraphComm g = make_ring(c);
    constexpr int kN = 1000;  // > one 128-byte segment
    std::vector<int> out(kN);
    std::iota(out.begin(), out.end(), c.rank() * kN);
    std::vector<int> a(kN, -1), b(kN, -2);
    mpl::neighbor_alltoall(out.data(), kN, kInt, a.data(), kN, kInt, g,
                           NeighborAlgorithm::direct);
    mpl::neighbor_alltoall(out.data(), kN, kInt, b.data(), kN, kInt, g,
                           NeighborAlgorithm::serialized_rendezvous);
    EXPECT_EQ(a, b);
  });
}

TEST(Neighborhood, DirectBaselineIsOneCollectiveExecution) {
  // The direct baseline runs on the shared schedule executor, so each call
  // lands in the collective-latency telemetry exactly like a Cartesian
  // collective, blocking or not.
  mpl::RunOptions opts;
  opts.telemetry.enabled = true;
  mpl::run(
      5,
      [](Comm& c) {
        const telemetry::RankTelemetry* tm = c.telemetry();
        ASSERT_NE(tm, nullptr);
        DistGraphComm g = make_multi(c);
        const std::vector<int> out{c.rank(), c.rank() + 10, c.rank() + 20};
        std::vector<int> in(3, -1);
        const std::uint64_t before = tm->collectives();
        mpl::neighbor_alltoall(out.data(), 1, kInt, in.data(), 1, kInt, g,
                               NeighborAlgorithm::direct);
        EXPECT_EQ(tm->collectives(), before + 1);
        const int p = c.size();
        EXPECT_EQ(in[0], (c.rank() - 1 + p) % p);
        EXPECT_EQ(in[1], (c.rank() - 2 + p) % p + 10);
        EXPECT_EQ(in[2], (c.rank() - 1 + p) % p + 20);

        const int mine = c.rank() * 3;
        std::vector<int> got(3, -1);
        mpl::ineighbor_allgather(&mine, 1, kInt, got.data(), 1, kInt, g)
            .wait();
        EXPECT_EQ(tm->collectives(), before + 2);
        EXPECT_EQ(got[0], (c.rank() - 1 + p) % p * 3);
        EXPECT_EQ(got[1], (c.rank() - 2 + p) % p * 3);
        EXPECT_EQ(got[2], (c.rank() - 1 + p) % p * 3);
      },
      opts);
}

TEST(Neighborhood, TracedDirectBaselineRecordsOnePrepostingPhase) {
  const std::string path =
      std::string(::testing::TempDir()) + "neighborhood_direct_trace.json";
  mpl::RunOptions opts;
  opts.trace.chrome_path = path;
  mpl::run(
      5,
      [](Comm& c) {
        DistGraphComm g = make_multi(c);
        const std::vector<int> out{1, 2, 3};
        std::vector<int> in(3, -1);
        const int section = c.trace_section_begin("direct");
        mpl::neighbor_alltoall(out.data(), 1, kInt, in.data(), 1, kInt, g,
                               NeighborAlgorithm::direct);
        c.trace_section_end();
        ASSERT_GE(section, 0);
        int recv_posts = 0;
        int send_posts = 0;
        int phase_spans = 0;
        for (const trace::Event& e : c.proc().trace()->snapshot()) {
          if (e.section != section) continue;
          if (e.kind == trace::EventKind::recv_post) {
            EXPECT_EQ(send_posts, 0) << "receive posted after a send";
            ++recv_posts;
          } else if (e.kind == trace::EventKind::send_post) {
            ++send_posts;
          } else if (e.kind == trace::EventKind::phase) {
            EXPECT_EQ(e.phase, 0);
            ++phase_spans;
          }
        }
        EXPECT_EQ(recv_posts, 3);
        EXPECT_EQ(send_posts, 3);
        EXPECT_EQ(phase_spans, 1);
      },
      opts);
  std::remove(path.c_str());
}
