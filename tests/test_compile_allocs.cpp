// Deterministic work counters for the plan-compile path: heap allocations
// made by analyze(), compile_alltoall_plan and compile_reduce_plan on the
// stencil family. Proposition 3.1 puts schedule computation at O(t·d);
// here the number of allocations must grow with the number of rounds C,
// not with t. The blocking one-shot calls that their communicator's slot
// serves are counted too: their allocations must not grow at all; so is a
// call that misses its slot, and a persistent trivial execution, which
// allocates nothing. This binary replaces the global operator new/delete
// to count; the library itself carries no hook.
//
// The counts are exact and pinned: a change to the compile or one-shot
// path that moves them updates the pins and says why.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "cartcomm/analysis.hpp"
#include "cartcomm/cartcomm.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/mpl.hpp"

namespace {
// Allocations made by the current thread (each simulated rank is a thread).
thread_local std::size_t t_allocs = 0;
}  // namespace

// Every plain and nothrow form, so that no allocation a sanitizer runtime
// serves can be freed here (the aligned forms stay paired in the runtime).
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

struct Counts {
  std::size_t analyze = 0;
  std::size_t alltoall = 0;
  std::size_t reduce = 0;
  int t = 0;
  int rounds = 0;  // C
};

template <typename F>
std::size_t allocations(F&& f) {
  const std::size_t before = t_allocs;
  f();
  return t_allocs - before;
}

// The compile steps of a cold communicator for stencil(5, n, -1) on a
// single-process torus, as in bench_schedule_cost.
Counts count_compile(int n) {
  const auto nb = cartcomm::Neighborhood::stencil(5, n, -1);
  Counts c;
  c.t = nb.count();
  c.rounds = nb.combining_rounds();
  mpl::run(1, [&](mpl::Comm& world) {
    const std::vector<int> dims(5, 1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const std::vector<std::size_t> bytes(static_cast<std::size_t>(c.t), sizeof(int));
    c.analyze = allocations([&] { (void)cartcomm::analyze(nb); });
    c.alltoall = allocations([&] { (void)cartcomm::compile_alltoall_plan(cc, bytes); });
    c.reduce = allocations([&] {
      (void)cartcomm::compile_reduce_plan(cc, cartcomm::ReduceVariant::reduce,
                                          /*combining=*/true,
                                          cartcomm::DimOrder::increasing_ck,
                                          sizeof(int), 1);
    });
  });
  return c;
}

struct OneShotCounts {
  std::size_t alltoall = 0;
  std::size_t alltoallv = 0;
  std::size_t allreduce = 0;
  std::vector<std::size_t> alltoall_miss;  // per call, buffers alternating
};

// One call of each blocking one-shot collective on a warm slot (the same
// buffers, counts and types as the call before) for stencil(5, n, -1) on
// a single-process torus.
OneShotCounts count_oneshot(int n) {
  const auto nb = cartcomm::Neighborhood::stencil(5, n, -1);
  OneShotCounts c;
  mpl::run(1, [&](mpl::Comm& world) {
    const std::vector<int> dims(5, 1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const auto t = static_cast<std::size_t>(nb.count());
    std::vector<int> sb(t, 1), rb(t), rb2(t);
    const std::vector<int> counts(t, 1);
    std::vector<int> displs(t);
    for (std::size_t i = 0; i < t; ++i) displs[i] = static_cast<int>(i);
    const mpl::Datatype ints = mpl::Datatype::of<int>();
    const mpl::ReduceOp sum = mpl::ReduceOp::sum<int>();
    const int mine = 1;
    int out = 0;
    const auto combining = cartcomm::Algorithm::combining;
    auto alltoall = [&] {
      cartcomm::alltoall(sb.data(), 1, ints, rb.data(), 1, ints, cc, combining);
    };
    auto alltoallv = [&] {
      cartcomm::alltoallv(sb.data(), counts, displs, ints, rb.data(), counts,
                          displs, ints, cc, combining);
    };
    auto allreduce = [&] {
      cartcomm::cart_neighbor_allreduce(&mine, &out, 1, ints, sum, cc,
                                        combining);
    };
    alltoall();  // the first call of each binds its slot
    alltoallv();
    allreduce();
    c.alltoall = allocations(alltoall);
    c.alltoallv = allocations(alltoallv);
    c.allreduce = allocations(allreduce);
    // Two receive buffers in turn: every call misses the slot, binds the
    // plan the cache holds and rebinds the slot.
    auto alltoall_into = [&](std::vector<int>& r) {
      cartcomm::alltoall(sb.data(), 1, ints, r.data(), 1, ints, cc, combining);
    };
    alltoall_into(rb2);  // the buffers' first miss each
    alltoall_into(rb);
    for (int i = 0; i < 4; ++i) {
      c.alltoall_miss.push_back(allocations([&] { alltoall_into(rb2); }));
      c.alltoall_miss.push_back(allocations([&] { alltoall_into(rb); }));
    }
  });
  return c;
}

}  // namespace

TEST(CompileAllocs, CountsArePinned) {
  // analyze: the C_k bitmaps and the tree's O(d) buffers. The compiles
  // add three vectors per round (two placement lists and the offset)
  // and, for the reduce, the DAG's per-level tables and one parent list
  // per carried partial.
  const Counts small = count_compile(3);
  const Counts large = count_compile(5);
  EXPECT_EQ(small.analyze, 48u);
  EXPECT_EQ(small.alltoall, 54u);
  EXPECT_EQ(small.reduce, 161u);
  EXPECT_EQ(large.analyze, 48u);
  EXPECT_EQ(large.alltoall, 85u);
  EXPECT_EQ(large.reduce, 204u);
}

TEST(CompileAllocs, GrowWithRoundsNotNeighbors) {
  const Counts small = count_compile(3);
  const Counts large = count_compile(5);
  ASSERT_EQ(small.t, 243);
  ASSERT_EQ(large.t, 3125);  // x12.9
  ASSERT_EQ(small.rounds, 10);
  ASSERT_EQ(large.rounds, 20);  // x2
  // large / small <= C_large / C_small, in integers.
  auto grows_like_c = [&](std::size_t s, std::size_t l) {
    return l * static_cast<std::size_t>(small.rounds) <=
           s * static_cast<std::size_t>(large.rounds);
  };
  EXPECT_TRUE(grows_like_c(small.analyze, large.analyze))
      << small.analyze << " -> " << large.analyze;
  EXPECT_TRUE(grows_like_c(small.alltoall, large.alltoall))
      << small.alltoall << " -> " << large.alltoall;
  EXPECT_TRUE(grows_like_c(small.reduce, large.reduce))
      << small.reduce << " -> " << large.reduce;
}

TEST(CompileAllocs, OneShotCallsOnAWarmSlotArePinnedAndFlatInT) {
  // alltoall and alltoallv: the two descriptor vectors and the plan key's
  // word vector; allreduce: the send descriptor vector and the key.
  const OneShotCounts small = count_oneshot(3);  // t = 243
  const OneShotCounts large = count_oneshot(5);  // t = 3125
  EXPECT_EQ(small.alltoall, 3u);
  EXPECT_EQ(small.alltoallv, 3u);
  EXPECT_EQ(small.allreduce, 2u);
  EXPECT_EQ(large.alltoall, small.alltoall);
  EXPECT_EQ(large.alltoallv, small.alltoallv);
  EXPECT_EQ(large.allreduce, small.allreduce);
}

TEST(CompileAllocs, OneShotSlotMissIsPinned) {
  // A call whose receive buffer differs from the slot's binds the plan the
  // cache holds: the two descriptor vectors, one plan key, the bound
  // schedule's datatypes and a fresh execution scratch. The bind grows with
  // the rounds C (10 at t = 243, 20 at t = 3125), as a compile does.
  const OneShotCounts small = count_oneshot(3);
  const OneShotCounts large = count_oneshot(5);
  ASSERT_EQ(small.alltoall_miss.size(), 8u);
  for (std::size_t i = 0; i < small.alltoall_miss.size(); ++i) {
    EXPECT_EQ(small.alltoall_miss[i], 82u) << "call " << i;
    EXPECT_EQ(large.alltoall_miss[i], 135u) << "call " << i;
  }
}

TEST(CompileAllocs, PersistentTrivialExecutionsAllocateNothing) {
  // bulk3d's shape: a 1x2x2 torus, Moore(3), 4 ranks, the trivial
  // schedule. hard_sync() after start() has every rank's receives posted
  // before any later phase sends, so each of those messages is copied
  // straight into its posted receive; only phase 0's may be staged.
  constexpr int kReps = 16;
  const std::vector<int> dims{1, 2, 2};
  const auto nb = cartcomm::Neighborhood::moore(3);
  std::vector<std::size_t> execute(4), start_wait(4);
  mpl::run(4, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const auto t = static_cast<std::size_t>(nb.count());
    constexpr int m = 16;
    std::vector<int> sb(t * m, 1), rb(t * m);
    const mpl::Datatype ints = mpl::Datatype::of<int>();
    const cartcomm::PersistentColl op = cartcomm::alltoall_init(
        sb.data(), m, ints, rb.data(), m, ints, cc,
        cartcomm::Algorithm::trivial);
    auto start_wait_once = [&] {
      cartcomm::CartRequest req = op.start();
      world.hard_sync();
      req.wait();
    };
    // Warm-up. Stage every message of one execution at once: each rank
    // sends its blocks to the other ranks before any receive is posted, so
    // the payload pools and unexpected queues hold as much as an execution
    // can stage, whatever the interleaving.
    const int me = world.rank();
    for (std::size_t i = 0; i < t; ++i) {
      const int to = cc.target_ranks()[i];
      if (to != me) world.send(&sb[i * m], m, ints, to, 1);
    }
    world.hard_sync();
    for (std::size_t i = 0; i < t; ++i) {
      const int from = cc.source_ranks()[i];
      if (from != me) world.recv(&rb[i * m], m, ints, from, 1);
    }
    world.hard_sync();
    op.execute();  // the execution scratch
    start_wait_once();
    const auto r = static_cast<std::size_t>(me);
    for (int i = 0; i < kReps; ++i) {
      world.hard_sync();
      execute[r] += allocations([&] { op.execute(); });
      world.hard_sync();
      start_wait[r] += allocations(start_wait_once);
    }
  });
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(execute[r], 0u) << "rank " << r;
    EXPECT_EQ(start_wait[r], 0u) << "rank " << r;
  }
}
