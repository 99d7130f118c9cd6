// Persistent (precomputed-schedule) operations: reuse across iterations,
// interaction with changing buffer contents (the Listing 3 usage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "cart_test_util.hpp"

using cartcomm::Algorithm;
using cartcomm::Neighborhood;

namespace {
const mpl::Datatype kInt = mpl::Datatype::of<int>();
}

TEST(Persistent, AlltoallReusedManyTimes) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const int m = 4;
    std::vector<int> sb(static_cast<std::size_t>(t) * m);
    std::vector<int> rb(static_cast<std::size_t>(t) * m);
    auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                      cc, Algorithm::combining);
    for (int iter = 0; iter < 5; ++iter) {
      // New data each iteration, same schedule.
      for (int i = 0; i < t; ++i) {
        for (int e = 0; e < m; ++e) {
          sb[static_cast<std::size_t>(i) * m + e] =
              carttest::pattern(world.rank(), i, e) + iter;
        }
      }
      op.execute();
      for (int i = 0; i < t; ++i) {
        const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
        for (int e = 0; e < m; ++e) {
          ASSERT_EQ(rb[static_cast<std::size_t>(i) * m + e],
                    carttest::pattern(src, i, e) + iter)
              << "iter " << iter;
        }
      }
    }
  });
}

TEST(Persistent, AllgatherReusedManyTimes) {
  mpl::run(8, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2, 2};
    const Neighborhood nb = Neighborhood::stencil(3, 3, -1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const int m = 2;
    std::vector<int> sb(static_cast<std::size_t>(m));
    std::vector<int> rb(static_cast<std::size_t>(t) * m);
    auto op = cartcomm::allgather_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                       cc, Algorithm::combining);
    for (int iter = 0; iter < 4; ++iter) {
      for (int e = 0; e < m; ++e) {
        sb[static_cast<std::size_t>(e)] = carttest::ag_pattern(world.rank(), e) + iter;
      }
      op.execute();
      for (int i = 0; i < t; ++i) {
        const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
        for (int e = 0; e < m; ++e) {
          ASSERT_EQ(rb[static_cast<std::size_t>(i) * m + e],
                    carttest::ag_pattern(src, e) + iter);
        }
      }
    }
  });
}

TEST(Persistent, TrivialPlanAlsoReusable) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    const Neighborhood nb = Neighborhood::von_neumann(2, true);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t));
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::trivial);
    EXPECT_EQ(op.algorithm(), Algorithm::trivial);
    for (int iter = 0; iter < 3; ++iter) {
      for (int i = 0; i < t; ++i) {
        sb[static_cast<std::size_t>(i)] = world.rank() * 100 + i + iter;
      }
      op.execute();
      for (int i = 0; i < t; ++i) {
        EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                  cc.source_ranks()[static_cast<std::size_t>(i)] * 100 + i + iter);
      }
    }
  });
}

TEST(Persistent, ScheduleIntrospectionCoversTrivial) {
  // The trivial algorithm runs as a Schedule too: one phase of one round
  // per non-zero neighbor, in neighbor order, moving the caller's block as
  // given; the zero vector is the copy phase.
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    const Neighborhood nb = Neighborhood::von_neumann(2, /*self=*/true);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t));
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::trivial);
    const cartcomm::Schedule& s = op.schedule();
    EXPECT_EQ(s.phases(), t - 1);
    EXPECT_EQ(s.rounds(), t - 1);
    EXPECT_EQ(s.send_block_count(), t - 1);
    EXPECT_EQ(s.send_bytes(), static_cast<long long>((t - 1) * sizeof(int)));
    EXPECT_EQ(s.copy_count(), 1);
    EXPECT_EQ(s.temp_bytes(), 0u);
    for (const int n : s.phase_rounds()) EXPECT_EQ(n, 1);
    std::size_t j = 0;
    for (int i = 0; i < t; ++i) {
      if (nb.nonzeros(i) == 0) continue;
      const std::size_t ui = static_cast<std::size_t>(i);
      const cartcomm::ScheduleRound& r = s.round_list()[j++];
      EXPECT_TRUE(std::ranges::equal(r.offset, nb.offset(i))) << "neighbor " << i;
      EXPECT_EQ(r.sendrank, cc.target_ranks()[ui]);
      EXPECT_EQ(r.recvrank, cc.source_ranks()[ui]);
      EXPECT_EQ(r.sendbuf, &sb[ui]);
      EXPECT_EQ(r.recvbuf, &rb[ui]);
      EXPECT_EQ(r.sendcount, 1);
      EXPECT_EQ(r.recvcount, 1);
      EXPECT_EQ(r.sendtype, kInt);
      EXPECT_EQ(r.recvtype, kInt);
    }
  });
}

TEST(Persistent, DefaultConstructedThrows) {
  cartcomm::PersistentColl op;
  EXPECT_THROW(op.execute(), mpl::Error);
}

TEST(Persistent, NonblockingStartWait) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t), -1);
    for (int i = 0; i < t; ++i) sb[static_cast<std::size_t>(i)] = world.rank() * 10 + i;
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::combining);
    cartcomm::CartRequest r = op.start();
    // Overlap: do unrelated local work while the collective progresses.
    long long acc = 0;
    for (int i = 0; i < 1000; ++i) acc += i;
    EXPECT_EQ(acc, 499500);
    r.wait();
    EXPECT_TRUE(r.done());
    for (int i = 0; i < t; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                cc.source_ranks()[static_cast<std::size_t>(i)] * 10 + i);
    }
  });
}

TEST(Persistent, NonblockingTestPolling) {
  mpl::run(8, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2, 2};
    const Neighborhood nb = Neighborhood::stencil(3, 3, -1);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t), -1);
    auto op = cartcomm::allgather_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                       cc, Algorithm::combining);
    cartcomm::CartRequest r = op.start();
    while (!r.test()) {
      std::this_thread::yield();
    }
    for (int i = 0; i < t; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                cc.source_ranks()[static_cast<std::size_t>(i)]);
    }
  });
}

TEST(Persistent, NonblockingTrivialPlan) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::von_neumann(2, /*self=*/true);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t), -1);
    for (int i = 0; i < t; ++i) sb[static_cast<std::size_t>(i)] = world.rank() * 8 + i;
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::trivial);
    cartcomm::CartRequest r = op.start();
    r.wait();
    for (int i = 0; i < t; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                cc.source_ranks()[static_cast<std::size_t>(i)] * 8 + i);
    }
  });
}

TEST(Persistent, NonblockingRepeatedStarts) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::moore(2));
    std::vector<int> sb(9), rb(9);
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::combining);
    for (int iter = 0; iter < 5; ++iter) {
      for (int i = 0; i < 9; ++i) sb[static_cast<std::size_t>(i)] = world.rank() + iter * 100 + i;
      auto r = op.start();
      r.wait();
      for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                  cc.source_ranks()[static_cast<std::size_t>(i)] + iter * 100 + i);
      }
    }
  });
}

TEST(Persistent, TwoOperationsInterleaved) {
  // Two independent persistent schedules on the same communicator.
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb1(static_cast<std::size_t>(t)), rb1(static_cast<std::size_t>(t));
    std::vector<int> sb2(static_cast<std::size_t>(t)), rb2(static_cast<std::size_t>(t));
    auto op1 = cartcomm::alltoall_init(sb1.data(), 1, kInt, rb1.data(), 1, kInt,
                                       cc, Algorithm::combining);
    auto op2 = cartcomm::alltoall_init(sb2.data(), 1, kInt, rb2.data(), 1, kInt,
                                       cc, Algorithm::combining);
    for (int i = 0; i < t; ++i) {
      sb1[static_cast<std::size_t>(i)] = world.rank() * 10 + i;
      sb2[static_cast<std::size_t>(i)] = -(world.rank() * 10 + i);
    }
    op1.execute();
    op2.execute();
    op1.execute();  // re-run after another collective
    for (int i = 0; i < t; ++i) {
      const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
      EXPECT_EQ(rb1[static_cast<std::size_t>(i)], src * 10 + i);
      EXPECT_EQ(rb2[static_cast<std::size_t>(i)], -(src * 10 + i));
    }
  });
}

// ---------------------------------------------------------------------------
// Lifetime: a started request must keep the operation's state alive
// ---------------------------------------------------------------------------

TEST(PersistentLifetime, RequestOutlivesCombiningHandle) {
  // Regression: destroying the PersistentColl while an execution is in
  // flight used to leave the request pointing at a freed schedule (and
  // temp pool). The request co-owns the state now; ASan covers the rest.
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t), -1);
    for (int i = 0; i < t; ++i) sb[static_cast<std::size_t>(i)] = world.rank() * 7 + i;
    cartcomm::CartRequest r;
    {
      auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                        cc, Algorithm::combining);
      r = op.start();
    }  // op destroyed with the execution still in flight
    r.wait();
    EXPECT_TRUE(r.done());
    for (int i = 0; i < t; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                cc.source_ranks()[static_cast<std::size_t>(i)] * 7 + i);
    }
  });
}

TEST(PersistentLifetime, RequestOutlivesTrivialHandle) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::von_neumann(2, /*self=*/true);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t), -1);
    for (int i = 0; i < t; ++i) sb[static_cast<std::size_t>(i)] = world.rank() * 3 + i;
    cartcomm::CartRequest r;
    {
      auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                        cc, Algorithm::trivial);
      r = op.start();
    }
    r.wait();
    for (int i = 0; i < t; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                cc.source_ranks()[static_cast<std::size_t>(i)] * 3 + i);
    }
  });
}

TEST(PersistentLifetime, MovedFromHandleAsserts) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::moore(2));
    std::vector<int> sb(9), rb(9);
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::combining);
    cartcomm::PersistentColl stolen = std::move(op);
    // Executing through the stale handle is an assertion, never a UAF.
    EXPECT_THROW(op.execute(), mpl::Error);
    EXPECT_THROW(static_cast<void>(op.start()), mpl::Error);
    EXPECT_THROW(static_cast<void>(op.schedule()), mpl::Error);
    // The moved-to handle still works (collectively, on every rank).
    for (int i = 0; i < 9; ++i) sb[static_cast<std::size_t>(i)] = world.rank() + i;
    stolen.execute();
    for (int i = 0; i < 9; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                cc.source_ranks()[static_cast<std::size_t>(i)] + i);
    }
  });
}

TEST(PersistentLifetime, DoubleStartAsserts) {
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                 Neighborhood::moore(2));
    std::vector<int> sb(9), rb(9);
    for (int i = 0; i < 9; ++i) sb[static_cast<std::size_t>(i)] = world.rank() * 9 + i;
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::combining);
    auto r = op.start();
    // At most one execution in flight: a second start (or a blocking
    // execute) through the same operation must assert, not corrupt the
    // shared request table.
    EXPECT_THROW(static_cast<void>(op.start()), mpl::Error);
    EXPECT_THROW(op.execute(), mpl::Error);
    r.wait();
    for (int i = 0; i < 9; ++i) {
      EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                cc.source_ranks()[static_cast<std::size_t>(i)] * 9 + i);
    }
    // Completed: the operation is startable again.
    op.execute();
  });
}

// ---------------------------------------------------------------------------
// Steady state: repeated executions perform no pool allocation
// ---------------------------------------------------------------------------

TEST(PersistentSteadyState, CombiningExecuteAllocationFree) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const int m = 8;
    std::vector<int> sb(static_cast<std::size_t>(t) * m, world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t) * m);
    auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                      cc, Algorithm::combining);
    // Prime the freelist past the worst-case number of in-flight payloads
    // (sends per iteration is far below 48) so the measurement below
    // isolates the persistent path: once the pool is deep enough, a miss
    // could only come from the operation itself allocating.
    auto& pool = mpl::this_proc()->pool();
    {
      std::vector<mpl::detail::Buffer> prime;
      for (int i = 0; i < 48; ++i) prime.push_back(pool.acquire(1 << 16));
      for (auto& b : prime) pool.recycle(std::move(b));
    }
    for (int i = 0; i < 3; ++i) op.execute();  // warm the scratch tables
    mpl::barrier(world);
    const std::uint64_t misses_before = pool.stats().misses;
    for (int i = 0; i < 10; ++i) {
      op.execute();
      // All payloads of this iteration are consumed (and recycled to their
      // origin pools) before their receivers pass the barrier.
      mpl::barrier(world);
    }
    const std::uint64_t misses_after = pool.stats().misses;
    // Zero-setup steady state: every buffer comes from the primed freelist
    // and every receive reuses its recycled request state.
    EXPECT_EQ(misses_after, misses_before) << "rank " << world.rank();
  });
}

TEST(PersistentSteadyState, TrivialExecuteAllocationFree) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::moore(2);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const int m = 8;
    std::vector<int> sb(static_cast<std::size_t>(t) * m, world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t) * m);
    auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                      cc, Algorithm::trivial);
    ASSERT_EQ(op.algorithm(), Algorithm::trivial);
    auto& pool = mpl::this_proc()->pool();
    {
      std::vector<mpl::detail::Buffer> prime;
      for (int i = 0; i < 48; ++i) prime.push_back(pool.acquire(1 << 16));
      for (auto& b : prime) pool.recycle(std::move(b));
    }
    for (int i = 0; i < 3; ++i) op.execute();  // warm the scratch tables
    mpl::barrier(world);
    const std::uint64_t misses_before = pool.stats().misses;
    for (int i = 0; i < 10; ++i) {
      op.execute();
      mpl::barrier(world);
    }
    const std::uint64_t misses_after = pool.stats().misses;
    EXPECT_EQ(misses_after, misses_before) << "rank " << world.rank();
  });
}

TEST(PersistentSteadyState, TrivialStartWaitAllocationFree) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> dims{3, 3};
    const Neighborhood nb = Neighborhood::von_neumann(2, /*self=*/true);
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
    std::vector<int> rb(static_cast<std::size_t>(t));
    auto op = cartcomm::alltoall_init(sb.data(), 1, kInt, rb.data(), 1, kInt,
                                      cc, Algorithm::trivial);
    auto& pool = mpl::this_proc()->pool();
    {
      std::vector<mpl::detail::Buffer> prime;
      for (int i = 0; i < 48; ++i) prime.push_back(pool.acquire(1 << 16));
      for (auto& b : prime) pool.recycle(std::move(b));
    }
    for (int i = 0; i < 3; ++i) {
      auto r = op.start();
      r.wait();
    }
    mpl::barrier(world);
    const std::uint64_t misses_before = pool.stats().misses;
    for (int i = 0; i < 10; ++i) {
      auto r = op.start();
      r.wait();
      mpl::barrier(world);
    }
    const std::uint64_t misses_after = pool.stats().misses;
    EXPECT_EQ(misses_after, misses_before) << "rank " << world.rank();
  });
}
