// Compiled-plan cache (src/cartcomm/plan.*): cache-hit schedules must be
// bit-identical to freshly built ones (same comm, a second comm with the
// same signature, and versus the cache-disabled path), virtual clocks must
// be unchanged by caching (including under a deterministic fault plan),
// the sharded cache must survive a mixed hit/miss/evict hammer from all
// ranks, the counters must flow through to OpenMetrics, and each
// communicator's one-shot slots must serve exactly the inputs they were
// bound from.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cart_test_util.hpp"
#include "cartcomm/plan.hpp"
#include "telemetry/openmetrics.hpp"
#include "telemetry/plan_cache.hpp"

using cartcomm::Algorithm;
using cartcomm::Neighborhood;

namespace {

/// Every test starts from (and leaves behind) the default cache state:
/// enabled, default cap, empty.
class PlanCache : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    cartcomm::plan_cache_set_enabled(true);
    cartcomm::plan_cache_set_cap(256);
    cartcomm::plan_cache_clear();
  }
};

/// Build one combining alltoall_init on a 3x3 torus with the Moore
/// neighborhood and return every rank's Schedule::dump(). `m` varies the
/// block size (and therefore the cache key).
std::vector<std::string> alltoall_dumps(int m,
                                        const mpl::RunOptions& opts = {}) {
  std::vector<std::string> dumps(9);
  mpl::run(
      9,
      [&](mpl::Comm& world) {
        const Neighborhood nb = Neighborhood::moore(2);
        const std::vector<int> dims{3, 3};
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        const int t = nb.count();
        std::vector<int> sb(static_cast<std::size_t>(t) * m);
        std::vector<int> rb(static_cast<std::size_t>(t) * m);
        auto op = cartcomm::alltoall_init(sb.data(), m, mpl::Datatype::of<int>(),
                                          rb.data(), m, mpl::Datatype::of<int>(),
                                          cc, Algorithm::combining);
        dumps[static_cast<std::size_t>(world.rank())] = op.schedule().dump();
      },
      opts);
  return dumps;
}

/// One full combining alltoall (executed, element-checked) per rank;
/// returns every rank's virtual clock at the end of the run.
std::vector<double> alltoall_vclocks(const mpl::RunOptions& opts, int m,
                                     int reps) {
  std::vector<double> clocks(9);
  mpl::run(
      9,
      [&](mpl::Comm& world) {
        const Neighborhood nb = Neighborhood::moore(2);
        const std::vector<int> dims{3, 3};
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        const int t = nb.count();
        std::vector<int> sb(static_cast<std::size_t>(t) * m);
        for (int i = 0; i < t; ++i)
          for (int e = 0; e < m; ++e)
            sb[static_cast<std::size_t>(i) * m + e] =
                carttest::pattern(world.rank(), i, e);
        for (int rep = 0; rep < reps; ++rep) {
          std::vector<int> rb(static_cast<std::size_t>(t) * m, -777);
          cartcomm::alltoall(sb.data(), m, mpl::Datatype::of<int>(), rb.data(),
                             m, mpl::Datatype::of<int>(), cc,
                             Algorithm::combining);
          for (int i = 0; i < t; ++i) {
            const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
            for (int e = 0; e < m; ++e) {
              ASSERT_EQ(rb[static_cast<std::size_t>(i) * m + e],
                        carttest::pattern(src, i, e))
                  << "rank " << world.rank() << " rep " << rep << " block "
                  << i;
            }
          }
        }
        clocks[static_cast<std::size_t>(world.rank())] = world.vclock();
      },
      opts);
  return clocks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bit-identical schedules on cache hits
// ---------------------------------------------------------------------------

TEST_F(PlanCache, RepeatedInitOnSameCommIsBitIdentical) {
  const auto before = telemetry::plan_cache_totals();
  const auto first = alltoall_dumps(3);
  // Torus: every position has the same boundary signature, so all nine
  // ranks share one cached plan.
  EXPECT_EQ(cartcomm::plan_cache_size(), 1u);
  const auto second = alltoall_dumps(3);
  EXPECT_EQ(cartcomm::plan_cache_size(), 1u);
  for (int r = 0; r < 9; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)],
              second[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
  const auto after = telemetry::plan_cache_totals();
  EXPECT_GT(after.hits, before.hits);  // second run: all hits
}

TEST_F(PlanCache, SecondCommWithSameSignatureSharesThePlan) {
  std::vector<std::string> first(9), second(9);
  mpl::run(9, [&](mpl::Comm& world) {
    const Neighborhood nb = Neighborhood::moore(2);
    const std::vector<int> dims{3, 3};
    auto cc1 = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    auto cc2 = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t) * 2);
    std::vector<int> rb(static_cast<std::size_t>(t) * 2);
    auto op1 = cartcomm::alltoall_init(sb.data(), 2, mpl::Datatype::of<int>(),
                                       rb.data(), 2, mpl::Datatype::of<int>(),
                                       cc1, Algorithm::combining);
    auto op2 = cartcomm::alltoall_init(sb.data(), 2, mpl::Datatype::of<int>(),
                                       rb.data(), 2, mpl::Datatype::of<int>(),
                                       cc2, Algorithm::combining);
    first[static_cast<std::size_t>(world.rank())] = op1.schedule().dump();
    second[static_cast<std::size_t>(world.rank())] = op2.schedule().dump();
  });
  // Distinct communicators, identical signature: one cache entry, and the
  // schedules bound from the shared plan are bit-identical.
  EXPECT_EQ(cartcomm::plan_cache_size(), 1u);
  for (int r = 0; r < 9; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)],
              second[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST_F(PlanCache, CachedScheduleMatchesUncachedBuild) {
  const auto cached = alltoall_dumps(4);   // miss, then 8 hits
  const auto cached2 = alltoall_dumps(4);  // all hits
  cartcomm::plan_cache_set_enabled(false);
  cartcomm::plan_cache_clear();
  const auto uncached = alltoall_dumps(4);
  EXPECT_EQ(cartcomm::plan_cache_size(), 0u);
  for (int r = 0; r < 9; ++r) {
    EXPECT_EQ(cached[static_cast<std::size_t>(r)],
              uncached[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_EQ(cached2[static_cast<std::size_t>(r)],
              uncached[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST_F(PlanCache, MeshBoundarySignaturesGetDistinctEntriesButIdenticalBinds) {
  // Non-periodic mesh: corner/edge/interior positions have different
  // boundary signatures, so the cache holds several entries — and a rerun
  // must still reproduce every rank's schedule exactly.
  const std::vector<int> mesh_periods{0, 0};
  std::vector<std::string> first(9), second(9);
  auto build = [&](std::vector<std::string>& out) {
    mpl::run(9, [&](mpl::Comm& world) {
      const Neighborhood nb = Neighborhood::moore(2);
      const std::vector<int> dims{3, 3};
      auto cc =
          cartcomm::cart_neighborhood_create(world, dims, mesh_periods, nb);
      const int t = nb.count();
      std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t));
      auto op = cartcomm::alltoall_init(sb.data(), 1, mpl::Datatype::of<int>(),
                                        rb.data(), 1, mpl::Datatype::of<int>(),
                                        cc, Algorithm::combining);
      out[static_cast<std::size_t>(world.rank())] = op.schedule().dump();
    });
  };
  build(first);
  const std::size_t entries = cartcomm::plan_cache_size();
  EXPECT_GT(entries, 1u);  // 3x3 mesh: corner/edge/center signatures
  EXPECT_LE(entries, 9u);
  build(second);
  EXPECT_EQ(cartcomm::plan_cache_size(), entries);  // all hits, no growth
  for (int r = 0; r < 9; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)],
              second[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST_F(PlanCache, AllgatherHitsAreBitIdentical) {
  std::vector<std::string> first(8), second(8);
  auto build = [&](std::vector<std::string>& out) {
    mpl::run(8, [&](mpl::Comm& world) {
      const Neighborhood nb = Neighborhood::stencil(3, 3, -1);
      const std::vector<int> dims{2, 2, 2};
      auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
      const int t = nb.count();
      std::vector<int> sb(4), rb(static_cast<std::size_t>(t) * 4);
      auto op = cartcomm::allgather_init(sb.data(), 4, mpl::Datatype::of<int>(),
                                         rb.data(), 4, mpl::Datatype::of<int>(),
                                         cc, Algorithm::combining);
      out[static_cast<std::size_t>(world.rank())] = op.schedule().dump();
    });
  };
  build(first);
  EXPECT_EQ(cartcomm::plan_cache_size(), 1u);
  build(second);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)],
              second[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Virtual clocks: caching must not change what the network sees
// ---------------------------------------------------------------------------

TEST_F(PlanCache, VirtualClocksMatchUncachedRun) {
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  const auto cached = alltoall_vclocks(opts, 4, 3);
  cartcomm::plan_cache_set_enabled(false);
  cartcomm::plan_cache_clear();
  const auto uncached = alltoall_vclocks(opts, 4, 3);
  for (int r = 0; r < 9; ++r) {
    EXPECT_DOUBLE_EQ(cached[static_cast<std::size_t>(r)],
                     uncached[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST_F(PlanCache, VirtualClocksMatchUncachedRunUnderFaults) {
  // The fault plan is deterministic in (seed, rank, sequence); identical
  // schedules must therefore see identical drops/delays and land on
  // identical virtual clocks whether or not the plan came from the cache.
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  opts.faults =
      mpl::FaultConfig::parse("seed=3,drop=0.05,delay=1e-6,delay_prob=0.5");
  const auto cached = alltoall_vclocks(opts, 2, 3);
  cartcomm::plan_cache_set_enabled(false);
  cartcomm::plan_cache_clear();
  const auto uncached = alltoall_vclocks(opts, 2, 3);
  for (int r = 0; r < 9; ++r) {
    EXPECT_DOUBLE_EQ(cached[static_cast<std::size_t>(r)],
                     uncached[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Concurrency: mixed hit/miss/evict hammer from all ranks
// ---------------------------------------------------------------------------

TEST_F(PlanCache, HammerMixedSignaturesUnderTinyCap) {
  // Tiny cap: per-shard cap is (4+7)/8 = 1, so at most 8 entries survive
  // and six distinct signatures force constant insert/evict churn while
  // nine rank threads race lookups. Every iteration is element-checked.
  cartcomm::plan_cache_set_cap(4);
  const auto before = telemetry::plan_cache_totals();
  mpl::run(9, [&](mpl::Comm& world) {
    const Neighborhood nb = Neighborhood::moore(2);
    const std::vector<int> dims{3, 3};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    for (int iter = 0; iter < 12; ++iter) {
      const int m = 1 + iter % 6;  // six distinct cache keys
      std::vector<int> sb(static_cast<std::size_t>(t) * m);
      std::vector<int> rb(static_cast<std::size_t>(t) * m, -777);
      for (int i = 0; i < t; ++i)
        for (int e = 0; e < m; ++e)
          sb[static_cast<std::size_t>(i) * m + e] =
              carttest::pattern(world.rank(), i, e);
      cartcomm::alltoall(sb.data(), m, mpl::Datatype::of<int>(), rb.data(), m,
                         mpl::Datatype::of<int>(), cc, Algorithm::combining);
      for (int i = 0; i < t; ++i) {
        const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
        for (int e = 0; e < m; ++e) {
          ASSERT_EQ(rb[static_cast<std::size_t>(i) * m + e],
                    carttest::pattern(src, i, e))
              << "rank " << world.rank() << " iter " << iter << " block " << i;
        }
      }
    }
  });
  EXPECT_LE(cartcomm::plan_cache_size(), 8u);  // 8 shards x per-shard cap 1
  const auto after = telemetry::plan_cache_totals();
  // 9 ranks x 12 iterations: every build either hit or missed.
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            9u * 12u);
  EXPECT_GT(after.hits, before.hits);
}

TEST_F(PlanCache, CapRespectedAcrossManySignatures) {
  cartcomm::plan_cache_set_cap(8);
  for (int m = 1; m <= 20; ++m) alltoall_dumps(m);
  EXPECT_LE(cartcomm::plan_cache_size(), 16u);  // 8 shards x cap (8+7)/8 = 2
  const auto totals = telemetry::plan_cache_totals();
  EXPECT_GT(totals.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Disabled mode
// ---------------------------------------------------------------------------

TEST_F(PlanCache, DisabledCacheStoresNothingAndCountsNothing) {
  cartcomm::plan_cache_set_enabled(false);
  cartcomm::plan_cache_clear();
  const auto before = telemetry::plan_cache_totals();
  const auto a = alltoall_dumps(5);
  const auto b = alltoall_dumps(5);
  EXPECT_EQ(cartcomm::plan_cache_size(), 0u);
  const auto after = telemetry::plan_cache_totals();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  for (int r = 0; r < 9; ++r) {
    EXPECT_EQ(a[static_cast<std::size_t>(r)], b[static_cast<std::size_t>(r)]);
  }
}

// ---------------------------------------------------------------------------
// Counters reach OpenMetrics
// ---------------------------------------------------------------------------

TEST_F(PlanCache, CountersAppearInOpenMetrics) {
  telemetry::MetricsSnapshot snap;
  snap.plan_cache.hits = 17;
  snap.plan_cache.misses = 3;
  snap.plan_cache.evictions = 2;
  snap.plan_cache.entries = 1;
  std::ostringstream os;
  telemetry::write_openmetrics(os, snap);
  const std::string text = os.str();
  EXPECT_NE(text.find("mpl_plan_cache_hits_total 17\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mpl_plan_cache_misses_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("mpl_plan_cache_evictions_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpl_plan_cache_entries 1\n"), std::string::npos);
}

TEST_F(PlanCache, LiveCountersFlowIntoTotals) {
  const auto before = telemetry::plan_cache_totals();
  alltoall_dumps(6);  // one compile (miss + insert), eight hits
  const auto after = telemetry::plan_cache_totals();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 8u);
  EXPECT_EQ(after.entries, before.entries + 1);
}

// ---------------------------------------------------------------------------
// Reducing plans
// ---------------------------------------------------------------------------

TEST_F(PlanCache, ReducePlansHitTheCacheWithExactAccounting) {
  // Each pass makes new communicators, whose one-shot slots start empty.
  // Pass 1: one plan compile (miss) + eight plan hits; pass 2: nine slot
  // misses, each served by the cached plan (a plan hit). Every build is
  // exactly one hit or one miss: hits + misses == builds.
  const auto before = telemetry::plan_cache_totals();
  std::vector<long long> mine(9), out(9);
  auto pass = [&] {
    mpl::run(9, [&](mpl::Comm& world) {
      const Neighborhood nb = Neighborhood::moore(2);
      const std::vector<int> dims{3, 3};
      auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
      const std::size_t r = static_cast<std::size_t>(world.rank());
      mine[r] = world.rank() * 3 + 1;
      out[r] = -1;
      cartcomm::cart_neighbor_reduce(&mine[r], &out[r], 1,
                                     mpl::Datatype::of<long long>(),
                                     mpl::ReduceOp::sum<long long>(), cc,
                                     Algorithm::combining);
      long long expect = 0;
      for (int s : cc.source_ranks()) expect += s * 3 + 1;
      ASSERT_EQ(out[r], expect) << "rank " << world.rank();
    });
  };
  pass();
  EXPECT_EQ(cartcomm::plan_cache_size(), 1u);  // torus: one shared plan
  pass();
  EXPECT_EQ(cartcomm::plan_cache_size(), 1u);
  const auto after = telemetry::plan_cache_totals();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 17u);
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            9u * 2u);
}

TEST_F(PlanCache, ReduceKeySeparatesOpAlgorithmAndVariant) {
  // Same neighborhood and block size, different op element size /
  // algorithm / variant: distinct plans. Ops of one element size (sum and
  // max) and the same op across ranks and passes: shared.
  std::vector<int> mine(9), out(9), sb(9 * 9);
  std::vector<short> mine16(9 * 2), out16(9 * 2);
  mpl::run(9, [&](mpl::Comm& world) {
    const Neighborhood nb = Neighborhood::moore(2);
    const std::vector<int> dims{3, 3};
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const std::size_t r = static_cast<std::size_t>(world.rank());
    mine[r] = world.rank();
    cartcomm::cart_neighbor_reduce(&mine[r], &out[r], 1,
                                   mpl::Datatype::of<int>(),
                                   mpl::ReduceOp::sum<int>(), cc,
                                   Algorithm::combining);
    cartcomm::cart_neighbor_reduce(&mine[r], &out[r], 1,
                                   mpl::Datatype::of<int>(),
                                   mpl::ReduceOp::max<int>(), cc,
                                   Algorithm::combining);
    cartcomm::cart_neighbor_reduce(&mine16[2 * r], &out16[2 * r], 2,
                                   mpl::Datatype::of<short>(),
                                   mpl::ReduceOp::sum<short>(), cc,
                                   Algorithm::combining);
    cartcomm::cart_neighbor_reduce(&mine[r], &out[r], 1,
                                   mpl::Datatype::of<int>(),
                                   mpl::ReduceOp::sum<int>(), cc,
                                   Algorithm::trivial);
    cartcomm::cart_reduce_scatter_block(&sb[r * 9], &out[r], 1,
                                        mpl::Datatype::of<int>(),
                                        mpl::ReduceOp::sum<int>(), cc,
                                        Algorithm::combining);
  });
  // 4-byte elements/combining (sum and max), 2-byte elements/combining,
  // sum/trivial, scatter/combining.
  EXPECT_EQ(cartcomm::plan_cache_size(), 4u);
}

TEST_F(PlanCache, UserOpBuiltOnEachRankSharesOneReducePlan) {
  // A user op made on each rank has a digest of its own per rank, but the
  // compiled reduce plan reads only the element size: one combining
  // neighbor reduce on a 3x3 torus compiles one plan for the user op, as
  // for the built-in sum.
  for (const bool user : {true, false}) {
    cartcomm::plan_cache_clear();
    const auto before = telemetry::plan_cache_totals();
    mpl::run(9, [&](mpl::Comm& world) {
      const std::vector<int> dims{3, 3};
      auto cc = cartcomm::cart_neighborhood_create(world, dims, {},
                                                   Neighborhood::moore(2));
      const mpl::ReduceOp op =
          user ? mpl::ReduceOp::make<int>(
                     "plus", [](int a, int b) { return a + b; },
                     /*commutative=*/true)
               : mpl::ReduceOp::sum<int>();
      const int mine = world.rank() + 1;
      int out = -1;
      cartcomm::cart_neighbor_reduce(&mine, &out, 1, mpl::Datatype::of<int>(),
                                     op, cc, Algorithm::combining);
      int expect = 0;
      for (const int s : cc.source_ranks()) expect += s + 1;
      EXPECT_EQ(out, expect) << "rank " << world.rank();
    });
    const auto after = telemetry::plan_cache_totals();
    EXPECT_EQ(after.misses - before.misses, 1u) << "user op " << user;
    EXPECT_EQ(after.hits - before.hits, 8u) << "user op " << user;
  }
}

TEST_F(PlanCache, AllreduceBuildsItsSelfViewOnce) {
  // A von Neumann neighborhood lacks the zero vector, so the allreduce runs
  // over the communicator's augmented with_self() view. The view is built
  // once per communicator, so repeated one-shot and persistent allreduces
  // compile one plan per boundary signature (exactly one on a torus) and
  // every later call hits.
  struct Grid {
    std::vector<int> dims;
    std::vector<int> periods;
  };
  const Grid grids[] = {{{3, 3}, {1, 1}},
                        {{2, 2, 2}, {1, 1, 1}},
                        {{3, 3}, {0, 0}},
                        {{4, 2}, {0, 1}}};
  for (const Grid& g : grids) {
    for (const Algorithm alg : {Algorithm::trivial, Algorithm::combining}) {
      cartcomm::plan_cache_clear();
      const auto before = telemetry::plan_cache_totals();
      int p = 1;
      for (const int n : g.dims) p *= n;
      std::vector<std::vector<int>> sigs(static_cast<std::size_t>(p));
      mpl::run(p, [&](mpl::Comm& world) {
        const int d = static_cast<int>(g.dims.size());
        auto cc = cartcomm::cart_neighborhood_create(
            world, g.dims, g.periods, Neighborhood::von_neumann(d));
        const auto r = static_cast<std::size_t>(world.rank());
        sigs[r].assign(cc.boundary_signature().begin(),
                       cc.boundary_signature().end());
        const cartcomm::CartNeighborComm& view = cc.with_self();
        const cartcomm::CartNeighborComm copy = cc;
        ASSERT_EQ(&copy.with_self(), &view);  // built once, shared by copies
        ASSERT_EQ(&view.with_self(), &view);  // the view has the zero vector
        ASSERT_EQ(view.neighbor_count(), cc.neighbor_count() + 1);
        const long long mine = world.rank() * 7 + 1;
        long long expect = mine;
        for (const int s : cc.source_ranks()) {
          if (s != mpl::PROC_NULL) expect += s * 7 + 1;
        }
        const mpl::Datatype ll = mpl::Datatype::of<long long>();
        const mpl::ReduceOp sum = mpl::ReduceOp::sum<long long>();
        long long out = -1;
        for (int it = 0; it < 3; ++it) {
          out = -1;
          cartcomm::cart_neighbor_allreduce(&mine, &out, 1, ll, sum, cc, alg);
          ASSERT_EQ(out, expect) << "one-shot, rank " << r << " call " << it;
        }
        auto op = cartcomm::cart_neighbor_allreduce_init(&mine, &out, 1, ll,
                                                         sum, cc, alg);
        for (int it = 0; it < 3; ++it) {
          out = -1;
          op.execute();
          ASSERT_EQ(out, expect) << "persistent, rank " << r << " run " << it;
        }
      });
      const std::set<std::vector<int>> plans(sigs.begin(), sigs.end());
      const bool torus = std::all_of(g.periods.begin(), g.periods.end(),
                                     [](int q) { return q == 1; });
      if (torus) {
        EXPECT_EQ(plans.size(), 1u);
      }
      const auto after = telemetry::plan_cache_totals();
      EXPECT_EQ(after.misses - before.misses, plans.size())
          << "dims " << ::testing::PrintToString(g.dims) << " combining "
          << (alg == Algorithm::combining);
    }
  }
}

// ---------------------------------------------------------------------------
// One-shot slots: each blocking entry point keeps the schedule it bound last
// ---------------------------------------------------------------------------

namespace {

using cartcomm::detail::OneShot;

/// Fill `sb` with rank `rank`'s alltoall pattern shifted by `salt`.
void fill_pattern(std::vector<int>& sb, int rank, int t, int m, int salt) {
  for (int i = 0; i < t; ++i)
    for (int e = 0; e < m; ++e)
      sb[static_cast<std::size_t>(i) * m + e] =
          carttest::pattern(rank, i, e) + salt;
}

/// Is `rb` what rank-ordered sources sent with `salt` in an alltoall?
::testing::AssertionResult alltoall_exact(const cartcomm::CartNeighborComm& cc,
                                          const std::vector<int>& rb, int m,
                                          int salt) {
  for (int i = 0; i < cc.neighbor_count(); ++i) {
    const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
    for (int e = 0; e < m; ++e) {
      const int got = rb[static_cast<std::size_t>(i) * m + e];
      if (got != carttest::pattern(src, i, e) + salt) {
        return ::testing::AssertionFailure()
               << "rank " << cc.rank() << " block " << i << " elem " << e
               << ": " << got;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The first round's datatype storage of the slot's schedule: it stays
/// put while the slot serves and moves when the slot is rebound.
const void* slot_identity(const cartcomm::CartNeighborComm& cc, OneShot k) {
  return cc.oneshot_slot(k).st.sched.round_list().data();
}

}  // namespace

TEST_F(PlanCache, OneShotSlotServesFreshBasicTypesWithOneHitPerCall) {
  // A fresh Datatype::of<int>() per call, as perfbench's oneshot5d makes
  // one, on fixed buffers: the first call compiles once across all ranks,
  // and every later call is exactly one slot hit per rank.
  constexpr int kCalls = 5;
  const auto before = telemetry::plan_cache_totals();
  mpl::run(9, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, std::vector<int>{3, 3},
                                                 {}, Neighborhood::moore(2));
    const int t = cc.neighbor_count();
    const int m = 2;
    std::vector<int> sb(static_cast<std::size_t>(t) * m);
    std::vector<int> rb(sb.size());
    fill_pattern(sb, world.rank(), t, m, 0);
    const void* bound = nullptr;
    for (int call = 0; call < kCalls; ++call) {
      std::fill(rb.begin(), rb.end(), -777);
      cartcomm::alltoall(sb.data(), m, mpl::Datatype::of<int>(), rb.data(), m,
                         mpl::Datatype::of<int>(), cc, Algorithm::combining);
      ASSERT_TRUE(alltoall_exact(cc, rb, m, 0)) << "call " << call;
      if (call == 0) bound = slot_identity(cc, OneShot::alltoall);
      ASSERT_EQ(slot_identity(cc, OneShot::alltoall), bound) << "call " << call;
    }
  });
  const auto after = telemetry::plan_cache_totals();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 9u * kCalls - 1u);
}

TEST_F(PlanCache, OneShotSlotNeverServesAnotherBufferPair) {
  // Two buffer pairs alternate on one entry point: every call rebinds
  // (one plan hit), and each call's data lands in its own receive buffer
  // only.
  constexpr int kCalls = 6;
  const auto before = telemetry::plan_cache_totals();
  mpl::run(9, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, std::vector<int>{3, 3},
                                                 {}, Neighborhood::moore(2));
    const int t = cc.neighbor_count();
    const int m = 3;
    const std::size_t n = static_cast<std::size_t>(t) * m;
    std::vector<int> sb[2] = {std::vector<int>(n), std::vector<int>(n)};
    std::vector<int> rb[2] = {std::vector<int>(n), std::vector<int>(n)};
    fill_pattern(sb[0], world.rank(), t, m, 0);
    fill_pattern(sb[1], world.rank(), t, m, 1000);
    const mpl::Datatype ints = mpl::Datatype::of<int>();
    for (int call = 0; call < kCalls; ++call) {
      const int p = call % 2;
      std::fill(rb[0].begin(), rb[0].end(), -777);
      std::fill(rb[1].begin(), rb[1].end(), -777);
      cartcomm::alltoall(sb[p].data(), m, ints, rb[p].data(), m, ints, cc,
                         Algorithm::combining);
      ASSERT_TRUE(alltoall_exact(cc, rb[p], m, p * 1000)) << "call " << call;
      ASSERT_TRUE(std::all_of(rb[1 - p].begin(), rb[1 - p].end(),
                              [](int v) { return v == -777; }))
          << "call " << call << " wrote the other pair's receive buffer";
    }
  });
  const auto after = telemetry::plan_cache_totals();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 9u * kCalls - 1u);
}

TEST_F(PlanCache, OneShotSlotsAreSeparatePerEntryPoint) {
  // alltoall and an alltoallv with the same counts have equal plan keys;
  // on distinct buffers they still keep a slot each, so alternating them
  // rebinds neither.
  mpl::run(9, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, std::vector<int>{3, 3},
                                                 {}, Neighborhood::moore(2));
    const int t = cc.neighbor_count();
    const int m = 2;
    const std::size_t n = static_cast<std::size_t>(t) * m;
    std::vector<int> sa(n), ra(n), sv(n), rv(n);
    fill_pattern(sa, world.rank(), t, m, 0);
    fill_pattern(sv, world.rank(), t, m, 500);
    const std::vector<int> counts(static_cast<std::size_t>(t), m);
    std::vector<int> displs(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) displs[static_cast<std::size_t>(i)] = i * m;
    const mpl::Datatype ints = mpl::Datatype::of<int>();
    const void* a_bound = nullptr;
    const void* v_bound = nullptr;
    for (int call = 0; call < 4; ++call) {
      cartcomm::alltoall(sa.data(), m, ints, ra.data(), m, ints, cc,
                         Algorithm::combining);
      cartcomm::alltoallv(sv.data(), counts, displs, ints, rv.data(), counts,
                          displs, ints, cc, Algorithm::combining);
      ASSERT_TRUE(alltoall_exact(cc, ra, m, 0)) << "call " << call;
      ASSERT_TRUE(alltoall_exact(cc, rv, m, 500)) << "call " << call;
      if (call == 0) {
        ASSERT_EQ(cc.oneshot_slot(OneShot::alltoall).key,
                  cc.oneshot_slot(OneShot::alltoallv).key);
        a_bound = slot_identity(cc, OneShot::alltoall);
        v_bound = slot_identity(cc, OneShot::alltoallv);
      }
      ASSERT_EQ(slot_identity(cc, OneShot::alltoall), a_bound);
      ASSERT_EQ(slot_identity(cc, OneShot::alltoallv), v_bound);
    }
    // A copy shares the slots; a with_neighborhood view has its own.
    const cartcomm::CartNeighborComm copy = cc;
    EXPECT_EQ(&copy.oneshot_slot(OneShot::alltoall),
              &cc.oneshot_slot(OneShot::alltoall));
    const auto view = cc.with_neighborhood(Neighborhood::moore(2));
    EXPECT_NE(&view.oneshot_slot(OneShot::alltoall),
              &cc.oneshot_slot(OneShot::alltoall));
  });
}

TEST_F(PlanCache, OneShotSlotSurvivesARejectedCall) {
  // An alltoallv whose receive sizes do not match its send sizes throws
  // before anything is built; the slot keeps serving the last good call.
  const auto before = telemetry::plan_cache_totals();
  mpl::run(9, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, std::vector<int>{3, 3},
                                                 {}, Neighborhood::moore(2));
    const int t = cc.neighbor_count();
    const int m = 2;
    const std::size_t n = static_cast<std::size_t>(t) * m;
    std::vector<int> sb(n), rb(n + 1);
    fill_pattern(sb, world.rank(), t, m, 0);
    const std::vector<int> counts(static_cast<std::size_t>(t), m);
    std::vector<int> bad = counts;
    bad[1] = m + 1;
    std::vector<int> displs(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) displs[static_cast<std::size_t>(i)] = i * m;
    const mpl::Datatype ints = mpl::Datatype::of<int>();
    auto good = [&] {
      std::fill(rb.begin(), rb.end(), -777);
      cartcomm::alltoallv(sb.data(), counts, displs, ints, rb.data(), counts,
                          displs, ints, cc, Algorithm::combining);
    };
    good();
    ASSERT_TRUE(alltoall_exact(cc, rb, m, 0));
    const void* bound = slot_identity(cc, OneShot::alltoallv);
    EXPECT_THROW(cartcomm::alltoallv(sb.data(), counts, displs, ints,
                                     rb.data(), bad, displs, ints, cc,
                                     Algorithm::combining),
                 mpl::Error);
    good();
    ASSERT_TRUE(alltoall_exact(cc, rb, m, 0));
    EXPECT_EQ(slot_identity(cc, OneShot::alltoallv), bound);
  });
  // First call: one compile and eight plan hits; the rejected call counts
  // nothing; the repeat is one slot hit per rank.
  const auto after = telemetry::plan_cache_totals();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 8u + 9u);
}

TEST_F(PlanCache, DisabledCacheLeavesOneShotSlotsAlone) {
  // With the cache off every one-shot call rebuilds: the slots are neither
  // read nor written and nothing is counted.
  cartcomm::plan_cache_set_enabled(false);
  const auto before = telemetry::plan_cache_totals();
  mpl::run(9, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, std::vector<int>{3, 3},
                                                 {}, Neighborhood::moore(2));
    const int t = cc.neighbor_count();
    const int m = 2;
    std::vector<int> sb(static_cast<std::size_t>(t) * m);
    std::vector<int> rb(sb.size());
    fill_pattern(sb, world.rank(), t, m, 0);
    const mpl::Datatype ints = mpl::Datatype::of<int>();
    const mpl::ReduceOp sum = mpl::ReduceOp::sum<int>();
    const int mine = world.rank() + 1;
    int expect = 0;  // moore(2) holds the zero vector: self is a source
    for (const int s : cc.with_self().source_ranks()) expect += s + 1;
    for (int call = 0; call < 3; ++call) {
      std::fill(rb.begin(), rb.end(), -777);
      cartcomm::alltoall(sb.data(), m, ints, rb.data(), m, ints, cc,
                         Algorithm::combining);
      ASSERT_TRUE(alltoall_exact(cc, rb, m, 0)) << "call " << call;
      int out = -1;
      cartcomm::cart_neighbor_allreduce(&mine, &out, 1, ints, sum, cc,
                                        Algorithm::combining);
      ASSERT_EQ(out, expect) << "call " << call;
    }
    EXPECT_TRUE(cc.oneshot_slot(OneShot::alltoall).key.words.empty());
    EXPECT_TRUE(
        cc.with_self().oneshot_slot(OneShot::reduce).key.words.empty());
  });
  const auto after = telemetry::plan_cache_totals();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}
