// Property-based correctness fuzzer for the Cartesian collectives.
//
// Each iteration draws a random configuration — dimension count, mesh
// extents, periodic/non-periodic mix, a t-neighborhood with duplicate,
// zero and out-of-range offsets, block size — and checks that
//
//   (1) the message-combining alltoall/allgather agree element-exactly
//       with the trivial (direct) algorithms and with the analytic oracle,
//       and so does the automatic alltoall, which combines over the
//       routing neighborhood (offsets folded on small tori),
//   (2) the combining, routed and trivial schedules pass the static
//       verifier, locally (verify_schedule, the routed one against its
//       routing neighborhood) and globally across ranks (verify_global).
//
// Every iteration derives its own seed from the base seed; a failure
// prints a one-line replay recipe and appends the seed to
// cart_fuzz_failures.txt (uploaded as a CI artifact by the nightly job).
//
//   ./test_cart_fuzz --seed=N --iters=K     # or MPL_FUZZ_SEED/MPL_FUZZ_ITERS
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cart_test_util.hpp"
#include "cartcomm/plan.hpp"
#include "verify/verify.hpp"

using cartcomm::Algorithm;
using cartcomm::Neighborhood;

namespace {

std::uint64_t g_base_seed = 20260807;
int g_iters = 30;

struct FuzzCase {
  std::vector<int> dims;
  std::vector<int> periods;  // empty = fully periodic
  std::vector<int> offsets;  // flat t*d
  int d = 1;
  int m = 1;

  [[nodiscard]] int nprocs() const {
    int p = 1;
    for (int v : dims) p *= v;
    return p;
  }

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "d=" << d << " dims=[";
    for (std::size_t i = 0; i < dims.size(); ++i)
      os << (i ? "," : "") << dims[i];
    os << "] periods=[";
    for (std::size_t i = 0; i < periods.size(); ++i)
      os << (i ? "," : "") << periods[i];
    os << "] m=" << m << " offsets=[";
    for (std::size_t i = 0; i < offsets.size(); ++i)
      os << (i ? "," : "") << offsets[i];
    os << "]";
    return os.str();
  }
};

FuzzCase draw_case(std::mt19937_64& rng) {
  FuzzCase fc;
  fc.d = 1 + static_cast<int>(rng() % 3);
  fc.dims.resize(static_cast<std::size_t>(fc.d));
  int nprocs = 1;
  for (int k = 0; k < fc.d; ++k) {
    int v = 1 + static_cast<int>(rng() % 4);
    if (nprocs * v > 24) v = 1;  // keep the simulated world small
    fc.dims[static_cast<std::size_t>(k)] = v;
    nprocs *= v;
  }
  if (rng() % 2 != 0) {  // non-periodic mix (empty = all periodic)
    fc.periods.resize(static_cast<std::size_t>(fc.d));
    for (int k = 0; k < fc.d; ++k)
      fc.periods[static_cast<std::size_t>(k)] = static_cast<int>(rng() % 2);
  }
  // Neighborhood: duplicates, the zero vector (self) and offsets wrapping
  // several times around small tori are all legal and must all work.
  const int t = 1 + static_cast<int>(rng() % 8);
  fc.offsets.resize(static_cast<std::size_t>(t) * fc.d);
  for (int& o : fc.offsets) o = static_cast<int>(rng() % 11) - 5;
  fc.m = 1 + static_cast<int>(rng() % 4);
  return fc;
}

/// Run one fuzz case: combining vs trivial vs oracle for alltoall and
/// allgather and automatic for alltoall, plus static verification of the
/// combining, routed and trivial schedules.
void run_case(const FuzzCase& fc) {
  const Neighborhood nb(fc.d, fc.offsets);
  const int t = nb.count();
  const int m = fc.m;
  mpl::run(fc.nprocs(), [&](mpl::Comm& world) {
    auto cc =
        cartcomm::cart_neighborhood_create(world, fc.dims, fc.periods, nb);
    const mpl::Datatype ty = mpl::Datatype::of<int>();
    const std::size_t n = static_cast<std::size_t>(t) * m;

    // -- alltoall: combining vs trivial vs automatic vs oracle --------------
    std::vector<int> sb(n);
    for (int i = 0; i < t; ++i) {
      for (int e = 0; e < m; ++e)
        sb[static_cast<std::size_t>(i) * m + e] =
            carttest::pattern(world.rank(), i, e);
    }
    std::vector<int> comb(n, -777);
    std::vector<int> triv(n, -777);
    std::vector<int> autom(n, -777);
    cartcomm::alltoall(sb.data(), m, ty, comb.data(), m, ty, cc,
                       Algorithm::combining);
    cartcomm::alltoall(sb.data(), m, ty, triv.data(), m, ty, cc,
                       Algorithm::trivial);
    cartcomm::alltoall(sb.data(), m, ty, autom.data(), m, ty, cc,
                       Algorithm::automatic);
    for (int i = 0; i < t; ++i) {
      const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
      for (int e = 0; e < m; ++e) {
        const std::size_t at = static_cast<std::size_t>(i) * m + e;
        const int want =
            src == mpl::PROC_NULL ? -777 : carttest::pattern(src, i, e);
        ASSERT_EQ(comb[at], want) << "alltoall combining: rank "
                                  << world.rank() << " block " << i
                                  << " elem " << e;
        ASSERT_EQ(triv[at], comb[at])
            << "alltoall trivial/combining disagree: rank " << world.rank()
            << " block " << i << " elem " << e;
        ASSERT_EQ(autom[at], comb[at])
            << "alltoall automatic/combining disagree: rank " << world.rank()
            << " block " << i << " elem " << e;
      }
    }

    // -- allgather: combining vs trivial vs oracle -------------------------
    std::vector<int> ag_sb(static_cast<std::size_t>(m));
    for (int e = 0; e < m; ++e)
      ag_sb[static_cast<std::size_t>(e)] = carttest::ag_pattern(world.rank(), e);
    std::vector<int> ag_comb(n, -777);
    std::vector<int> ag_triv(n, -777);
    cartcomm::allgather(ag_sb.data(), m, ty, ag_comb.data(), m, ty, cc,
                        Algorithm::combining);
    cartcomm::allgather(ag_sb.data(), m, ty, ag_triv.data(), m, ty, cc,
                        Algorithm::trivial);
    for (int i = 0; i < t; ++i) {
      const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
      for (int e = 0; e < m; ++e) {
        const std::size_t at = static_cast<std::size_t>(i) * m + e;
        const int want =
            src == mpl::PROC_NULL ? -777 : carttest::ag_pattern(src, e);
        ASSERT_EQ(ag_comb[at], want) << "allgather combining: rank "
                                     << world.rank() << " block " << i
                                     << " elem " << e;
        ASSERT_EQ(ag_triv[at], ag_comb[at])
            << "allgather trivial/combining disagree: rank " << world.rank()
            << " block " << i << " elem " << e;
      }
    }

    // -- static verification of the executed schedules ---------------------
    std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
    std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      sends[static_cast<std::size_t>(i)] = {
          &sb[static_cast<std::size_t>(i) * m], m, ty};
      recvs[static_cast<std::size_t>(i)] = {
          &comb[static_cast<std::size_t>(i) * m], m, ty};
    }
    const cartcomm::Schedule a2a = cartcomm::build_alltoall_schedule(
        cc, sends, recvs, Algorithm::combining);
    const cartcomm::VerifyReport ra =
        cartcomm::verify_schedule(a2a, cc, cartcomm::ScheduleKind::alltoall);
    EXPECT_TRUE(ra.ok()) << ra.to_string();
    EXPECT_EQ(carttest::temp_write_once_issue(a2a), "")
        << "rank " << world.rank();
    for (int i = 0; i < t; ++i) {
      recvs[static_cast<std::size_t>(i)] = {
          &autom[static_cast<std::size_t>(i) * m], m, ty};
    }
    // The routed schedule, whether or not automatic picks it at this m.
    const cartcomm::CartNeighborComm& rc =
        cc.routing(sizeof(int) * static_cast<std::size_t>(m));
    const cartcomm::Schedule a2a_routed = cartcomm::build_alltoall_schedule(
        rc, sends, recvs, Algorithm::combining);
    const cartcomm::VerifyReport rr = cartcomm::verify_schedule(
        a2a_routed, rc, cartcomm::ScheduleKind::alltoall);
    EXPECT_TRUE(rr.ok()) << rr.to_string();
    EXPECT_EQ(carttest::temp_write_once_issue(a2a_routed), "")
        << "rank " << world.rank();
    // Blocks too large to merge rounds fold only the coordinates that
    // reach this process: run and verify that routing too.
    std::vector<int> unmerged(n, -777);
    for (int i = 0; i < t; ++i) {
      recvs[static_cast<std::size_t>(i)] = {
          &unmerged[static_cast<std::size_t>(i) * m], m, ty};
    }
    const cartcomm::CartNeighborComm& rc_big = cc.routing(std::size_t{1} << 30);
    const cartcomm::Schedule a2a_unmerged = cartcomm::build_alltoall_schedule(
        rc_big, sends, recvs, Algorithm::combining);
    a2a_unmerged.execute(cc.comm());
    EXPECT_EQ(unmerged, comb) << "rank " << world.rank();
    const cartcomm::VerifyReport ru = cartcomm::verify_schedule(
        a2a_unmerged, rc_big, cartcomm::ScheduleKind::alltoall);
    EXPECT_TRUE(ru.ok()) << ru.to_string();
    for (int i = 0; i < t; ++i) {
      recvs[static_cast<std::size_t>(i)] = {
          &triv[static_cast<std::size_t>(i) * m], m, ty};
    }
    const cartcomm::Schedule a2a_triv =
        cartcomm::build_trivial_schedule(cc, sends, recvs);
    // The trivial schedules pre-post: the region check (c) runs over the
    // whole schedule and the pairing check (a) over the whole execution.
    EXPECT_TRUE(a2a_triv.preposts_receives());
    const cartcomm::VerifyReport rat = cartcomm::verify_schedule(
        a2a_triv, cc, cartcomm::ScheduleKind::trivial);
    EXPECT_TRUE(rat.ok()) << rat.to_string();

    const cartcomm::SendBlock ag_send{ag_sb.data(), m, ty};
    for (int i = 0; i < t; ++i) {
      recvs[static_cast<std::size_t>(i)] = {
          &ag_comb[static_cast<std::size_t>(i) * m], m, ty};
    }
    const cartcomm::Schedule ag =
        cartcomm::build_allgather_schedule(cc, ag_send, recvs);
    const cartcomm::VerifyReport rg =
        cartcomm::verify_schedule(ag, cc, cartcomm::ScheduleKind::allgather);
    EXPECT_TRUE(rg.ok()) << rg.to_string();
    for (int i = 0; i < t; ++i) {
      sends[static_cast<std::size_t>(i)] = ag_send;
      recvs[static_cast<std::size_t>(i)] = {
          &ag_triv[static_cast<std::size_t>(i) * m], m, ty};
    }
    const cartcomm::Schedule ag_triv_sched =
        cartcomm::build_trivial_schedule(cc, sends, recvs);
    const cartcomm::VerifyReport rgt = cartcomm::verify_schedule(
        ag_triv_sched, cc, cartcomm::ScheduleKind::trivial);
    EXPECT_TRUE(rgt.ok()) << rgt.to_string();

    // Cross-rank: every rank fused the same rounds, all sends are paired.
    for (const cartcomm::Schedule* s :
         {&a2a, &a2a_routed, &a2a_unmerged, &a2a_triv, &ag_triv_sched}) {
      const auto summaries =
          cartcomm::gather_summaries(cc.comm(), cartcomm::summarize(*s, cc));
      if (world.rank() == 0) {
        const cartcomm::VerifyReport global =
            cartcomm::verify_global(summaries, cc.grid());
        EXPECT_TRUE(global.ok()) << global.to_string();
      }
    }
  });
}

// -- reduction fuzzing --------------------------------------------------------

/// Small bounded per-contribution value: keeps up to 8 chained integer
/// folds (including the doubling non-commutative op) far from overflow.
int rvalue(int origin_rank, int idx, int elem) {
  const int v = carttest::pattern(origin_rank, idx, elem) % 1000;
  return v < 0 ? v + 1000 : v;
}

enum class FuzzOp { sum, min, max, doubling };  // doubling: non-commutative

mpl::ReduceOp make_fuzz_op(FuzzOp which) {
  switch (which) {
    case FuzzOp::sum:
      return mpl::ReduceOp::sum<int>();
    case FuzzOp::min:
      return mpl::ReduceOp::min<int>();
    case FuzzOp::max:
      return mpl::ReduceOp::max<int>();
    case FuzzOp::doubling:
      break;
  }
  // acc*2 + in: non-commutative and non-associative, so it detects any
  // deviation from the documented index-order fold of the trivial
  // algorithm. No identity: zero-contribution processes are exercised by
  // the builtin ops above.
  return mpl::ReduceOp::make<int>(
      "doubling", [](int a, int b) { return a * 2 + b; },
      /*commutative=*/false, 0);
}

int apply_fuzz_op(FuzzOp which, int a, int b) {
  switch (which) {
    case FuzzOp::sum:
      return a + b;
    case FuzzOp::min:
      return std::min(a, b);
    case FuzzOp::max:
      return std::max(a, b);
    case FuzzOp::doubling:
      return a * 2 + b;
  }
  return 0;
}

int fuzz_op_identity(FuzzOp which) {
  switch (which) {
    case FuzzOp::sum:
      return 0;
    case FuzzOp::min:
      return std::numeric_limits<int>::max();
    case FuzzOp::max:
      return std::numeric_limits<int>::lowest();
    case FuzzOp::doubling:
      return 0;  // explicit identity passed to make()
  }
  return 0;
}

/// Run one reduction fuzz case: trivial vs straight-line oracle (exact,
/// index order — also for the non-commutative op), combining vs trivial
/// (commutative ops, random dimension order), float determinism with a
/// ULP-style bound, and static verification of the reducing schedules.
void run_reduce_case(const FuzzCase& fc, FuzzOp which,
                     cartcomm::DimOrder order) {
  const Neighborhood nb(fc.d, fc.offsets);
  const int t = nb.count();
  const int m = fc.m;
  const bool commutative = which != FuzzOp::doubling;
  mpl::run(fc.nprocs(), [&](mpl::Comm& world) {
    auto cc =
        cartcomm::cart_neighborhood_create(world, fc.dims, fc.periods, nb);
    const mpl::Datatype ty = mpl::Datatype::of<int>();
    const mpl::ReduceOp op = make_fuzz_op(which);

    // -- neighbor reduce: trivial vs oracle, combining vs trivial ----------
    std::vector<int> sb(static_cast<std::size_t>(m));
    for (int e = 0; e < m; ++e)
      sb[static_cast<std::size_t>(e)] = rvalue(world.rank(), 0, e);
    std::vector<int> triv(static_cast<std::size_t>(m), -777);
    const int blocks = cartcomm::cart_neighbor_reduce(
        sb.data(), triv.data(), m, ty, op, cc, Algorithm::trivial, order);
    int live = 0;
    for (int e = 0; e < m; ++e) {
      // Straight-line oracle: fold the on-mesh contributions in neighbor
      // index order, exactly as the trivial algorithm documents.
      int acc = fuzz_op_identity(which);
      bool first = true;
      int nlive = 0;
      for (int i = 0; i < t; ++i) {
        const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
        if (src == mpl::PROC_NULL) continue;
        ++nlive;
        const int v = rvalue(src, 0, e);
        acc = first ? v : apply_fuzz_op(which, acc, v);
        first = false;
      }
      live = nlive;
      ASSERT_EQ(triv[static_cast<std::size_t>(e)],
                first ? fuzz_op_identity(which) : acc)
          << "reduce trivial vs oracle: rank " << world.rank() << " elem "
          << e;
    }
    ASSERT_EQ(blocks, live) << "rank " << world.rank();
    if (commutative) {
      std::vector<int> comb(static_cast<std::size_t>(m), -777);
      cartcomm::cart_neighbor_reduce(sb.data(), comb.data(), m, ty, op, cc,
                                     Algorithm::combining, order);
      for (int e = 0; e < m; ++e) {
        ASSERT_EQ(comb[static_cast<std::size_t>(e)],
                  triv[static_cast<std::size_t>(e)])
            << "reduce combining vs trivial: rank " << world.rank()
            << " elem " << e;
      }
    }

    // -- allreduce: self folded exactly once (appended when absent) --------
    {
      std::vector<int> ar(static_cast<std::size_t>(m), -777);
      cartcomm::cart_neighbor_allreduce(sb.data(), ar.data(), m, ty, op, cc,
                                        Algorithm::trivial, order);
      for (int e = 0; e < m; ++e) {
        int acc = 0;
        bool first = true;
        for (int i = 0; i < t; ++i) {
          const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
          if (src == mpl::PROC_NULL) continue;
          const int v = rvalue(src, 0, e);
          acc = first ? v : apply_fuzz_op(which, acc, v);
          first = false;
        }
        if (!nb.contains_zero_vector()) {
          const int v = rvalue(world.rank(), 0, e);
          acc = first ? v : apply_fuzz_op(which, acc, v);
          first = false;
        }
        ASSERT_EQ(ar[static_cast<std::size_t>(e)],
                  first ? fuzz_op_identity(which) : acc)
            << "allreduce vs oracle: rank " << world.rank() << " elem " << e;
      }
    }

    // -- reduce_scatter_block: block i addressed to the target at N[i] -----
    {
      std::vector<int> ssb(static_cast<std::size_t>(t) * m);
      for (int i = 0; i < t; ++i)
        for (int e = 0; e < m; ++e)
          ssb[static_cast<std::size_t>(i) * m + e] =
              rvalue(world.rank(), i, e);
      std::vector<int> rs(static_cast<std::size_t>(m), -777);
      cartcomm::cart_reduce_scatter_block(ssb.data(), rs.data(), m, ty, op,
                                          cc, Algorithm::trivial, order);
      for (int e = 0; e < m; ++e) {
        int acc = 0;
        bool first = true;
        for (int i = 0; i < t; ++i) {
          const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
          if (src == mpl::PROC_NULL) continue;
          const int v = rvalue(src, i, e);
          acc = first ? v : apply_fuzz_op(which, acc, v);
          first = false;
        }
        ASSERT_EQ(rs[static_cast<std::size_t>(e)],
                  first ? fuzz_op_identity(which) : acc)
            << "reduce_scatter vs oracle: rank " << world.rank() << " elem "
            << e;
      }
      if (commutative) {
        std::vector<int> rsc(static_cast<std::size_t>(m), -777);
        cartcomm::cart_reduce_scatter_block(ssb.data(), rsc.data(), m, ty, op,
                                            cc, Algorithm::combining, order);
        for (int e = 0; e < m; ++e) {
          ASSERT_EQ(rsc[static_cast<std::size_t>(e)],
                    rs[static_cast<std::size_t>(e)])
              << "reduce_scatter combining vs trivial: rank " << world.rank()
              << " elem " << e;
        }
      }
    }

    // -- float: trivial bit-exact vs oracle, combining ULP-bounded ---------
    {
      const mpl::Datatype dty = mpl::Datatype::of<double>();
      std::vector<double> dsb(static_cast<std::size_t>(m));
      for (int e = 0; e < m; ++e)
        dsb[static_cast<std::size_t>(e)] =
            1.0 / (1.0 + rvalue(world.rank(), 0, e));
      std::vector<double> dtriv(static_cast<std::size_t>(m), 0.0);
      cartcomm::cart_neighbor_reduce(dsb.data(), dtriv.data(), m, dty,
                                     mpl::ReduceOp::sum<double>(), cc,
                                     Algorithm::trivial, order);
      for (int e = 0; e < m; ++e) {
        double acc = 0.0;
        double mag = 0.0;
        for (int i = 0; i < t; ++i) {
          const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
          if (src == mpl::PROC_NULL) continue;
          const double v = 1.0 / (1.0 + rvalue(src, 0, e));
          acc += v;
          mag += v;
        }
        // Same association as the oracle loop: bit-exact.
        ASSERT_EQ(dtriv[static_cast<std::size_t>(e)], acc)
            << "float reduce trivial vs oracle: rank " << world.rank()
            << " elem " << e;
        std::vector<double> dcomb(static_cast<std::size_t>(m), 0.0);
        cartcomm::cart_neighbor_reduce(dsb.data(), dcomb.data(), m, dty,
                                       mpl::ReduceOp::sum<double>(), cc,
                                       Algorithm::combining, order);
        // Reassociation error only: a handful of ULPs at the result's
        // magnitude.
        const double tol =
            64.0 * std::numeric_limits<double>::epsilon() * (mag + 1.0);
        ASSERT_NEAR(dcomb[static_cast<std::size_t>(e)], acc, tol)
            << "float reduce combining: rank " << world.rank() << " elem "
            << e;
      }
    }

    // -- static verification of the reducing schedules ---------------------
    const cartcomm::SendBlock rsend[1] = {{sb.data(), m, ty}};
    const cartcomm::RecvBlock rrecv{triv.data(), m, ty};
    const mpl::ReduceOp sum = mpl::ReduceOp::sum<int>();
    const cartcomm::Schedule red_comb = cartcomm::build_reduce_schedule(
        cc, rsend, rrecv, sum, cartcomm::ReduceVariant::reduce, true, order);
    const cartcomm::VerifyReport vc = cartcomm::verify_schedule(
        red_comb, cc, cartcomm::ScheduleKind::reduce, order);
    EXPECT_TRUE(vc.ok()) << vc.to_string();
    const cartcomm::Schedule red_triv = cartcomm::build_reduce_schedule(
        cc, rsend, rrecv, sum, cartcomm::ReduceVariant::reduce, false, order);
    const cartcomm::VerifyReport vt = cartcomm::verify_schedule(
        red_triv, cc, cartcomm::ScheduleKind::reduce_trivial, order);
    EXPECT_TRUE(vt.ok()) << vt.to_string();

    // Cross-rank: merge consistency and FIFO pairing of the reducing
    // rounds (empty boundary payloads are skipped by both sides).
    const auto summaries = cartcomm::gather_summaries(
        cc.comm(), cartcomm::summarize(red_comb, cc));
    if (world.rank() == 0) {
      const cartcomm::VerifyReport global =
          cartcomm::verify_global(summaries, cc.grid());
      EXPECT_TRUE(global.ok()) << global.to_string();
    }
  });
}

void log_failing_seed(std::uint64_t seed) {
  std::fprintf(stderr,
               "MPL_FUZZ: failing configuration, replay with "
               "--seed=%llu --iters=1\n",
               static_cast<unsigned long long>(seed));
  if (std::FILE* f = std::fopen("cart_fuzz_failures.txt", "a")) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(seed));
    std::fclose(f);
  }
}

}  // namespace

TEST(CartFuzz, CombinedMatchesTrivialAndVerifies) {
  for (int it = 0; it < g_iters; ++it) {
    // Per-iteration seed: replaying a failure with --seed=<logged> runs the
    // failing configuration as iteration 0.
    const std::uint64_t seed = g_base_seed + static_cast<std::uint64_t>(it);
    std::mt19937_64 rng(seed);
    const FuzzCase fc = draw_case(rng);
    // Plan-cache fuzzing: randomly flip the cache on or off per iteration
    // (and occasionally flush it) so every drawn configuration exercises
    // both the compile-and-cache and the direct-build paths; the
    // element-exact combining/trivial/oracle cross-check below is the
    // cached-vs-uncached equivalence test. Decided from the iteration rng
    // (after draw_case) so the drawn cases stay replayable by seed.
    const bool cache_on = rng() % 2 == 0;
    cartcomm::plan_cache_set_enabled(cache_on);
    if (rng() % 8 == 0) cartcomm::plan_cache_clear();
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + ": " + fc.describe() +
                 (cache_on ? " [plan cache on]" : " [plan cache off]"));
    run_case(fc);
    if (::testing::Test::HasFailure()) {
      log_failing_seed(seed);
      break;
    }
  }
  cartcomm::plan_cache_set_enabled(true);  // restore the default
}

TEST(CartFuzz, ReductionsMatchOracleAndVerify) {
  for (int it = 0; it < g_iters; ++it) {
    // Same replay discipline as the movement fuzzer: the logged seed reruns
    // the failing configuration as iteration 0. A distinct seed stream
    // (offset by a large constant) keeps the reduction cases independent of
    // the movement cases at the same iteration index.
    const std::uint64_t seed =
        g_base_seed + 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(it);
    std::mt19937_64 rng(seed);
    const FuzzCase fc = draw_case(rng);
    const FuzzOp which = static_cast<FuzzOp>(rng() % 4);
    const cartcomm::DimOrder order = rng() % 2 == 0
                                         ? cartcomm::DimOrder::increasing_ck
                                         : cartcomm::DimOrder::natural;
    const bool cache_on = rng() % 2 == 0;
    cartcomm::plan_cache_set_enabled(cache_on);
    if (rng() % 8 == 0) cartcomm::plan_cache_clear();
    SCOPED_TRACE("reduce fuzz seed " + std::to_string(seed) + ": " +
                 fc.describe() + " op=" + std::to_string(static_cast<int>(which)) +
                 (order == cartcomm::DimOrder::natural ? " order=natural"
                                                       : " order=increasing_ck") +
                 (cache_on ? " [plan cache on]" : " [plan cache off]"));
    run_reduce_case(fc, which, order);
    if (::testing::Test::HasFailure()) {
      log_failing_seed(seed);
      break;
    }
  }
  cartcomm::plan_cache_set_enabled(true);  // restore the default
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (const char* e = std::getenv("MPL_FUZZ_SEED"))
    g_base_seed = std::strtoull(e, nullptr, 0);
  if (const char* e = std::getenv("MPL_FUZZ_ITERS")) g_iters = std::atoi(e);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--seed=", 7) == 0) {
      g_base_seed = std::strtoull(a + 7, nullptr, 0);
    } else if (std::strncmp(a, "--iters=", 8) == 0) {
      g_iters = std::atoi(a + 8);
    } else {
      std::fprintf(stderr,
                   "usage: test_cart_fuzz [--seed=N] [--iters=K] "
                   "[gtest flags]\n");
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
