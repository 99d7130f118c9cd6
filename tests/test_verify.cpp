// Tests for the static schedule verifier (src/verify): positive sweeps
// over the grid/neighborhood families the collective tests use, and
// negative tests that corrupt a valid schedule in targeted ways — a
// swapped partner, a dropped merged round on one rank, overlapping
// receive blocks, a forged PROC_NULL partner, a size mismatch — and
// assert each defect is reported with precise rank/phase/round
// coordinates.
#include <gtest/gtest.h>

#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "verify/verify.hpp"

namespace {

using cartcomm::Algorithm;
using cartcomm::Neighborhood;
using cartcomm::ScheduleKind;
using cartcomm::ScheduleSummary;
using cartcomm::VerifyIssue;
using cartcomm::VerifyReport;

int product(std::span<const int> dims) {
  int p = 1;
  for (int d : dims) p *= d;
  return p;
}

struct SweepResult {
  std::vector<ScheduleSummary> summaries;  // indexed by rank
  std::vector<VerifyReport> local;         // verify_schedule() per rank
};

// Build the requested schedule on every rank, run the single-rank checks,
// and collect the per-rank summaries for verify_global().
SweepResult build_and_summarize(const std::vector<int>& dims,
                                const std::vector<int>& periods,
                                const Neighborhood& nb, ScheduleKind kind,
                                cartcomm::DimOrder order =
                                    cartcomm::DimOrder::increasing_ck,
                                Algorithm alg = Algorithm::automatic) {
  const int p = product(dims);
  const int t = nb.count();
  const int m = 4;
  SweepResult out;
  out.summaries.resize(static_cast<std::size_t>(p));
  out.local.resize(static_cast<std::size_t>(p));
  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    std::vector<int> sendbuf(static_cast<std::size_t>(t) * m, 1);
    std::vector<int> recvbuf(static_cast<std::size_t>(t) * m, 0);
    const mpl::Datatype block =
        mpl::Datatype::contiguous(m, mpl::Datatype::of<int>());
    std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
    std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      sends[static_cast<std::size_t>(i)] = {
          sendbuf.data() + static_cast<std::size_t>(i) * m, 1, block};
      recvs[static_cast<std::size_t>(i)] = {
          recvbuf.data() + static_cast<std::size_t>(i) * m, 1, block};
    }
    cartcomm::Schedule sched;
    // An alltoall verifies against the offsets it was routed over.
    const cartcomm::CartNeighborComm& rc =
        kind == ScheduleKind::alltoall
            ? cc.alltoall_routing(alg, sizeof(int) * static_cast<std::size_t>(m))
            : cc;
    if (kind == ScheduleKind::alltoall) {
      sched = cartcomm::build_alltoall_schedule(cc, sends, recvs, alg);
    } else if (kind == ScheduleKind::allgather) {
      sched = cartcomm::build_allgather_schedule(cc, sends.front(), recvs,
                                                 order);
    } else {
      sched = cartcomm::build_trivial_schedule(cc, sends, recvs);
    }
    const int r = world.rank();
    out.local[static_cast<std::size_t>(r)] =
        cartcomm::verify_schedule(sched, rc, kind, order);
    out.summaries[static_cast<std::size_t>(r)] = cartcomm::summarize(sched, rc);
  });
  return out;
}

bool has_issue_at(const VerifyReport& rep, VerifyIssue::Code code, int rank,
                  int phase, int round) {
  for (const VerifyIssue& i : rep.issues) {
    if (i.code == code && i.rank == rank && i.phase == phase &&
        i.round == round) {
      return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Positive: every schedule the existing test grids produce verifies clean.
// ---------------------------------------------------------------------------

TEST(VerifyPositive, AllTestGridsVerifyClean) {
  struct Config {
    std::vector<int> dims, periods;
    Neighborhood nb;
  };
  const std::vector<Config> configs = {
      {{8}, {1}, Neighborhood::von_neumann(1)},                 // periodic ring
      {{8}, {0}, Neighborhood::von_neumann(1, true)},           // path
      {{4, 3}, {1, 1}, Neighborhood::moore(2)},                 // torus
      {{4, 4}, {0, 0}, Neighborhood::moore(2)},                 // mesh
      {{5, 3}, {1, 0}, Neighborhood::stencil(2, 3, -1)},        // mixed
      {{3, 2, 2}, {1, 1, 1}, Neighborhood::von_neumann(3)},     // 3d torus
      {{5, 4}, {1, 1},
       Neighborhood(2, {2, 0, 0, 1, -1, -1, 0, 0, 2, 0, 1, 2})},  // irregular
  };
  for (const Config& c : configs) {
    for (const auto kind : {ScheduleKind::alltoall, ScheduleKind::allgather,
                            ScheduleKind::trivial}) {
      // The alltoall both as the paper builds it and as automatic routes it.
      for (const Algorithm alg : {Algorithm::combining, Algorithm::automatic}) {
        if (kind != ScheduleKind::alltoall && alg == Algorithm::automatic) {
          continue;
        }
        SweepResult r = build_and_summarize(
            c.dims, c.periods, c.nb, kind, cartcomm::DimOrder::increasing_ck,
            alg);
        for (const VerifyReport& rep : r.local) {
          EXPECT_TRUE(rep.ok()) << rep.to_string();
        }
        const mpl::CartGrid grid(c.dims, c.periods);
        const VerifyReport global = cartcomm::verify_global(r.summaries, grid);
        EXPECT_TRUE(global.ok()) << global.to_string();
      }
    }
  }
}

TEST(VerifyPositive, MergedScheduleVerifiesGlobally) {
  // Section 3.4 schedule combination: split the Moore neighborhood into
  // two sub-neighborhoods, merge their alltoall schedules with coalescing,
  // and prove the combined schedule is still globally consistent.
  const std::vector<int> dims = {4, 3}, periods = {1, 1};
  const Neighborhood full = Neighborhood::moore(2);
  const int p = product(dims);
  const int m = 4;
  std::vector<ScheduleSummary> summaries(static_cast<std::size_t>(p));
  std::vector<VerifyReport> local(static_cast<std::size_t>(p));
  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, full);
    const int t = full.count();
    std::vector<int> sendbuf(static_cast<std::size_t>(t) * m, 1);
    std::vector<int> recvbuf(static_cast<std::size_t>(t) * m, 0);
    const mpl::Datatype block =
        mpl::Datatype::contiguous(m, mpl::Datatype::of<int>());
    // Two halves of the neighborhood, derived identically on all ranks.
    std::vector<int> flat_a, flat_b;
    std::vector<cartcomm::SendBlock> sends_a, sends_b;
    std::vector<cartcomm::RecvBlock> recvs_a, recvs_b;
    for (int i = 0; i < t; ++i) {
      const bool first_half = i < t / 2;
      auto& flat = first_half ? flat_a : flat_b;
      flat.insert(flat.end(), full.offset(i).begin(), full.offset(i).end());
      cartcomm::SendBlock sb{sendbuf.data() + static_cast<std::size_t>(i) * m,
                             1, block};
      cartcomm::RecvBlock rb{recvbuf.data() + static_cast<std::size_t>(i) * m,
                             1, block};
      (first_half ? sends_a : sends_b).push_back(sb);
      (first_half ? recvs_a : recvs_b).push_back(rb);
    }
    auto cc_a = cc.with_neighborhood(Neighborhood(2, flat_a));
    auto cc_b = cc.with_neighborhood(Neighborhood(2, flat_b));
    std::vector<cartcomm::Schedule> parts;
    parts.push_back(cartcomm::build_alltoall_schedule(cc_a, sends_a, recvs_a));
    parts.push_back(cartcomm::build_alltoall_schedule(cc_b, sends_b, recvs_b));
    cartcomm::Schedule merged = cartcomm::Schedule::merge(std::move(parts));
    const int r = world.rank();
    local[static_cast<std::size_t>(r)] =
        cartcomm::verify_schedule(merged, cc, ScheduleKind::unknown);
    summaries[static_cast<std::size_t>(r)] = cartcomm::summarize(merged, cc);
  });
  for (const VerifyReport& rep : local) EXPECT_TRUE(rep.ok()) << rep.to_string();
  const mpl::CartGrid grid(dims, periods);
  const VerifyReport global = cartcomm::verify_global(summaries, grid);
  EXPECT_TRUE(global.ok()) << global.to_string();
}

TEST(VerifyPositive, GatherSummariesRoundTripsAndVerifies) {
  // The collective gather path: every rank allgathers the serialized
  // summaries and runs the global verification itself.
  const std::vector<int> dims = {4, 3}, periods = {1, 0};
  const Neighborhood nb = Neighborhood::moore(2);
  const int p = product(dims);
  const int t = nb.count();
  const int m = 2;
  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    std::vector<int> sendbuf(static_cast<std::size_t>(t) * m, 1);
    std::vector<int> recvbuf(static_cast<std::size_t>(t) * m, 0);
    const mpl::Datatype block =
        mpl::Datatype::contiguous(m, mpl::Datatype::of<int>());
    std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
    std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      sends[static_cast<std::size_t>(i)] = {
          sendbuf.data() + static_cast<std::size_t>(i) * m, 1, block};
      recvs[static_cast<std::size_t>(i)] = {
          recvbuf.data() + static_cast<std::size_t>(i) * m, 1, block};
    }
    auto sched = cartcomm::build_alltoall_schedule(cc, sends, recvs);
    const ScheduleSummary mine = cartcomm::summarize(sched, cc);

    // encode/decode round trip.
    const ScheduleSummary back = ScheduleSummary::decode(mine.encode());
    EXPECT_EQ(back.rank, mine.rank);
    EXPECT_EQ(back.phase_rounds, mine.phase_rounds);
    EXPECT_EQ(back.rounds.size(), mine.rounds.size());
    EXPECT_EQ(back.send_block_count, mine.send_block_count);

    const std::vector<ScheduleSummary> all =
        cartcomm::gather_summaries(cc.comm(), mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    EXPECT_EQ(all[static_cast<std::size_t>(world.rank())].rounds.size(),
              mine.rounds.size());
    const VerifyReport global = cartcomm::verify_global(all, cc.grid());
    EXPECT_TRUE(global.ok()) << global.to_string();
  });
}

TEST(VerifyPositive, FoldedAlltoallVerifiesAgainstItsRoutingNeighborhood) {
  // The automatic alltoall on a 1x2x2 torus combines over the routing
  // neighborhood (2 rounds, one local copy). Its closed forms hold for
  // those offsets and diverge from the offsets as given (C = 6).
  const std::vector<int> dims = {1, 2, 2};
  const Neighborhood nb = Neighborhood::moore(3);
  const int t = nb.count();
  mpl::run(product(dims), [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    std::vector<int> sendbuf(static_cast<std::size_t>(t), 1);
    std::vector<int> recvbuf(static_cast<std::size_t>(t), 0);
    std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
    std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
    for (std::size_t i = 0; i < sends.size(); ++i) {
      sends[i] = {&sendbuf[i], 1, mpl::Datatype::of<int>()};
      recvs[i] = {&recvbuf[i], 1, mpl::Datatype::of<int>()};
    }
    const cartcomm::Schedule sched =
        cartcomm::build_alltoall_schedule(cc, sends, recvs);
    EXPECT_EQ(sched.rounds(), 2);
    EXPECT_EQ(sched.copy_count(), 1);
    const VerifyReport routed = cartcomm::verify_schedule(
        sched, cc.routing(sizeof(int)), ScheduleKind::alltoall);
    EXPECT_TRUE(routed.ok()) << routed.to_string();
    const VerifyReport given =
        cartcomm::verify_schedule(sched, cc, ScheduleKind::alltoall);
    EXPECT_TRUE(given.has(VerifyIssue::Code::round_count)) << given.to_string();
    EXPECT_TRUE(given.has(VerifyIssue::Code::volume)) << given.to_string();
  });
}

TEST(VerifyPositive, ClosedFormDivergenceIsFlagged) {
  // Build the allgather schedule in one dimension order but verify it
  // against another: the per-phase Sigma_k C_k structure check must flag
  // the divergence (C_0 = 3 != C_1 = 1 makes the orders distinguishable).
  // Checked against the trivial closed form (one phase per non-zero
  // neighbor), its d phases diverge too.
  const Neighborhood nb(2, {1, 0, -1, 0, 2, 0, 0, 1, 0, 0});
  const std::vector<int> dims = {4, 3}, periods = {1, 1};
  const int p = product(dims);
  const int t = nb.count();
  std::vector<VerifyReport> local(static_cast<std::size_t>(p));
  std::vector<VerifyReport> as_trivial(static_cast<std::size_t>(p));
  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    std::vector<int> sendbuf(4, 1);
    std::vector<int> recvbuf(static_cast<std::size_t>(t) * 4, 0);
    const mpl::Datatype block =
        mpl::Datatype::contiguous(4, mpl::Datatype::of<int>());
    cartcomm::SendBlock send{sendbuf.data(), 1, block};
    std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      recvs[static_cast<std::size_t>(i)] = {
          recvbuf.data() + static_cast<std::size_t>(i) * 4, 1, block};
    }
    auto sched = cartcomm::build_allgather_schedule(
        cc, send, recvs, cartcomm::DimOrder::decreasing_ck);
    local[static_cast<std::size_t>(world.rank())] = cartcomm::verify_schedule(
        sched, cc, ScheduleKind::allgather, cartcomm::DimOrder::increasing_ck);
    as_trivial[static_cast<std::size_t>(world.rank())] =
        cartcomm::verify_schedule(sched, cc, ScheduleKind::trivial);
  });
  for (const VerifyReport& rep : local) {
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(VerifyIssue::Code::round_count)) << rep.to_string();
  }
  for (const VerifyReport& rep : as_trivial) {
    EXPECT_TRUE(rep.has(VerifyIssue::Code::round_count)) << rep.to_string();
  }
}

// ---------------------------------------------------------------------------
// Negative: targeted corruptions of a valid schedule.
// ---------------------------------------------------------------------------

class VerifyNegative : public ::testing::Test {
 protected:
  void SetUp() override {
    dims_ = {4, 3};
    periods_ = {1, 1};
    nb_ = Neighborhood::moore(2);
    sweep_ = build_and_summarize(dims_, periods_, nb_, ScheduleKind::alltoall);
    grid_ = mpl::CartGrid(dims_, periods_);
    for (const VerifyReport& rep : sweep_.local) ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(cartcomm::verify_global(sweep_.summaries, grid_).ok());
  }

  std::vector<int> dims_, periods_;
  Neighborhood nb_;
  SweepResult sweep_;
  mpl::CartGrid grid_;
};

TEST_F(VerifyNegative, SwappedPartnerIsDetected) {
  // Rank 1 computes a wrong send partner for phase 0, round 0 — the exact
  // failure mode of a non-identical coalescing or rank computation.
  std::vector<ScheduleSummary> corrupted = sweep_.summaries;
  cartcomm::RoundSummary& r0 = corrupted[1].rounds[0];
  const int old_partner = r0.sendrank;
  r0.sendrank = (old_partner + 1) % grid_.size();
  ASSERT_NE(r0.sendrank, old_partner);

  const VerifyReport rep = cartcomm::verify_global(corrupted, grid_);
  ASSERT_FALSE(rep.ok());
  // The defect is attributed to rank 1, phase 0, round 0.
  EXPECT_TRUE(has_issue_at(rep, VerifyIssue::Code::partner_mismatch,
                           /*rank=*/1, /*phase=*/0, /*round=*/0))
      << rep.to_string();
  // ... and the FIFO pairing check sees the consequence: a send nobody
  // posted a receive for.
  EXPECT_TRUE(rep.has(VerifyIssue::Code::unmatched_send) ||
              rep.has(VerifyIssue::Code::unmatched_recv))
      << rep.to_string();
}

TEST_F(VerifyNegative, DroppedMergedRoundIsDetected) {
  // Rank 2 fused one round fewer than everybody else in phase 0 — the
  // FIFO-breaking mesh-boundary bug class of the message-combining paper.
  std::vector<ScheduleSummary> corrupted = sweep_.summaries;
  ScheduleSummary& s = corrupted[2];
  s.rounds.erase(s.rounds.begin());
  s.phase_rounds[0] -= 1;

  const VerifyReport rep = cartcomm::verify_global(corrupted, grid_);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_issue_at(rep, VerifyIssue::Code::merge_inconsistency,
                           /*rank=*/2, /*phase=*/0, /*round=*/-1))
      << rep.to_string();
}

TEST_F(VerifyNegative, PairedSizeMismatchIsDetected) {
  // Rank 1 sends 4 bytes more than its partner posted: a type-signature
  // mismatch MPI would surface as truncation (or worse) at execution.
  std::vector<ScheduleSummary> corrupted = sweep_.summaries;
  corrupted[1].rounds[0].send_bytes += 4;

  const VerifyReport rep = cartcomm::verify_global(corrupted, grid_);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_issue_at(rep, VerifyIssue::Code::size_mismatch,
                           /*rank=*/1, /*phase=*/0, /*round=*/0))
      << rep.to_string();
}

TEST_F(VerifyNegative, ForgedNullPartnerIsDetected) {
  // A PROC_NULL partner on a full torus cannot be a mesh boundary: with
  // the provenance flag it is a partner mismatch, without it the verifier
  // reports the missing provenance distinctly.
  std::vector<ScheduleSummary> corrupted = sweep_.summaries;
  corrupted[3].rounds[0].sendrank = mpl::PROC_NULL;

  VerifyReport rep = cartcomm::verify_global(corrupted, grid_);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_issue_at(rep, VerifyIssue::Code::null_without_boundary,
                           /*rank=*/3, /*phase=*/0, /*round=*/0))
      << rep.to_string();

  corrupted[3].rounds[0].send_boundary = true;
  rep = cartcomm::verify_global(corrupted, grid_);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_issue_at(rep, VerifyIssue::Code::partner_mismatch,
                           /*rank=*/3, /*phase=*/0, /*round=*/0))
      << rep.to_string();
}

TEST(VerifyNegativeLocal, OverlappingRecvBlocksAreDetected) {
  // Two neighbors share one receive block: both phase-0 rounds of a ring
  // alltoall then write the same bytes concurrently. verify_schedule must
  // localize the overlap to the phase and round.
  const std::vector<int> dims = {6}, periods = {1};
  const Neighborhood nb = Neighborhood::von_neumann(1);  // {-1, +1}
  const int p = product(dims);
  const int m = 4;
  std::vector<VerifyReport> local(static_cast<std::size_t>(p));
  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    std::vector<int> sendbuf(2 * m, 1);
    std::vector<int> recvbuf(2 * m, 0);
    const mpl::Datatype block =
        mpl::Datatype::contiguous(m, mpl::Datatype::of<int>());
    std::vector<cartcomm::SendBlock> sends = {
        {sendbuf.data(), 1, block}, {sendbuf.data() + m, 1, block}};
    std::vector<cartcomm::RecvBlock> recvs = {
        {recvbuf.data(), 1, block}, {recvbuf.data(), 1, block}};  // alias!
    auto sched = cartcomm::build_alltoall_schedule(cc, sends, recvs);
    local[static_cast<std::size_t>(world.rank())] =
        cartcomm::verify_schedule(sched, cc, ScheduleKind::alltoall);
  });
  for (const VerifyReport& rep : local) {
    ASSERT_FALSE(rep.ok());
    bool found = false;
    for (const VerifyIssue& i : rep.issues) {
      if (i.code == VerifyIssue::Code::recv_overlap && i.phase == 0 &&
          i.round >= 0) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << rep.to_string();
  }
}

TEST(VerifyNegativeLocal, ReduceSendingOneClassTwiceInARoundIsFlagged) {
  // On a ring with {-1, 0, +1} every leaf contributes the same block, so
  // the neighbor reduce's DAG has one class and each round carries one
  // partial: reduce_volume = 2 blocks. A schedule that packs that partial
  // twice into one round, as a tree keeping one partial per edge would
  // where equal subtrees meet, breaks the closed form.
  const std::vector<int> dims = {4}, periods = {1};
  const Neighborhood nb(1, {-1, 0, 1});
  EXPECT_EQ(cartcomm::reduce_volume(nb), 2);
  std::vector<VerifyReport> good(4), bad(4);
  mpl::run(4, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    const std::size_t r = static_cast<std::size_t>(world.rank());
    int mine = world.rank();
    int out = 0;
    const mpl::Datatype kInt = mpl::Datatype::of<int>();
    const cartcomm::SendBlock send[1] = {{&mine, 1, kInt}};
    const cartcomm::RecvBlock recv{&out, 1, kInt};
    good[r] = cartcomm::verify_schedule(
        cartcomm::build_reduce_schedule(cc, send, recv,
                                        mpl::ReduceOp::sum<int>(),
                                        cartcomm::ReduceVariant::reduce, true),
        cc, ScheduleKind::reduce);
    // The same phase of two rounds, but round 0 sends the partial twice.
    cartcomm::ScheduleBuilder b;
    b.set_grid(cc.grid());
    int staging[3] = {0, 0, 0};
    int* slot = staging;
    for (const int c : {-1, 1}) {
      const long long copies = c == -1 ? 2 : 1;
      mpl::TypeBuilder sb, rb;
      for (long long i = 0; i < copies; ++i) {
        sb.append_bytes(&out, sizeof out);
        rb.append_bytes(slot++, sizeof(int));
      }
      const int offset[] = {c};
      const int back[] = {-c};
      b.add_round({cc.relative_rank(offset), cc.relative_rank(back),
                   sb.build(), rb.build(), offset, /*send_boundary=*/false,
                   /*recv_boundary=*/false, /*reduce=*/true},
                  copies);
    }
    b.end_phase();
    bad[r] = cartcomm::verify_schedule(b.finish(), cc, ScheduleKind::reduce);
  });
  for (int r = 0; r < 4; ++r) {
    const std::size_t ur = static_cast<std::size_t>(r);
    EXPECT_TRUE(good[ur].ok()) << good[ur].to_string();
    EXPECT_TRUE(has_issue_at(bad[ur], VerifyIssue::Code::volume, r, -1, -1))
        << bad[ur].to_string();
  }
}

TEST(VerifyNegativeLocal, ExecutionRefusesNullPartnerWithoutProvenance) {
  // The runtime-side half of the boundary-provenance satellite: executing
  // a schedule whose PROC_NULL partner lacks the boundary flag throws
  // instead of silently skipping the round.
  mpl::run(2, [&](mpl::Comm& world) {
    cartcomm::ScheduleBuilder b;
    b.set_grid(mpl::CartGrid(std::vector<int>{2}, std::vector<int>{1}));
    int payload = 0;
    mpl::TypeBuilder tb;
    tb.append_bytes(&payload, sizeof payload);
    const int offset[] = {0};
    b.add_round({mpl::PROC_NULL, mpl::PROC_NULL, tb.build(), mpl::Datatype(),
                 offset, /*send_boundary=*/false, /*recv_boundary=*/false},
                0);
    b.end_phase();
    const cartcomm::Schedule sched = b.finish();
    EXPECT_THROW(sched.execute(world), mpl::Error);
  });
}

// ---------------------------------------------------------------------------
// Pre-posting schedules: (c) and (a) over the whole execution.
// ---------------------------------------------------------------------------

TEST(VerifyNegativeLocal, PrepostedReceiveOverlappingALaterSendIsDetected) {
  // A trivial schedule whose phase-0 receive writes the block its phase-1
  // send reads. Run one phase at a time this would forward data; with every
  // receive posted at start, a partner that is ahead can overwrite the
  // block before it is sent. Two receives of different phases sharing a
  // block race the same way.
  const std::vector<int> dims = {6}, periods = {1};
  const Neighborhood nb = Neighborhood::von_neumann(1);  // {-1, +1}
  const int p = product(dims);
  const int m = 4;
  std::vector<VerifyReport> send_alias(static_cast<std::size_t>(p));
  std::vector<VerifyReport> recv_alias(static_cast<std::size_t>(p));
  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    std::vector<int> sendbuf(2 * m, 1);
    std::vector<int> recvbuf(2 * m, 0);
    const mpl::Datatype block =
        mpl::Datatype::contiguous(m, mpl::Datatype::of<int>());
    const std::vector<cartcomm::SendBlock> sends = {
        {sendbuf.data(), 1, block}, {sendbuf.data() + m, 1, block}};
    const std::vector<cartcomm::RecvBlock> into_send = {
        {sendbuf.data() + m, 1, block}, {recvbuf.data() + m, 1, block}};
    const std::vector<cartcomm::RecvBlock> shared = {
        {recvbuf.data(), 1, block}, {recvbuf.data(), 1, block}};
    const auto r = static_cast<std::size_t>(world.rank());
    const cartcomm::Schedule a =
        cartcomm::build_trivial_schedule(cc, sends, into_send);
    ASSERT_TRUE(a.preposts_receives());
    send_alias[r] = cartcomm::verify_schedule(a, cc, ScheduleKind::trivial);
    recv_alias[r] = cartcomm::verify_schedule(
        cartcomm::build_trivial_schedule(cc, sends, shared), cc,
        ScheduleKind::trivial);
  });
  for (int r = 0; r < p; ++r) {
    const VerifyReport& a = send_alias[static_cast<std::size_t>(r)];
    EXPECT_TRUE(has_issue_at(a, VerifyIssue::Code::send_recv_alias, r,
                             /*phase=*/1, /*round=*/0))
        << a.to_string();
    EXPECT_EQ(a.issues.size(), 1u) << a.to_string();
    const VerifyReport& b = recv_alias[static_cast<std::size_t>(r)];
    EXPECT_TRUE(has_issue_at(b, VerifyIssue::Code::recv_overlap, r,
                             /*phase=*/1, /*round=*/0) ||
                has_issue_at(b, VerifyIssue::Code::recv_overlap, r,
                             /*phase=*/0, /*round=*/0))
        << b.to_string();
  }
}

TEST(VerifyNegativePrepost, ReceivePairedWithALaterSendIsDetected) {
  // Two ranks on a ring of 2. Rank 0 receives from rank 1 in phase 0 and
  // sends to it in phase 1; rank 1 sends in phase 0 and waits in phase 0
  // for a message rank 0 only sends in phase 1. Per partner the two
  // executions pair up, but rank 1's phase 0 can only finish after rank 0
  // has reached phase 1: the whole-execution check must flag the skew.
  // Without pre-posting the per-phase check reports the same schedule as
  // unmatched.
  const mpl::CartGrid grid(std::vector<int>{2}, std::vector<int>{1});
  auto round = [](int off, long long send, long long recv) {
    cartcomm::RoundSummary rs;
    rs.sendrank = 1;  // fixed up per rank below
    rs.recvrank = 1;
    rs.send_bytes = send;
    rs.recv_bytes = recv;
    rs.send_blocks = send > 0 ? 1 : 0;
    rs.recv_blocks = recv > 0 ? 1 : 0;
    rs.offset = {off};
    return rs;
  };
  std::vector<ScheduleSummary> sums(2);
  for (int r = 0; r < 2; ++r) {
    ScheduleSummary& s = sums[static_cast<std::size_t>(r)];
    s.rank = r;
    s.coords = {r};
    s.phase_rounds = {1, 1};
    s.prepost = true;
    if (r == 0) {
      s.rounds = {round(1, 0, 4), round(-1, 4, 0)};
    } else {
      s.rounds = {round(1, 4, 4), round(-1, 0, 0)};
    }
    for (cartcomm::RoundSummary& rs : s.rounds) rs.sendrank = rs.recvrank = 1 - r;
  }
  VerifyReport rep = cartcomm::verify_global(sums, grid);
  EXPECT_TRUE(has_issue_at(rep, VerifyIssue::Code::unmatched_recv,
                           /*rank=*/1, /*phase=*/0, /*round=*/0))
      << rep.to_string();
  EXPECT_EQ(rep.issues.size(), 1u) << rep.to_string();

  for (ScheduleSummary& s : sums) s.prepost = false;
  rep = cartcomm::verify_global(sums, grid);
  EXPECT_TRUE(rep.has(VerifyIssue::Code::unmatched_send)) << rep.to_string();
  EXPECT_TRUE(rep.has(VerifyIssue::Code::unmatched_recv)) << rep.to_string();
}
