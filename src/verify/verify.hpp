// Static schedule verification (the correctness-tooling layer).
//
// The paper's central claim is that isomorphic neighborhoods let every
// process compute a correct, deadlock-free schedule locally in O(td)
// (Section 3). This module proves the structural half of that claim for
// concrete Schedule instances *without executing any traffic*:
//
//   (a) global send/recv pairing — in every phase, rank r sending to s is
//       matched by s receiving from r with a type signature of equal
//       packed size, in the same FIFO order, so no phase can deadlock or
//       mismatch messages; for a pre-posting receiver the pairing runs
//       per partner over the whole execution, and each paired send must
//       be posted no later than the phase that waits for its receive;
//   (b) offset-keyed merge consistency — all ranks fused the same rounds
//       (the ScheduleRound::offset invariant): per phase, the sequence of
//       canonical round offsets is identical on every rank;
//   (c) no overlapping receive blocks within a phase and no send/recv
//       aliasing inside a phase (flattened through the Datatype block
//       lists and interval-checked) — concurrent non-blocking rounds must
//       not race on memory; a pre-posting schedule has every receive in
//       flight from the start, so there no receive may overlap any other
//       receive or any send anywhere in the schedule;
//   (d) round count C and per-process volume V match the closed-form
//       Sigma_k C_k formulas of Propositions 3.1-3.3 (analysis.hpp) for
//       the offsets the schedule was built over — for an automatic
//       alltoall, its routing neighborhood (CartNeighborComm::routing);
//       divergence flags a builder bug.
//
// verify_schedule() runs the single-rank structural checks; verify_global()
// runs the cross-rank checks over gathered ScheduleSummary records (use
// gather_summaries() to collect them collectively, or assemble the span
// yourself when all ranks live in one address space, as in the tests and
// the tools/verify_schedule sweep).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cartcomm/analysis.hpp"
#include "cartcomm/cart_comm.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/topology.hpp"

namespace cartcomm {

/// Which closed-form structure a schedule is expected to have (check (d)).
/// `unknown` skips the formula checks (e.g. for merged schedules).
/// `reduce`/`reduce_scatter` are the message-combining reducing schedules
/// (the allgather tree in reverse: same phase and round closed forms,
/// phases in reversed dimension order; the volume is reduce_volume for
/// `reduce`, whose equal partials travel once, and the allgather volume
/// for `reduce_scatter`); `trivial` is the Listing 4
/// alltoall/allgather schedule (one phase of one round per non-zero
/// neighbor, zero vectors copied) and `reduce_trivial` the one-phase
/// trivial reducing schedule.
enum class ScheduleKind {
  unknown,
  alltoall,
  allgather,
  reduce,
  reduce_scatter,
  reduce_trivial,
  trivial,
};

/// Address-free structural digest of one round, exchangeable across ranks.
struct RoundSummary {
  int sendrank = mpl::PROC_NULL;
  int recvrank = mpl::PROC_NULL;
  bool send_boundary = false;
  bool recv_boundary = false;
  long long send_bytes = 0;
  long long recv_bytes = 0;
  int send_blocks = 0;
  int recv_blocks = 0;
  std::vector<int> offset;  ///< raw round offset (ScheduleRound::offset)
};

/// Per-rank structural digest of a Schedule: everything verify_global()
/// needs, and nothing address-specific, so it can be serialized and
/// gathered across ranks.
struct ScheduleSummary {
  int rank = -1;
  std::vector<int> coords;
  std::vector<int> phase_rounds;
  std::vector<RoundSummary> rounds;
  long long send_block_count = 0;
  int copy_count = 0;
  bool prepost = false;  ///< Schedule::preposts_receives()

  /// Flat integer encoding (for gather_summaries / external tooling).
  [[nodiscard]] std::vector<long long> encode() const;
  static ScheduleSummary decode(std::span<const long long> data);
};

/// Build the digest of `s` as computed by the calling rank of `cc`.
ScheduleSummary summarize(const Schedule& s, const CartNeighborComm& cc);

/// One verifier finding, with precise coordinates: rank (-1 when the
/// defect is not attributable to a single rank), phase and round indices
/// (-1 when not applicable).
struct VerifyIssue {
  enum class Code {
    summary_invalid,      ///< malformed/incomplete summary set
    structure,            ///< phase/round bookkeeping inconsistent
    merge_inconsistency,  ///< ranks fused different rounds (offset key)
    partner_mismatch,     ///< partner rank disagrees with offset geometry
    null_without_boundary,///< PROC_NULL partner lacking boundary provenance
    spurious_boundary,    ///< boundary flag on an on-mesh partner
    unmatched_send,       ///< send with no posted receive (deadlock)
    unmatched_recv,       ///< receive never satisfied (deadlock)
    size_mismatch,        ///< paired send/recv with unequal packed sizes
    recv_overlap,         ///< two receives in flight together overlap
    send_recv_alias,      ///< send reads bytes a concurrent receive writes
    round_count,          ///< C diverges from Sigma_k C_k (Prop. 3.1)
    volume,               ///< V diverges from Prop. 3.2/3.3 closed form
  };

  Code code = Code::structure;
  int rank = -1;
  int phase = -1;
  int round = -1;  ///< round index within the phase
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

/// Result of a verification pass. Empty issues == proven invariants hold.
struct VerifyReport {
  std::vector<VerifyIssue> issues;

  [[nodiscard]] bool ok() const noexcept { return issues.empty(); }
  [[nodiscard]] bool has(VerifyIssue::Code c) const noexcept;
  [[nodiscard]] std::string to_string() const;
};

/// Single-rank structural checks on a schedule this rank built: partner
/// ranks agree with the round-offset geometry ((a)'s local half), PROC_NULL
/// partners carry boundary provenance, receive blocks of a phase (of the
/// whole schedule, if it pre-posts) are disjoint and never alias send
/// blocks of that window (c), and — when `kind`
/// is given — phase/round counts and volume match the closed forms (d).
/// Pass the communicator whose offsets built the schedule: the view
/// CartNeighborComm::route() returned for the call (for an alltoall,
/// cc.route(Collective::alltoall, alg, largest block bytes).view of the
/// communicator it was requested on). `order` is the dimension order the
/// allgather schedule was built with.
VerifyReport verify_schedule(const Schedule& s, const CartNeighborComm& cc,
                             ScheduleKind kind = ScheduleKind::unknown,
                             DimOrder order = DimOrder::increasing_ck);

/// Cross-rank checks over the summaries of all ranks of one communicator
/// (index-complete, any order): merge consistency (b), partner geometry
/// and boundary provenance, and global FIFO send/recv pairing (a) — per
/// phase, or per partner over the whole execution for a pre-posting
/// receiver.
VerifyReport verify_global(std::span<const ScheduleSummary> summaries,
                           const mpl::CartGrid& grid);

/// Collective: allgather every rank's summary (two mpl collectives over
/// the serialized encoding). The result is ordered by rank and ready for
/// verify_global().
std::vector<ScheduleSummary> gather_summaries(const mpl::Comm& comm,
                                              const ScheduleSummary& mine);

}  // namespace cartcomm
