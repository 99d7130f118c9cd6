#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "mpl/collectives.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

namespace {

// Positive remainder (matches CartGrid's torus wrap).
int pos_mod(int a, int m) {
  const int r = a % m;
  return r < 0 ? r + m : r;
}

// Canonical form of a round offset: periodic coordinates reduced to
// [0, D), non-periodic kept verbatim. Two offsets generate the same round
// on every rank iff their canonical forms agree (the congruence relation
// Schedule::merge coalesces by), so cross-rank comparison uses this form.
std::vector<int> canonical_offset(const mpl::CartGrid& grid,
                                  std::span<const int> off) {
  std::vector<int> c(off.begin(), off.end());
  if (off.size() != static_cast<std::size_t>(grid.ndims())) return c;
  for (int k = 0; k < grid.ndims(); ++k) {
    if (grid.periodic(k)) {
      c[static_cast<std::size_t>(k)] =
          pos_mod(c[static_cast<std::size_t>(k)],
                  grid.dims()[static_cast<std::size_t>(k)]);
    }
  }
  return c;
}

std::vector<int> negated(std::span<const int> off) {
  std::vector<int> n(off.size());
  for (std::size_t i = 0; i < off.size(); ++i) n[i] = -off[i];
  return n;
}

std::string offset_str(std::span<const int> off) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < off.size(); ++i) os << (i ? "," : "") << off[i];
  os << ')';
  return os.str();
}

void add_issue(VerifyReport& rep, VerifyIssue::Code code, int rank, int phase,
               int round, std::string message) {
  rep.issues.push_back({code, rank, phase, round, std::move(message)});
}

const char* code_name(VerifyIssue::Code c) {
  switch (c) {
    case VerifyIssue::Code::summary_invalid: return "summary-invalid";
    case VerifyIssue::Code::structure: return "structure";
    case VerifyIssue::Code::merge_inconsistency: return "merge-inconsistency";
    case VerifyIssue::Code::partner_mismatch: return "partner-mismatch";
    case VerifyIssue::Code::null_without_boundary: return "null-without-boundary";
    case VerifyIssue::Code::spurious_boundary: return "spurious-boundary";
    case VerifyIssue::Code::unmatched_send: return "unmatched-send";
    case VerifyIssue::Code::unmatched_recv: return "unmatched-recv";
    case VerifyIssue::Code::size_mismatch: return "size-mismatch";
    case VerifyIssue::Code::recv_overlap: return "recv-overlap";
    case VerifyIssue::Code::send_recv_alias: return "send-recv-alias";
    case VerifyIssue::Code::round_count: return "round-count";
    case VerifyIssue::Code::volume: return "volume";
  }
  return "unknown";
}

// Partner-vs-offset geometry shared by the local and the global checker:
// the send partner must be the rank at +offset, the receive partner the
// rank at -offset, and PROC_NULL partners are legal exactly when flagged
// as boundary holes *and* the offset indeed leaves the mesh.
void check_round_geometry(VerifyReport& rep, const mpl::CartGrid& grid,
                          std::span<const int> coords, int rank, int phase,
                          int round, std::span<const int> offset, int partner,
                          bool boundary_flag, bool is_send) {
  if (offset.size() != static_cast<std::size_t>(grid.ndims())) return;
  const std::vector<int> rel =
      is_send ? std::vector<int>(offset.begin(), offset.end()) : negated(offset);
  const int expected = grid.rank_at_offset(coords, rel);
  const char* dir = is_send ? "send" : "receive";
  if (partner == mpl::PROC_NULL) {
    if (!boundary_flag) {
      add_issue(rep, VerifyIssue::Code::null_without_boundary, rank, phase,
                round,
                std::string(dir) + " partner is PROC_NULL without "
                "mesh-boundary provenance (offset " + offset_str(offset) +
                " maps to rank " + std::to_string(expected) + ")");
    } else if (expected != mpl::PROC_NULL) {
      add_issue(rep, VerifyIssue::Code::partner_mismatch, rank, phase, round,
                std::string(dir) + " partner is PROC_NULL but offset " +
                offset_str(offset) + " stays on the mesh (rank " +
                std::to_string(expected) + ")");
    }
    return;
  }
  if (boundary_flag) {
    add_issue(rep, VerifyIssue::Code::spurious_boundary, rank, phase, round,
              std::string(dir) + " partner " + std::to_string(partner) +
              " carries a mesh-boundary flag");
  }
  if (partner != expected) {
    add_issue(rep, VerifyIssue::Code::partner_mismatch, rank, phase, round,
              std::string(dir) + " partner " + std::to_string(partner) +
              " does not match offset " + offset_str(offset) +
              " (geometry says " +
              (expected == mpl::PROC_NULL ? std::string("PROC_NULL")
                                          : std::to_string(expected)) +
              ")");
  }
}

// One flattened memory interval of a round's datatype, tagged with its
// phase and round index for diagnostics.
struct Interval {
  std::ptrdiff_t lo = 0;
  std::ptrdiff_t hi = 0;  // exclusive
  int phase = -1;
  int round = -1;
};

// The memory `count` elements of `t` at `buf` cover (absolute addresses).
void collect_intervals(const void* buf, int count, const mpl::Datatype& t,
                       int phase, int round, std::vector<Interval>& out) {
  if (!t.valid()) return;
  std::vector<mpl::TypeBlock> blocks;
  t.flatten(reinterpret_cast<std::ptrdiff_t>(buf), count, blocks);
  for (const mpl::TypeBlock& b : blocks) {
    out.push_back(
        {b.disp, b.disp + static_cast<std::ptrdiff_t>(b.len), phase, round});
  }
}

std::string round_str(const Interval& iv, bool whole) {
  return whole ? "phase " + std::to_string(iv.phase) + " round " +
                     std::to_string(iv.round)
               : "round " + std::to_string(iv.round);
}

// (c) over one window of receives that are in flight together: one phase,
// or — `whole` — the entire execution of a pre-posting schedule, whose
// receives are all posted at start. Receives of the window must be pairwise
// disjoint (overlapping destinations would lose data depending on arrival
// order), and no send of the window may read bytes one of its receives
// writes (a data race).
void check_regions(VerifyReport& rep, int rank, bool whole,
                   std::vector<Interval>& recv_iv,
                   std::vector<Interval>& send_iv) {
  const char* scope = whole ? "" : " of the same phase";
  const auto by_lo = [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  };
  std::sort(recv_iv.begin(), recv_iv.end(), by_lo);
  // Compare against the furthest-reaching earlier receive, so an interval
  // nested inside a long one is caught even when not adjacent to it.
  std::size_t reach = 0;
  for (std::size_t i = 1; i < recv_iv.size(); ++i) {
    const Interval& prev = recv_iv[reach];
    if (recv_iv[i].lo < prev.hi) {
      add_issue(rep, VerifyIssue::Code::recv_overlap, rank, recv_iv[i].phase,
                recv_iv[i].round,
                "receive block overlaps a receive of " +
                    round_str(prev, whole) + scope + " (" +
                    std::to_string(std::min(prev.hi, recv_iv[i].hi) -
                                   recv_iv[i].lo) +
                    " bytes)");
    }
    if (recv_iv[i].hi > prev.hi) reach = i;
  }

  std::sort(send_iv.begin(), send_iv.end(), by_lo);
  std::size_t ri = 0;
  for (const Interval& siv : send_iv) {
    while (ri < recv_iv.size() && recv_iv[ri].hi <= siv.lo) ++ri;
    for (std::size_t k = ri; k < recv_iv.size() && recv_iv[k].lo < siv.hi;
         ++k) {
      const Interval& riv = recv_iv[k];
      add_issue(rep, VerifyIssue::Code::send_recv_alias, rank, siv.phase,
                siv.round,
                "send block of " + round_str(siv, whole) +
                    " aliases the receive block of " + round_str(riv, whole) +
                    (whole ? ", which is posted at start" : " in the same phase"));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

ScheduleSummary summarize(const Schedule& s, const CartNeighborComm& cc) {
  ScheduleSummary sum;
  sum.rank = cc.rank();
  sum.coords.assign(cc.coords().begin(), cc.coords().end());
  sum.phase_rounds.assign(s.phase_rounds().begin(), s.phase_rounds().end());
  sum.send_block_count = s.send_block_count();
  sum.copy_count = s.copy_count();
  sum.prepost = s.preposts_receives();
  sum.rounds.reserve(static_cast<std::size_t>(s.rounds()));
  for (const ScheduleRound& r : s.round_list()) {
    RoundSummary rs;
    rs.sendrank = r.sendrank;
    rs.recvrank = r.recvrank;
    rs.send_boundary = r.send_boundary;
    rs.recv_boundary = r.recv_boundary;
    rs.send_bytes = static_cast<long long>(r.send_bytes());
    rs.recv_bytes = static_cast<long long>(r.recv_bytes());
    rs.send_blocks = static_cast<int>(r.send_blocks());
    rs.recv_blocks = static_cast<int>(r.recv_blocks());
    rs.offset.assign(r.offset.begin(), r.offset.end());
    sum.rounds.push_back(std::move(rs));
  }
  return sum;
}

std::vector<long long> ScheduleSummary::encode() const {
  std::vector<long long> out;
  out.push_back(rank);
  out.push_back(static_cast<long long>(coords.size()));
  for (int c : coords) out.push_back(c);
  out.push_back(send_block_count);
  out.push_back(copy_count);
  out.push_back(prepost ? 1 : 0);
  out.push_back(static_cast<long long>(phase_rounds.size()));
  for (int n : phase_rounds) out.push_back(n);
  out.push_back(static_cast<long long>(rounds.size()));
  for (const RoundSummary& r : rounds) {
    out.push_back(r.sendrank);
    out.push_back(r.recvrank);
    out.push_back(r.send_boundary ? 1 : 0);
    out.push_back(r.recv_boundary ? 1 : 0);
    out.push_back(r.send_bytes);
    out.push_back(r.recv_bytes);
    out.push_back(r.send_blocks);
    out.push_back(r.recv_blocks);
    out.push_back(static_cast<long long>(r.offset.size()));
    for (int c : r.offset) out.push_back(c);
  }
  return out;
}

ScheduleSummary ScheduleSummary::decode(std::span<const long long> data) {
  std::size_t i = 0;
  auto next = [&]() -> long long {
    MPL_REQUIRE(i < data.size(), "ScheduleSummary::decode: truncated stream");
    return data[i++];
  };
  ScheduleSummary s;
  s.rank = static_cast<int>(next());
  s.coords.resize(static_cast<std::size_t>(next()));
  for (int& c : s.coords) c = static_cast<int>(next());
  s.send_block_count = next();
  s.copy_count = static_cast<int>(next());
  s.prepost = next() != 0;
  s.phase_rounds.resize(static_cast<std::size_t>(next()));
  for (int& n : s.phase_rounds) n = static_cast<int>(next());
  s.rounds.resize(static_cast<std::size_t>(next()));
  for (RoundSummary& r : s.rounds) {
    r.sendrank = static_cast<int>(next());
    r.recvrank = static_cast<int>(next());
    r.send_boundary = next() != 0;
    r.recv_boundary = next() != 0;
    r.send_bytes = next();
    r.recv_bytes = next();
    r.send_blocks = static_cast<int>(next());
    r.recv_blocks = static_cast<int>(next());
    r.offset.resize(static_cast<std::size_t>(next()));
    for (int& c : r.offset) c = static_cast<int>(next());
  }
  MPL_REQUIRE(i == data.size(), "ScheduleSummary::decode: trailing data");
  return s;
}

std::vector<ScheduleSummary> gather_summaries(const mpl::Comm& comm,
                                              const ScheduleSummary& mine) {
  const std::vector<long long> enc = mine.encode();
  const int p = comm.size();
  const int myn = static_cast<int>(enc.size());
  std::vector<int> counts(static_cast<std::size_t>(p));
  mpl::allgather(&myn, 1, mpl::Datatype::of<int>(), counts.data(), 1,
                 mpl::Datatype::of<int>(), comm);
  std::vector<int> displs(static_cast<std::size_t>(p));
  int total = 0;
  for (int r = 0; r < p; ++r) {
    displs[static_cast<std::size_t>(r)] = total;
    total += counts[static_cast<std::size_t>(r)];
  }
  std::vector<long long> all(static_cast<std::size_t>(total));
  mpl::allgatherv(enc.data(), myn, mpl::Datatype::of<long long>(), all.data(),
                  counts, displs, mpl::Datatype::of<long long>(), comm);
  std::vector<ScheduleSummary> out;
  out.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    out.push_back(ScheduleSummary::decode(
        std::span<const long long>(all).subspan(
            static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]),
            static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]))));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

std::string VerifyIssue::to_string() const {
  std::ostringstream os;
  os << '[' << code_name(code) << ']';
  if (rank >= 0) os << " rank " << rank;
  if (phase >= 0) os << " phase " << phase;
  if (round >= 0) os << " round " << round;
  os << ": " << message;
  return os.str();
}

bool VerifyReport::has(VerifyIssue::Code c) const noexcept {
  return std::any_of(issues.begin(), issues.end(),
                     [c](const VerifyIssue& i) { return i.code == c; });
}

std::string VerifyReport::to_string() const {
  if (ok()) return "schedule verified: all checked invariants hold\n";
  std::ostringstream os;
  os << issues.size() << " issue(s):\n";
  for (const VerifyIssue& i : issues) os << "  " << i.to_string() << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// Single-rank checks
// ---------------------------------------------------------------------------

VerifyReport verify_schedule(const Schedule& s, const CartNeighborComm& cc,
                             ScheduleKind kind, DimOrder order) {
  VerifyReport rep;
  const mpl::CartGrid& grid = cc.grid();
  const int rank = cc.rank();
  const std::span<const int> phase_rounds = s.phase_rounds();
  const std::span<const ScheduleRound> rounds = s.round_list();

  long long round_sum = 0;
  for (int n : phase_rounds) round_sum += n;
  if (round_sum != s.rounds()) {
    add_issue(rep, VerifyIssue::Code::structure, rank, -1, -1,
              "phase round counts sum to " + std::to_string(round_sum) +
              " but the schedule holds " + std::to_string(s.rounds()) +
              " rounds");
    return rep;  // bookkeeping broken: indexed checks would misattribute
  }

  // (c) per phase, or over the whole schedule when it pre-posts.
  const bool whole = s.preposts_receives();
  std::vector<Interval> recv_iv, send_iv;
  std::size_t base = 0;
  for (std::size_t ph = 0; ph < phase_rounds.size(); ++ph) {
    const int nrounds = phase_rounds[ph];
    const int phase = static_cast<int>(ph);
    for (int j = 0; j < nrounds; ++j) {
      const ScheduleRound& r = rounds[base + static_cast<std::size_t>(j)];
      check_round_geometry(rep, grid, cc.coords(), rank, phase, j, r.offset,
                           r.sendrank, r.send_boundary, /*is_send=*/true);
      check_round_geometry(rep, grid, cc.coords(), rank, phase, j, r.offset,
                           r.recvrank, r.recv_boundary, /*is_send=*/false);
      // Mirror the executor: a round only moves data when the partner
      // exists and the datatype is non-empty.
      if (r.recvrank != mpl::PROC_NULL) {
        collect_intervals(r.recvbuf, r.recvcount, r.recvtype, phase, j,
                          recv_iv);
      }
      if (r.sendrank != mpl::PROC_NULL) {
        collect_intervals(r.sendbuf, r.sendcount, r.sendtype, phase, j,
                          send_iv);
      }
    }
    if (!whole) {
      check_regions(rep, rank, whole, recv_iv, send_iv);
      recv_iv.clear();
      send_iv.clear();
    }
    base += static_cast<std::size_t>(nrounds);
  }
  if (whole) check_regions(rep, rank, whole, recv_iv, send_iv);

  // (d) closed-form structure (Propositions 3.1-3.3).
  if (kind != ScheduleKind::unknown) {
    const Neighborhood& nb = cc.neighborhood();
    const int d = nb.ndims();
    bool fully_periodic = true;
    for (int k = 0; k < grid.ndims(); ++k) {
      if (!grid.periodic(k)) fully_periodic = false;
    }
    if (kind == ScheduleKind::trivial || kind == ScheduleKind::reduce_trivial) {
      // Closed forms of the trivial schedules: one round per non-zero
      // neighbor vector, one block sent per round whose target is on the
      // mesh. The movement schedule runs each round in its own phase and
      // copies the zero-vector blocks; the reducing one runs all rounds in
      // one phase and folds the zero-vector blocks instead.
      const bool movement = kind == ScheduleKind::trivial;
      const int expected_rounds = nb.trivial_rounds();
      const int expected_phases =
          movement ? expected_rounds : (expected_rounds > 0 ? 1 : 0);
      const char* what = movement ? "trivial" : "trivial reducing";
      if (s.phases() != expected_phases) {
        add_issue(rep, VerifyIssue::Code::round_count, rank, -1, -1,
                  "expected " + std::to_string(expected_phases) +
                  " phases for a " + what + " schedule, schedule has " +
                  std::to_string(s.phases()));
      }
      if (movement) {
        for (std::size_t ph = 0; ph < phase_rounds.size(); ++ph) {
          if (phase_rounds[ph] != 1) {
            add_issue(rep, VerifyIssue::Code::round_count, rank,
                      static_cast<int>(ph), -1,
                      "expected one round per trivial phase, phase has " +
                      std::to_string(phase_rounds[ph]));
          }
        }
        if (!s.preposts_receives()) {
          add_issue(rep, VerifyIssue::Code::structure, rank, -1, -1,
                    "a trivial schedule pre-posts its receives, this one "
                    "does not");
        }
        const int expected_copies = nb.count() - expected_rounds;
        if (s.copy_count() != expected_copies) {
          add_issue(rep, VerifyIssue::Code::structure, rank, -1, -1,
                    "expected one local copy per zero vector (" +
                    std::to_string(expected_copies) + "), schedule has " +
                    std::to_string(s.copy_count()));
        }
      }
      if (s.rounds() != expected_rounds) {
        add_issue(rep, VerifyIssue::Code::round_count, rank, -1, -1,
                  "expected one round per non-zero neighbor (" +
                  std::to_string(expected_rounds) + "), schedule has " +
                  std::to_string(s.rounds()));
      }
      const long long expected_volume = expected_rounds;
      if (fully_periodic ? s.send_block_count() != expected_volume
                         : s.send_block_count() > expected_volume) {
        add_issue(rep, VerifyIssue::Code::volume, rank, -1, -1,
                  "per-process volume " +
                  std::to_string(s.send_block_count()) +
                  " blocks diverges from the trivial closed form " +
                  std::to_string(expected_volume) +
                  (fully_periodic ? "" : " (upper bound on a mesh)"));
      }
      return rep;
    }
    const bool reducing =
        kind == ScheduleKind::reduce || kind == ScheduleKind::reduce_scatter;
    if (s.phases() != d) {
      add_issue(rep, VerifyIssue::Code::round_count, rank, -1, -1,
                "expected d = " + std::to_string(d) + " communication phases, "
                "schedule has " + std::to_string(s.phases()));
    }
    const int expected_rounds = nb.combining_rounds();
    if (s.rounds() != expected_rounds) {
      add_issue(rep, VerifyIssue::Code::round_count, rank, -1, -1,
                "expected C = Sigma_k C_k = " + std::to_string(expected_rounds) +
                " rounds (Prop. 3.1), schedule has " +
                std::to_string(s.rounds()));
    }
    // Per-phase C_k, in the dimension order the builder used. The reducing
    // schedules run the allgather tree in reverse, so phase p handles
    // dimension perm[d-1-p].
    const std::vector<int> perm =
        kind == ScheduleKind::alltoall
            ? dimension_order(nb, DimOrder::natural)
            : dimension_order(nb, order);
    if (s.phases() == d) {
      for (int ph = 0; ph < d; ++ph) {
        const std::size_t dim_idx =
            reducing ? static_cast<std::size_t>(d - 1 - ph)
                     : static_cast<std::size_t>(ph);
        const int ck = nb.distinct_nonzero(perm[dim_idx]);
        if (phase_rounds[static_cast<std::size_t>(ph)] != ck) {
          add_issue(rep, VerifyIssue::Code::round_count, rank, ph, -1,
                    "expected C_k = " + std::to_string(ck) +
                    " rounds for dimension " +
                    std::to_string(perm[dim_idx]) +
                    ", schedule has " +
                    std::to_string(phase_rounds[static_cast<std::size_t>(ph)]));
        }
      }
    }
    // Bind moves every zero-vector block of an alltoall in one local copy.
    const int expected_copies =
        kind == ScheduleKind::alltoall && nb.contains_zero_vector() ? 1 : 0;
    if (kind == ScheduleKind::alltoall && s.copy_count() != expected_copies) {
      add_issue(rep, VerifyIssue::Code::structure, rank, -1, -1,
                "expected " + std::to_string(expected_copies) +
                " local copies (one for all zero vectors), schedule has " +
                std::to_string(s.copy_count()));
    }
    // The neighbor reduce shares equal partials (one block per distinct
    // (level, coordinate, class)); reduce_scatter has none to share.
    const long long expected_volume =
        kind == ScheduleKind::alltoall ? nb.alltoall_volume()
        : kind == ScheduleKind::reduce ? reduce_volume(nb, perm)
                                       : allgather_volume(nb, perm);
    // On tori the volume formula is exact; meshes filter relays whose
    // origin or target falls off the mesh, so the formula caps it.
    if (fully_periodic ? s.send_block_count() != expected_volume
                       : s.send_block_count() > expected_volume) {
      add_issue(rep, VerifyIssue::Code::volume, rank, -1, -1,
                "per-process volume " + std::to_string(s.send_block_count()) +
                " blocks diverges from the Prop. 3.2/3.3 closed form " +
                std::to_string(expected_volume) +
                (fully_periodic ? "" : " (upper bound on a mesh)"));
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Cross-rank checks
// ---------------------------------------------------------------------------

VerifyReport verify_global(std::span<const ScheduleSummary> summaries,
                           const mpl::CartGrid& grid) {
  VerifyReport rep;
  const int p = grid.size();
  if (summaries.size() != static_cast<std::size_t>(p)) {
    add_issue(rep, VerifyIssue::Code::summary_invalid, -1, -1, -1,
              "expected one summary per rank (" + std::to_string(p) +
              "), got " + std::to_string(summaries.size()));
    return rep;
  }
  std::vector<const ScheduleSummary*> by_rank(static_cast<std::size_t>(p),
                                              nullptr);
  for (const ScheduleSummary& s : summaries) {
    if (s.rank < 0 || s.rank >= p) {
      add_issue(rep, VerifyIssue::Code::summary_invalid, s.rank, -1, -1,
                "summary rank out of range");
      return rep;
    }
    if (by_rank[static_cast<std::size_t>(s.rank)] != nullptr) {
      add_issue(rep, VerifyIssue::Code::summary_invalid, s.rank, -1, -1,
                "duplicate summary for this rank");
      return rep;
    }
    by_rank[static_cast<std::size_t>(s.rank)] = &s;
    long long round_sum = 0;
    for (int n : s.phase_rounds) round_sum += n;
    if (round_sum != static_cast<long long>(s.rounds.size())) {
      add_issue(rep, VerifyIssue::Code::structure, s.rank, -1, -1,
                "phase round counts sum to " + std::to_string(round_sum) +
                " but the summary holds " + std::to_string(s.rounds.size()) +
                " rounds");
      return rep;
    }
    if (s.coords != grid.coords_of(s.rank)) {
      add_issue(rep, VerifyIssue::Code::summary_invalid, s.rank, -1, -1,
                "summary coordinates disagree with the grid");
    }
  }

  // (b) merge consistency: all ranks must emit the same per-phase sequence
  // of canonical round offsets — identical fusing decisions everywhere, or
  // FIFO message pairing breaks at mesh boundaries.
  const ScheduleSummary& ref = *by_rank[0];
  for (int r = 1; r < p; ++r) {
    const ScheduleSummary& s = *by_rank[static_cast<std::size_t>(r)];
    if (s.phase_rounds.size() != ref.phase_rounds.size()) {
      add_issue(rep, VerifyIssue::Code::merge_inconsistency, r, -1, -1,
                "rank has " + std::to_string(s.phase_rounds.size()) +
                " phases, rank 0 has " + std::to_string(ref.phase_rounds.size()));
      continue;
    }
    std::size_t base = 0;
    for (std::size_t ph = 0; ph < ref.phase_rounds.size(); ++ph) {
      if (s.phase_rounds[ph] != ref.phase_rounds[ph]) {
        add_issue(rep, VerifyIssue::Code::merge_inconsistency, r,
                  static_cast<int>(ph), -1,
                  "rank fused " + std::to_string(s.phase_rounds[ph]) +
                  " rounds in this phase, rank 0 fused " +
                  std::to_string(ref.phase_rounds[ph]));
        break;  // round indices no longer line up across ranks
      }
      for (int j = 0; j < ref.phase_rounds[ph]; ++j) {
        const RoundSummary& a = ref.rounds[base + static_cast<std::size_t>(j)];
        const RoundSummary& b = s.rounds[base + static_cast<std::size_t>(j)];
        if (canonical_offset(grid, a.offset) != canonical_offset(grid, b.offset)) {
          add_issue(rep, VerifyIssue::Code::merge_inconsistency, r,
                    static_cast<int>(ph), j,
                    "round offset " + offset_str(b.offset) +
                    " disagrees with rank 0's " + offset_str(a.offset) +
                    " (non-identical coalescing)");
        }
      }
      base += static_cast<std::size_t>(ref.phase_rounds[ph]);
    }
  }

  // Partner geometry and boundary provenance, from the summaries.
  for (int r = 0; r < p; ++r) {
    const ScheduleSummary& s = *by_rank[static_cast<std::size_t>(r)];
    std::size_t base = 0;
    for (std::size_t ph = 0; ph < s.phase_rounds.size(); ++ph) {
      for (int j = 0; j < s.phase_rounds[ph]; ++j) {
        const RoundSummary& rs = s.rounds[base + static_cast<std::size_t>(j)];
        check_round_geometry(rep, grid, s.coords, r, static_cast<int>(ph), j,
                             rs.offset, rs.sendrank, rs.send_boundary,
                             /*is_send=*/true);
        check_round_geometry(rep, grid, s.coords, r, static_cast<int>(ph), j,
                             rs.offset, rs.recvrank, rs.recv_boundary,
                             /*is_send=*/false);
      }
      base += static_cast<std::size_t>(s.phase_rounds[ph]);
    }
  }

  // (a) global FIFO pairing. The executor launches every round of a phase
  // with non-blocking calls on one shared tag and waits for the phase, so
  // within a phase the sends of rank r to rank s must be met by receives
  // of s from r — same count (else a send is never consumed or a receive
  // never satisfied: deadlock) and pairwise-equal packed sizes in round
  // order (messages between one ordered pair match FIFO). A pre-posting
  // receiver posts all its receives at start, so its pairing runs over the
  // whole execution (key phase -1): the k-th message from a partner fills
  // the k-th receive from it, and that send must be posted no later than
  // the phase that waits for the receive, or the two ranks can wait on
  // each other.
  struct Event {
    long long bytes;
    int phase;
    int round;
  };
  std::map<std::tuple<int, int, int>, std::vector<Event>> sends, recvs;
  for (int r = 0; r < p; ++r) {
    const ScheduleSummary& s = *by_rank[static_cast<std::size_t>(r)];
    std::size_t base = 0;
    for (std::size_t ph = 0; ph < s.phase_rounds.size(); ++ph) {
      const int phase = static_cast<int>(ph);
      for (int j = 0; j < s.phase_rounds[ph]; ++j) {
        const RoundSummary& rs = s.rounds[base + static_cast<std::size_t>(j)];
        // Mirror the executor's skip rule: empty types post nothing.
        if (rs.sendrank != mpl::PROC_NULL && rs.send_bytes > 0) {
          const bool whole =
              rs.sendrank >= 0 && rs.sendrank < p &&
              by_rank[static_cast<std::size_t>(rs.sendrank)]->prepost;
          sends[{whole ? -1 : phase, r, rs.sendrank}].push_back(
              {rs.send_bytes, phase, j});
        }
        if (rs.recvrank != mpl::PROC_NULL && rs.recv_bytes > 0) {
          recvs[{s.prepost ? -1 : phase, rs.recvrank, r}].push_back(
              {rs.recv_bytes, phase, j});
        }
      }
      base += static_cast<std::size_t>(s.phase_rounds[ph]);
    }
  }
  const auto scope = [](int key_phase) {
    return key_phase < 0 ? "this execution" : "this phase";
  };
  for (const auto& [key, sv] : sends) {
    const auto& [ph, from, to] = key;
    const auto it = recvs.find(key);
    const std::vector<Event>* rv = it == recvs.end() ? nullptr : &it->second;
    const std::size_t nr = rv ? rv->size() : 0;
    for (std::size_t i = 0; i < sv.size(); ++i) {
      if (i >= nr) {
        add_issue(rep, VerifyIssue::Code::unmatched_send, from, sv[i].phase,
                  sv[i].round,
                  "send of " + std::to_string(sv[i].bytes) + " bytes to rank " +
                  std::to_string(to) + " has no matching receive in " +
                  scope(ph) + " (deadlock)");
        continue;
      }
      const Event& re = (*rv)[i];
      if (re.bytes != sv[i].bytes) {
        add_issue(rep, VerifyIssue::Code::size_mismatch, from, sv[i].phase,
                  sv[i].round,
                  "send of " + std::to_string(sv[i].bytes) + " bytes to rank " +
                  std::to_string(to) + " is paired (FIFO) with a receive of " +
                  std::to_string(re.bytes) + " bytes posted by rank " +
                  std::to_string(to) + " round " + std::to_string(re.round));
      }
      if (sv[i].phase > re.phase) {
        add_issue(rep, VerifyIssue::Code::unmatched_recv, to, re.phase,
                  re.round,
                  "pre-posted receive from rank " + std::to_string(from) +
                  " is paired (FIFO) with a send of phase " +
                  std::to_string(sv[i].phase) +
                  ", after the phase that waits for it (deadlock)");
      }
    }
    if (rv && rv->size() > sv.size()) {
      for (std::size_t i = sv.size(); i < rv->size(); ++i) {
        add_issue(rep, VerifyIssue::Code::unmatched_recv, to, (*rv)[i].phase,
                  (*rv)[i].round,
                  "receive of " + std::to_string((*rv)[i].bytes) +
                  " bytes from rank " + std::to_string(from) +
                  " is never sent in " + scope(ph) + " (deadlock)");
      }
    }
  }
  for (const auto& [key, rv] : recvs) {
    if (sends.find(key) != sends.end()) continue;
    const auto& [ph, from, to] = key;
    for (const Event& e : rv) {
      add_issue(rep, VerifyIssue::Code::unmatched_recv, to, e.phase, e.round,
                "receive of " + std::to_string(e.bytes) + " bytes from rank " +
                std::to_string(from) + " is never sent in " + scope(ph) +
                " (deadlock)");
    }
  }
  return rep;
}

}  // namespace cartcomm
