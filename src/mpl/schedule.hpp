// Precomputed communication schedules (Section 3) and their one executor.
//
// A Schedule is the executable form of every neighborhood collective
// algorithm, cartcomm's and the direct baselines of neighborhood.hpp:
// phases of send-receive rounds. A combining round carries the ranks of
// the two partners and one absolute-address structured datatype per
// direction describing all blocks grouped into that round (the paper's
// zero-copy representation: the executor never packs into staging
// buffers — blocks move between the user buffers and the schedule's
// in-transit slots via derived datatypes); a trivial (Listing 4) round
// moves one caller block as given. Executing a schedule is exactly
// Listing 5: non-blocking send/receive of all rounds of a phase, then
// wait, phase by phase. A final non-communication phase performs local
// copies (self blocks, duplicated allgather targets). Executions talk on
// the collective channel, so no user receive, wildcard or not, matches.
//
// A pre-posting schedule (the trivial algorithm, the direct baselines)
// posts every receive at start, in round order: each receive writes a
// distinct caller block that no send reads (the MPI buffer rule). The
// executor then runs the sends phase by phase, each phase waiting only
// for its own receives. A message whose partner is ahead then finds its
// receive already posted and is copied once, straight into the caller's
// block. Every other schedule posts each phase's receives when the phase
// begins.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mpl/blocks.hpp"
#include "mpl/comm.hpp"
#include "mpl/datatype.hpp"
#include "mpl/op.hpp"
#include "mpl/topology.hpp"

namespace telemetry {
class CommCounters;
class FlightRecorder;
}

namespace trace {
class RankTrace;
}

namespace mpl {

/// Default tag for schedule traffic (the paper's CARTTAG). The blocking
/// one-shot Cartesian calls use it; every persistent operation matches on
/// a tag of its own above it (cartcomm's next_persistent_tag), so
/// operations in flight together never take each other's messages. Tags
/// from kCartTag up are reserved on a Cartesian communicator's collective
/// channel; the user channel keeps every tag.
inline constexpr int kCartTag = 7771;

/// One send-receive round: exchange with fixed partners, each direction
/// moving `count` elements of `type` at `buf`. Combining rounds describe
/// all their blocks by one absolute type (buf = BOTTOM, count = 1); a
/// trivial round carries the caller's own block descriptor.
struct ScheduleRound {
  int sendrank = PROC_NULL;
  int recvrank = PROC_NULL;
  Datatype sendtype;  ///< may be empty (nothing sent)
  Datatype recvtype;  ///< may be empty (nothing received)
  /// Relative offset generating this round (c*e_k). Used by merge() to
  /// decide coalescing in a process-independent way: every process must
  /// fuse the same rounds or FIFO message pairing would break at mesh
  /// boundaries, so the decision is keyed on offsets, never on ranks.
  /// Views storage owned by the schedule (ScheduleBuilder::add_round copies
  /// the offset it is given).
  std::span<const int> offset;
  /// Provenance of a PROC_NULL partner: set by the schedule builders when
  /// the round's offset leaves a non-periodic mesh from this process (or
  /// a direct baseline's degrees differ), so the executor and the verifier
  /// can tell an intentional hole from a rank-computation mismatch. Execution
  /// refuses to silently skip a PROC_NULL partner that lacks this flag.
  bool send_boundary = false;
  bool recv_boundary = false;
  /// Reducing-unpack round: the received blocks land in staging slots and
  /// are *folded* into their destinations by the schedule's fold program
  /// (see ScheduleFold) instead of being final data. Rendered distinctly
  /// by dump().
  bool reduce = false;
  /// The buffers and counts the datatypes apply to (see above).
  const void* sendbuf = BOTTOM;
  int sendcount = 1;
  void* recvbuf = BOTTOM;
  int recvcount = 1;

  [[nodiscard]] std::size_t send_bytes() const {
    return sendtype.valid() ? sendtype.pack_size(sendcount) : 0;
  }
  [[nodiscard]] std::size_t recv_bytes() const {
    return recvtype.valid() ? recvtype.pack_size(recvcount) : 0;
  }
  [[nodiscard]] std::size_t send_blocks() const {
    return sendtype.valid() ? sendtype.flat_block_count(sendcount) : 0;
  }
  [[nodiscard]] std::size_t recv_blocks() const {
    return recvtype.valid() ? recvtype.flat_block_count(recvcount) : 0;
  }
};

/// A local data movement (e.g. the self block): `srccount` elements of
/// `src` at `srcbuf` into the destination. Combining schedules copy through
/// absolute types (BOTTOM/1); a trivial copy names the caller's blocks.
struct ScheduleCopy {
  Datatype src;
  Datatype dst;
  const void* srcbuf = BOTTOM;
  int srccount = 1;
  void* dstbuf = BOTTOM;
  int dstcount = 1;
};

/// One step of a reducing schedule's fold program: combine `count` op
/// elements at `src` into the accumulator at `dst`. The program is recorded
/// at compile time in a fixed order and gated by phase tags, so the combine
/// order is a function of the schedule alone — never of message arrival
/// order — which keeps floating-point results bit-identical across runs,
/// fault seeds and jitter.
struct ScheduleFold {
  const void* src = nullptr;  ///< null = fill dst with the op identity
  void* dst = nullptr;
  int count = 0;              ///< elements of the op's elem_size
  /// Applied once communication phase `phase` has fully drained (incoming
  /// staging slots are final). Leaf initializations carry -1: they read
  /// only the caller's send buffer and must run before phase 0 posts
  /// (eager transport packs data at isend time). The same eager packing
  /// lets a phase's folds overwrite a buffer that phase sent from.
  int phase = 0;
  bool init = false;  ///< first write to dst: copy instead of combine
};

struct ExecutionScratch;

/// Executable communication schedule, bound to the buffers it was built
/// for. Owns the temporary in-transit buffer. Schedules are precomputed by
/// the *_init operations and reused across executions (the persistent
/// usage of Section 2), or built on the fly by the non-persistent calls.
class Schedule {
 public:
  // Move-only: rounds reference the schedule's own pools by address.
  Schedule() = default;
  Schedule(Schedule&&) noexcept = default;
  Schedule& operator=(Schedule&&) noexcept = default;
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// Run the schedule (Listing 5): all rounds of a phase concurrently with
  /// non-blocking operations, phases in order; local copies last.
  void execute(const Comm& comm, int tag = kCartTag) const;

  class Execution;
  /// Begin a non-blocking execution (posts the first phase — and, for a
  /// pre-posting schedule, every receive — and returns). Progress is made
  /// inside Execution::test()/wait(), like an MPI library's progress
  /// engine; at most one execution of a given schedule may be in flight at
  /// a time (rounds share the schedule's buffers). All messages travel on
  /// the collective channel and match on `tag`; executions in flight
  /// together on one communicator need distinct tags. This is the
  /// non-blocking/persistent mode the paper anticipates for the MPI
  /// Forum's persistent collectives. The execution works out of the
  /// caller-owned scratch (see ExecutionScratch):
  /// repeated executions of one schedule reuse the request table and
  /// recycle receive request states instead of allocating. At most one
  /// execution may use a given scratch at a time.
  [[nodiscard]] Execution start(const Comm& comm,
                                ExecutionScratch& scratch,
                                int tag = kCartTag) const;

  // -- introspection (tests, benchmarks) ------------------------------------

  /// Communication phases (excluding the local-copy phase).
  [[nodiscard]] int phases() const noexcept {
    return static_cast<int>(phase_rounds_.size());
  }
  /// Total send-receive rounds C.
  [[nodiscard]] int rounds() const noexcept {
    return static_cast<int>(rounds_.size());
  }
  [[nodiscard]] std::span<const int> phase_rounds() const noexcept {
    return phase_rounds_;
  }
  [[nodiscard]] std::span<const ScheduleRound> round_list() const noexcept {
    return rounds_;
  }
  /// Number of block transmissions this process performs (the per-process
  /// communication volume V of Propositions 3.2/3.3, when counted in blocks).
  [[nodiscard]] long long send_block_count() const noexcept {
    return send_blocks_;
  }
  /// Bytes this process sends over all rounds (V*m for uniform blocks).
  [[nodiscard]] long long send_bytes() const;
  /// Number of local copies in the final phase.
  [[nodiscard]] int copy_count() const noexcept {
    return static_cast<int>(copies_.size());
  }
  [[nodiscard]] std::size_t temp_bytes() const noexcept;
  /// The in-transit pools the rounds' datatypes address (tests, checks).
  [[nodiscard]] std::vector<std::span<const std::byte>> temp_pools() const;

  /// True when the executor posts every receive at start (see the file
  /// comment). Set only by the builders of caller-block schedules (the
  /// trivial algorithm, the direct neighborhood collectives), whose blocks
  /// meet the precondition by the MPI buffer rule: no receive region
  /// overlaps another receive or any send. merge() output never pre-posts.
  [[nodiscard]] bool preposts_receives() const noexcept { return prepost_; }

  /// True when this schedule carries a reduction (a fold program and an op).
  [[nodiscard]] bool reducing() const noexcept { return op_.valid(); }
  [[nodiscard]] const ReduceOp& op() const noexcept { return op_; }
  [[nodiscard]] std::span<const ScheduleFold> folds() const noexcept {
    return folds_;
  }

  /// Human-readable dump of the schedule structure: phases, rounds with
  /// generating offsets, partner ranks (PROC_NULL partners annotated with
  /// their mesh-boundary provenance), block counts and bytes per direction,
  /// and the final local-copy phase. Used for debugging, the
  /// schedule_explorer example, and golden-output tests.
  [[nodiscard]] std::string dump() const;

  /// Concatenate several schedules phase-wise into one (rounds of equal
  /// phase index run concurrently) — the schedule-combination facility
  /// discussed in Section 3.4 for overlap-avoiding halo exchanges. With
  /// `coalesce` (the default), rounds of the same phase addressing the
  /// same partner pair are fused into a single send-receive round by
  /// concatenating their datatypes, so combining sub-schedules does not
  /// increase the number of messages.
  static Schedule merge(std::vector<Schedule> parts, bool coalesce = true);

 private:
  friend class ScheduleBuilder;

  std::vector<ScheduleRound> rounds_;
  std::vector<int> phase_rounds_;   // rounds per communication phase
  std::vector<ScheduleCopy> copies_;
  CartGrid grid_;              // for offset congruence in merge()
  // Round offsets (ScheduleRound::offset views these). Pools are filled
  // append-only within their reserved capacity and never reallocated, so
  // the views survive moves; merge() adopts them with the temp pools.
  std::vector<std::vector<int>> offset_pools_;
  // In-transit parking slots. Datatypes reference these buffers by absolute
  // address, so pools are heap-allocated once and never reallocated; merge()
  // adopts the pools of its parts to keep those addresses alive.
  std::vector<std::vector<std::byte>> temp_pools_;
  long long send_blocks_ = 0;
  // Reducing schedules: the fold program (compile-order, phase-gated) and
  // the operator it folds with. Empty/invalid for movement schedules.
  std::vector<ScheduleFold> folds_;
  ReduceOp op_;
  bool prepost_ = false;
};

/// Reusable per-execution working set: the pending-request table and the
/// receive request-state slots. The table holds every receive of one
/// execution in posting order (cleared when the next execution starts);
/// each phase waits for its own contiguous range of it. A caller that
/// executes the same schedule repeatedly (the persistent collectives)
/// passes one of these to
/// Schedule::start(comm, scratch); after a warm-up execution has sized the
/// vectors and populated the slots, every further execution runs without
/// heap allocation — requests land in retained capacity and receives
/// recycle their request states via Comm::irecv_reuse.
struct ExecutionScratch {
  std::vector<Request> pending;
  std::vector<int> pending_round;  // round scope of each pending receive
  std::size_t head = 0;            // completed prefix of `pending`
  std::size_t phase_end = 0;       // end of the in-flight phase's receives
  /// Receive request states, indexed by posting order within one
  /// execution; persists across executions so states are recycled.
  std::vector<std::shared_ptr<detail::ReqState>> slots;
  std::size_t next_slot = 0;  // next slot to (re)use in this execution
};

/// In-flight non-blocking execution of a Schedule. Phases advance inside
/// test()/wait(); destruction of an incomplete execution is an error
/// caught by assertion in debug use (wait() must be called).
class Schedule::Execution {
 public:
  Execution() = default;

  /// True once every phase and the local-copy phase have completed.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Make progress: complete finished rounds, post the next phase when the
  /// current one drains. Returns done().
  [[nodiscard]] bool test();

  /// Drive the execution to completion (blocking).
  void wait();

 private:
  friend class Schedule;
  Execution(const Schedule* s, const Comm& comm,
            ExecutionScratch* scratch, int tag);
  void prepost_receives();
  void post_receive(const ScheduleRound& r, int round);
  void post_phase();
  void finish_copies();
  void apply_folds(int below);
  void drain_pending();
  void begin_phase_scope(int phase);
  void end_phase_scope();

  const Schedule* sched_ = nullptr;
  Comm comm_;
  std::size_t phase_ = 0;       // next phase to post
  std::size_t round_base_ = 0;  // first round index of that phase
  ExecutionScratch* scratch_ = nullptr;  // caller-owned working set
  int tag_ = kCartTag;
  bool done_ = true;
  std::size_t next_fold_ = 0;  // applied prefix of the fold program

  // Tracing scope (null unless this rank records events).
  trace::RankTrace* tr_ = nullptr;
  int cur_phase_ = -1;          // phase currently in flight
  double phase_v0_ = 0.0;       // virtual/wall start of that phase
  double phase_w0_ = 0.0;
  // Publish phase/round progress to the Proc (fault runs only), so stall
  // reports can name the schedule point each rank is blocked at.
  bool publish_point_ = false;
  // Telemetry (independent of the trace layer): the always-on flight
  // recorder gets phase/round transition events, and — when telemetry is
  // armed — the communicator's counters get the execution, phases, rounds,
  // copies, folds and per-phase sends, and the whole execution's wall
  // latency lands in the rank's per-collective histogram on completion.
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::CommCounters* counters_ = nullptr;
  std::int32_t exec_ordinal_ = -1;
  std::chrono::steady_clock::time_point t0_{};
};

/// Incremental builder used by every schedule algorithm.
class ScheduleBuilder {
 public:
  void set_grid(const CartGrid& grid) { s_.grid_ = grid; }

  /// Allocate an in-transit buffer; must be called before any round that
  /// references its slots (addresses become part of the datatypes).
  std::byte* allocate_temp(std::size_t bytes) {
    s_.temp_pools_.emplace_back(bytes, std::byte{0});
    return s_.temp_pools_.back().data();
  }

  /// Reserve room for a build of known size: `phases` phases of `rounds`
  /// rounds in total with `ndims`-dimensional offsets, all of the offsets
  /// in one allocation.
  void reserve(std::size_t phases, std::size_t rounds, std::size_t ndims) {
    s_.phase_rounds_.reserve(s_.phase_rounds_.size() + phases);
    s_.rounds_.reserve(s_.rounds_.size() + rounds);
    s_.offset_pools_.emplace_back().reserve(rounds * ndims);
  }

  /// Append a round; its offset is copied into schedule-owned storage.
  void add_round(ScheduleRound r, long long blocks_sent) {
    r.offset = keep_offset(r.offset);
    s_.rounds_.push_back(std::move(r));
    s_.send_blocks_ += blocks_sent;
    ++open_phase_rounds_;
  }

  /// Append a round that moves caller blocks as given: `send` to
  /// `sendrank`, `recv` from `recvrank`. A PROC_NULL partner is an
  /// intentional hole (a mesh boundary, or the shorter side of unequal
  /// neighborhood degrees): its block stays out of the round.
  void add_block_round(int sendrank, SendBlock send, int recvrank,
                       RecvBlock recv, std::span<const int> offset = {}) {
    ScheduleRound r;
    r.sendrank = sendrank;
    r.recvrank = recvrank;
    r.offset = offset;
    r.send_boundary = sendrank == PROC_NULL;
    r.recv_boundary = recvrank == PROC_NULL;
    if (!r.send_boundary) {
      r.sendbuf = send.addr;
      r.sendcount = send.count;
      r.sendtype = std::move(send.type);
    }
    if (!r.recv_boundary) {
      r.recvbuf = recv.addr;
      r.recvcount = recv.count;
      r.recvtype = std::move(recv.type);
    }
    add_round(std::move(r), sendrank == PROC_NULL ? 0 : 1);
  }

  void end_phase() {
    s_.phase_rounds_.push_back(open_phase_rounds_);
    open_phase_rounds_ = 0;
  }

  void add_copy(ScheduleCopy c) { s_.copies_.push_back(std::move(c)); }

  /// Mark the schedule as pre-posting its receives. Only for builders that
  /// prove no receive region overlaps another receive or any send anywhere
  /// in the schedule (verify_schedule checks it).
  void set_prepost_receives() { s_.prepost_ = true; }

  /// Attach the reduction operator (marks the schedule as reducing).
  void set_op(ReduceOp op) { s_.op_ = std::move(op); }

  /// Append one fold step. Steps must be recorded in execution order with
  /// nondecreasing phase tags (the executor applies them with a cursor).
  void add_fold(ScheduleFold f) { s_.folds_.push_back(f); }

  Schedule finish() {
    if (open_phase_rounds_ != 0) end_phase();
    return std::move(s_);
  }

 private:
  std::span<const int> keep_offset(std::span<const int> off) {
    std::vector<std::vector<int>>& pools = s_.offset_pools_;
    if (pools.empty() ||
        pools.back().capacity() - pools.back().size() < off.size()) {
      pools.emplace_back().reserve(off.size());  // unreserved build
    }
    std::vector<int>& pool = pools.back();
    const std::size_t at = pool.size();
    pool.insert(pool.end(), off.begin(), off.end());
    return {pool.data() + at, off.size()};
  }

  Schedule s_;
  int open_phase_rounds_ = 0;
};

}  // namespace mpl
