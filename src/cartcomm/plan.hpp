// Compiled communication plans and the process-global plan cache.
//
// The paper's isomorphism result is that a combining schedule's structure
// depends only on the neighborhood signature — never on the calling
// rank's data, and on a torus not even on its position. Splitting the
// schedule *build* into a rank-independent compile step and a cheap
// per-call bind step makes that literal in the code:
//
//   compile  — runs Algorithm 1/2 once and records a placement program: a
//              per-round list of abstract block placements (send block i,
//              receive block i, or a temp-pool range), the generating
//              offsets, phase boundaries and the final local copies. A
//              CompiledPlan holds no addresses, datatypes or ranks — it is
//              immutable and shareable across communicators and threads.
//   bind     — replays the placement program against concrete buffers:
//              builds the absolute datatypes (in exactly the recorded
//              append order, so bound schedules are bit-identical to ones
//              built directly), allocates the temp pool, and resolves the
//              partner ranks from this process' grid position.
//
// Repeated schedule builds therefore skip the O(t·d) construction
// entirely: the plan comes from a concurrent sharded cache keyed by the
// canonical neighborhood signature (see PlanKey), and only the bind runs
// per build. A blocking one-shot call skips the bind too while its
// buffers repeat: the communicator keeps the schedule each entry point
// bound last (its one-shot slots, coll.hpp). MPL_PLAN_CACHE=0 disables
// the cache and the slots, MPL_PLAN_CACHE_CAP bounds the number of
// compiled plans (approximate LRU eviction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cartcomm/analysis.hpp"
#include "cartcomm/cart_comm.hpp"
#include "mpl/blocks.hpp"
#include "mpl/schedule.hpp"

namespace cartcomm {

// The executor and block descriptors live in mpl, which runs every
// neighborhood collective through them; cartcomm builds their schedules.
using mpl::ExecutionScratch;
using mpl::kCartTag;
using mpl::RecvBlock;
using mpl::Schedule;
using mpl::ScheduleBuilder;
using mpl::ScheduleFold;
using mpl::ScheduleRound;
using mpl::SendBlock;

/// Abstract location of one block appended to a round's datatype: a send
/// block, a receive block (by neighbor index), or a temp-pool byte range.
struct PlanPlacement {
  enum class Kind : std::uint8_t { send_block, recv_block, temp };
  Kind kind = Kind::send_block;
  int index = 0;           // neighbor index (send_block / recv_block)
  std::size_t offset = 0;  // byte offset into the temp pool (temp)
  std::size_t bytes = 0;   // byte length (temp)
};

/// One recorded send-receive round: the placements appended to each
/// direction's datatype (in order) and the generating offset c*e_k from
/// which bind() resolves both partner ranks.
struct PlanRound {
  std::vector<PlanPlacement> send_items;
  std::vector<PlanPlacement> recv_items;
  std::vector<int> offset;
  long long blocks_sent = 0;
  bool reduce = false;  ///< reducing-unpack round (see ScheduleRound::reduce)
};

/// One recorded local copy of the final phase.
struct PlanCopy {
  PlanPlacement src;
  PlanPlacement dst;
};

/// One recorded fold step of a reducing plan (abstract form of
/// ScheduleFold; bind() resolves the placements to addresses). `dst` must
/// be a recv_block or temp placement; `src` additionally allows
/// send_block. `identity` fills dst with the op identity (src ignored).
struct PlanFold {
  PlanPlacement src;
  PlanPlacement dst;
  int count = 0;  ///< op elements
  int phase = 0;  ///< gate (see ScheduleFold::phase)
  bool init = false;
  bool identity = false;
};

/// Immutable rank-independent placement program (see file comment).
class CompiledPlan {
 public:
  /// Replay the program against concrete buffers, producing the same
  /// Schedule the direct builder would have produced on this process.
  [[nodiscard]] Schedule bind(const CartNeighborComm& cc,
                              std::span<const SendBlock> sends,
                              std::span<const RecvBlock> recvs) const;

  /// Reducing-plan bind: additionally resolves the fold program against the
  /// concrete buffers and attaches `op` to the schedule. Requires a
  /// reducing plan (recorded folds) and an op whose element size divides
  /// every folded placement.
  [[nodiscard]] Schedule bind(const CartNeighborComm& cc,
                              std::span<const SendBlock> sends,
                              std::span<const RecvBlock> recvs,
                              const mpl::ReduceOp& op) const;

  [[nodiscard]] int rounds() const noexcept {
    return static_cast<int>(rounds_.size());
  }
  [[nodiscard]] std::size_t temp_bytes() const noexcept { return temp_bytes_; }
  [[nodiscard]] bool reducing() const noexcept { return !folds_.empty(); }

 private:
  friend class PlanBuilder;

  [[nodiscard]] Schedule bind_impl(const CartNeighborComm& cc,
                                   std::span<const SendBlock> sends,
                                   std::span<const RecvBlock> recvs,
                                   const mpl::ReduceOp* op) const;

  std::vector<PlanRound> rounds_;
  std::vector<int> phase_rounds_;
  std::vector<PlanCopy> copies_;
  std::vector<PlanFold> folds_;
  std::size_t temp_bytes_ = 0;
};

/// Incremental recorder used by the compile functions; mirrors
/// ScheduleBuilder so compile code reads like the original build code.
class PlanBuilder {
 public:
  /// Reserve a temp-pool range; returns its byte offset.
  std::size_t allocate_temp(std::size_t bytes) {
    const std::size_t off = p_.temp_bytes_;
    p_.temp_bytes_ += bytes;
    return off;
  }

  void add_round(PlanRound r) {
    p_.rounds_.push_back(std::move(r));
    ++open_phase_rounds_;
  }

  void end_phase() {
    p_.phase_rounds_.push_back(open_phase_rounds_);
    open_phase_rounds_ = 0;
  }

  void add_copy(PlanPlacement src, PlanPlacement dst) {
    p_.copies_.push_back({src, dst});
  }

  /// Record one fold step (execution order, nondecreasing phase tags).
  void add_fold(PlanFold f) { p_.folds_.push_back(std::move(f)); }

  CompiledPlan finish() {
    if (open_phase_rounds_ != 0) end_phase();
    return std::move(p_);
  }

 private:
  CompiledPlan p_;
  int open_phase_rounds_ = 0;
};

/// Canonical cache key: every input the compile step depends on,
/// serialized into one word vector — collective kind, dimension order, d,
/// dims, periodicity, the boundary signature (clamped per-dimension edge
/// distances; -1 for periodic dimensions), the full neighborhood offset
/// list, per-neighbor block byte sizes, and a structural digest of every
/// block datatype. Two calls with equal keys compile identical plans.
struct PlanKey {
  std::vector<std::int64_t> words;
  std::size_t hash = 0;

  bool operator==(const PlanKey& o) const noexcept {
    return hash == o.hash && words == o.words;
  }
};

/// Key builders for the two collective kinds. Block *addresses* are
/// deliberately absent — plans are position- and buffer-independent.
[[nodiscard]] PlanKey make_alltoall_key(const CartNeighborComm& cc,
                                        std::span<const SendBlock> sends,
                                        std::span<const RecvBlock> recvs);
[[nodiscard]] PlanKey make_allgather_key(const CartNeighborComm& cc,
                                         const SendBlock& send,
                                         std::span<const RecvBlock> recvs,
                                         DimOrder order);

/// The two reducing collectives sharing one plan family: neighbor reduce
/// (every contribution is the source's block 0) and reduce_scatter_block
/// (the source contributes its i-th block toward neighbor i).
enum class ReduceVariant : std::uint8_t { reduce = 0, reduce_scatter = 1 };

/// Key for a reducing plan. The plan reads only the op's element size, so
/// that is all the key holds of the op: every op of one element size,
/// built-in or user-defined on each rank, shares the compiled plan. The
/// bound schedule embeds the op, so a one-shot slot also matches the op
/// digest (coll.hpp).
[[nodiscard]] PlanKey make_reduce_key(const CartNeighborComm& cc,
                                      ReduceVariant variant, bool combining,
                                      DimOrder order, const SendBlock& send,
                                      const mpl::ReduceOp& op);

/// Compile steps (Algorithm 1/2 with placements recorded instead of
/// datatypes built). Pure in the key: every input they read is covered by
/// the corresponding make_*_key.
[[nodiscard]] CompiledPlan compile_alltoall_plan(
    const CartNeighborComm& cc, std::span<const std::size_t> block_bytes);
[[nodiscard]] CompiledPlan compile_allgather_plan(const CartNeighborComm& cc,
                                                  std::size_t block_bytes,
                                                  DimOrder order);

/// Reducing compile step (reverse allgather tree with combine-on-unpack;
/// see reduce_schedule.cpp). `fold_elems` = op elements per block
/// (block_bytes / op.elem_size()).
[[nodiscard]] CompiledPlan compile_reduce_plan(const CartNeighborComm& cc,
                                               ReduceVariant variant,
                                               bool combining, DimOrder order,
                                               std::size_t block_bytes,
                                               int fold_elems);

// -- concurrent plan cache ---------------------------------------------------
//
// Process-global (ranks are threads of one process) and sharded by key
// hash; each shard is a small map under its own CheckedMutex at
// LockLevel::plan_cache (a leaf — compilation and binding happen outside
// the lock). plan_cache_get is the interface used by the build_*_schedule
// entry points; the remaining functions are its parts and test and
// tooling knobs. Each key compiles once: the first caller to miss
// publishes an in-progress entry, and concurrent callers for the same key
// wait for its plan and count a hit, so misses equal distinct keys.

/// Cached plan for `key`, or null on a miss or while the key is still
/// compiling (or when the cache is off). Never waits and never compiles.
[[nodiscard]] std::shared_ptr<const CompiledPlan> plan_cache_lookup(
    const PlanKey& key);

/// Outcome of plan_cache_claim: a cached plan (a hit), or no plan with
/// `publish` set (a miss: the caller compiles the key and must finish with
/// plan_cache_publish or plan_cache_abandon), or neither (cache off).
struct PlanClaim {
  std::shared_ptr<const CompiledPlan> plan;
  bool publish = false;
};

/// Look `key` up, waiting while another caller compiles it. On a miss,
/// publishes an in-progress entry owned by this caller.
[[nodiscard]] PlanClaim plan_cache_claim(const PlanKey& key);

/// Fill this caller's in-progress entry and wake the waiters; returns the
/// canonical shared plan.
[[nodiscard]] std::shared_ptr<const CompiledPlan> plan_cache_publish(
    const PlanKey& key, CompiledPlan&& plan);

/// Erase this caller's in-progress entry after a failed compile; the
/// waiters wake and one of them claims the key.
void plan_cache_abandon(const PlanKey& key);

/// The plan for `key`, running `compile()` (returning a CompiledPlan) only
/// if no caller has compiled or is compiling it. With the cache off, every
/// call compiles and nothing is counted.
template <typename Compile>
[[nodiscard]] std::shared_ptr<const CompiledPlan> plan_cache_get(
    const PlanKey& key, Compile&& compile) {
  PlanClaim c = plan_cache_claim(key);
  if (c.plan) return std::move(c.plan);
  if (!c.publish) return std::make_shared<const CompiledPlan>(compile());
  try {
    return plan_cache_publish(key, compile());
  } catch (...) {
    plan_cache_abandon(key);
    throw;
  }
}

/// Cache toggle: defaults to on, initial value from MPL_PLAN_CACHE
/// (0/false disables). The programmatic setter overrides the environment.
[[nodiscard]] bool plan_cache_enabled();
void plan_cache_set_enabled(bool on);

/// Capacity bound (total cached plans, approximate: enforced per shard).
/// Defaults to 256, initial value from MPL_PLAN_CACHE_CAP; 0 means
/// "unbounded". Lowering the cap takes effect on subsequent inserts.
[[nodiscard]] std::size_t plan_cache_cap();
void plan_cache_set_cap(std::size_t cap);

/// Number of plans currently cached (sums all shards).
[[nodiscard]] std::size_t plan_cache_size();

/// Drop every cached plan (tests; outstanding shared_ptrs stay valid).
/// Reaches compiled plans only: schedules bound in one-shot slots live
/// and die with their communicator.
void plan_cache_clear();

}  // namespace cartcomm
