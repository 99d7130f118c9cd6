// Benchmark workloads: each is one closed-loop operation on 4 ranks, with
// seed-derived inputs, an element-exact oracle, and a layer-by-layer view
// of the op built only from the library's public functions.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/mpl.hpp"

namespace perfbench {

/// Ranks of every workload (one simulated process per core of the target box).
inline constexpr int kRanks = 4;

/// Deterministic 64-bit hash of a word tuple under `seed` (splitmix64 chain).
/// Every input value of every workload is a closed form of this hash, so
/// the oracles can recompute any element from its coordinates alone.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed,
                                std::initializer_list<std::uint64_t> words);

/// One message of an op's pattern, as the transport sees it. Schedule
/// rounds carry absolute datatypes (buffers are mpl::BOTTOM); the trivial
/// algorithm sends per-neighbor blocks relative to the user buffers.
struct Msg {
  int dest = mpl::PROC_NULL;
  int src = mpl::PROC_NULL;
  const void* sbuf = nullptr;
  int scount = 0;
  mpl::Datatype stype;
  void* rbuf = nullptr;
  int rcount = 0;
  mpl::Datatype rtype;
};

/// One collective call of an op, exposed layer by layer so the traced run
/// can replay each layer on the call's own arguments.
struct CallLayers {
  /// Plan-layer replays; empty when the call bypasses the plan layer.
  std::function<cartcomm::PlanKey()> key;
  std::function<cartcomm::CompiledPlan()> compile;
  std::function<cartcomm::Schedule(const cartcomm::CompiledPlan&)> bind;
  /// The executor on the call's own bound plan (Schedule::execute; on the
  /// trivial path PersistentColl::execute). Collective.
  std::function<void()> execute;
  /// Message pattern of one execution, phase by phase.
  std::vector<std::vector<Msg>> phases;
  // Exact per-rank work of one execution.
  long long rounds = 0;
  long long send_blocks = 0;
  long long send_bytes = 0;
  long long temp_bytes = 0;
  long long copies = 0;
  long long local_bytes = 0;      ///< bytes moved by local (self) copies
  long long delivered_bytes = 0;  ///< payload bytes handed to the caller
  long long folds = 0;
  long long fold_bytes = 0;
};

/// Benchmark-side spans inside one op (filled by workloads that have them).
struct Spans {
  double exchange_us = 0.0;
  double compute_us = 0.0;
};

/// Per-rank state of one workload. All ranks call every member in the same
/// order; setup(), run() and the CallLayers::execute replays are collective.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold set-up: communicator creation plus the *_init call (or the first
  /// call of each kind). Buffers are allocated by the factory, not here.
  virtual void setup(const mpl::Comm& world) = 0;
  /// Untimed: write op `op`'s seed-derived inputs and poison its outputs.
  virtual void prepare(std::uint64_t op) = 0;
  /// The timed operation. `spans` may be null.
  virtual void run(Spans* spans) = 0;
  /// Untimed: element-exact oracle for op `op`'s outputs.
  [[nodiscard]] virtual bool check(std::uint64_t op) const = 0;
  /// Layer view of one op (valid after setup; the workload keeps ownership
  /// of any schedule the returned callbacks execute).
  [[nodiscard]] virtual std::vector<CallLayers> layers() = 0;
};

/// Per-rank workload instance; `rank` is the caller's world rank. Throws
/// std::invalid_argument for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      int rank);

}  // namespace perfbench
