// Internal shared state of a communicator group.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mpl/runtime_state.hpp"

namespace telemetry {
class CommCounters;
}

namespace mpl {
class Comm;

namespace detail {

// Matching-context channel bits. Internal traffic (communicator creation)
// and collective traffic run in shadow contexts derived from the user
// context by setting these bits; the telemetry label is the base context, so
// all traffic of one communicator aggregates in one counter block.
inline constexpr std::uint64_t kInternalCtxBit = 1ULL << 63;
inline constexpr std::uint64_t kCollCtxBit = 1ULL << 62;
inline constexpr std::uint64_t kCtxBaseMask = ~(kInternalCtxBit | kCollCtxBit);

struct CommState {
  std::uint64_t ctx = 0;
  std::vector<Proc*> members;  // comm rank -> process
  RuntimeState* rt = nullptr;
  std::shared_ptr<OobBarrier> oob;  // clock-neutral barrier, one per group
  /// Comm rank -> that rank's telemetry block for this communicator (null
  /// when telemetry is disarmed). Sized before the state is shared; each
  /// rank writes and reads only its own slot.
  std::vector<telemetry::CommCounters*> counters;
};

}  // namespace detail

/// Internal factory used by the runtime and by communicator creation.
class CommBuilder {
 public:
  static Comm make(std::shared_ptr<detail::CommState> state, int rank);
};

}  // namespace mpl
