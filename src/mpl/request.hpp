// Non-blocking communication requests.
//
// A Request is a handle to the completion state of one isend/irecv. Receive
// requests are completed by the delivering thread (under the receiver's
// mailbox lock); send requests complete locally at post time (the transport
// is eager/buffered). Waiting also performs the network-model accounting
// for the owning process, in request order, which keeps virtual-clock
// results deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "mpl/datatype.hpp"

namespace telemetry {
class CommCounters;
}

namespace mpl {

class Proc;

/// Completion information of a receive (source, tag, payload bytes).
struct Status {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

namespace detail {

struct ReqState {
  enum class Kind { send, recv };

  Kind kind = Kind::send;
  /// Completion flag. Written by the completing thread after the unlocked
  /// unpack (under the receiver's mailbox lock when a deliverer completes
  /// it, lock-free on the owning thread for immediate matches) and read
  /// locklessly by the owner's test()/wait()/poll_done() fast path, so it
  /// must be atomic; the release store / the acquire load here also order
  /// the other completion fields (status, error, depart) written before it.
  std::atomic<bool> done{false};
  bool model_accounted = false;

  // Matching criteria (recv only).
  std::uint64_t ctx = 0;
  /// The posting rank's telemetry block for the communicator (null when
  /// telemetry is disarmed); completion counts land here.
  telemetry::CommCounters* counters = nullptr;
  int match_src = -1;
  int match_tag = -1;

  // Destination layout (recv only).
  void* base = nullptr;
  int count = 0;
  Datatype type;
  /// Contiguous blocks the posted layout scatters into; >1 marks a packed
  /// (non-dense) message whose receive completion charges G_pack.
  std::uint32_t blocks = 1;

  // Completion info.
  Status status;
  double depart = 0.0;   // virtual departure stamp of the matched message
  double arrive_wall = -1.0;  // wall stamp of mailbox delivery (tracing only)
  bool from_self = false;
  bool null_recv = false;  // recv from PROC_NULL: completes immediately
  /// Incoming message exceeded the posted capacity. The wire cost is still
  /// accounted (on the actual incoming size); only the unpack was
  /// suppressed. wait/test perform the accounting, then throw `error`.
  bool truncated = false;

  // Receiver-side delivery error (e.g. truncation); thrown from wait/test.
  std::string error;

  /// Reset the completion-cycle fields so a drained state can be reposted
  /// (the persistent-collective zero-allocation path). The caller must
  /// have observed done == true with acquire semantics and hold the only
  /// reference (no mailbox or Request copy alive); matching and layout
  /// fields are overwritten by the reposting code, so only the flags that
  /// would otherwise leak a previous completion are cleared here.
  void reset_for_reuse() {
    done.store(false, std::memory_order_relaxed);
    model_accounted = false;
    blocks = 1;
    status = Status{};
    depart = 0.0;
    arrive_wall = -1.0;
    from_self = false;
    null_recv = false;
    truncated = false;
    error.clear();
  }
};

}  // namespace detail

/// Handle to a pending (or completed) non-blocking operation.
class Request {
 public:
  Request() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Block until the operation completes; returns its Status.
  Status wait();

  /// Non-blocking completion check; fills `st` when done. Discarding the
  /// result is always a bug: a false return means the operation is still
  /// pending and `st` was not filled.
  [[nodiscard]] bool test(Status* st = nullptr);

 private:
  friend class Comm;
  friend Status wait_any(std::span<Request> reqs, std::size_t* index);
  friend bool test_any(std::span<Request> reqs, std::size_t* index, Status* st);
  friend void wait_all(std::span<Request> reqs, std::span<Status> statuses);

  Request(std::shared_ptr<detail::ReqState> s, Proc* owner)
      : state_(std::move(s)), owner_(owner) {}

  std::shared_ptr<detail::ReqState> state_;
  Proc* owner_ = nullptr;
};

/// Wait for all requests; optionally collect statuses (pass empty span to
/// ignore, mirroring MPI_STATUSES_IGNORE).
void wait_all(std::span<Request> reqs, std::span<Status> statuses = {});

/// Wait for any one request to complete; returns its Status and stores its
/// position in `index`. All requests must belong to the calling process.
/// Invalid handles are skipped; throws when every handle is invalid.
Status wait_any(std::span<Request> reqs, std::size_t* index);

/// Non-blocking variant: true when some request has completed (its index
/// and status returned as for wait_any).
[[nodiscard]] bool test_any(std::span<Request> reqs, std::size_t* index,
                            Status* st = nullptr);

}  // namespace mpl
