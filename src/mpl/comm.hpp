// Communicators and point-to-point communication.
//
// A Comm is a lightweight handle (shared group state + own rank) with MPI
// communicator semantics: an isolated matching context, dup() and split(),
// and the usual blocking / non-blocking point-to-point operations. All
// higher layers — collectives, topologies, and the Cartesian collective
// library — are built exclusively on this interface, mirroring how the
// paper's library is built on the MPI point-to-point/datatype API.
#pragma once

#include <memory>
#include <string>

#include "mpl/datatype.hpp"
#include "mpl/mailbox.hpp"
#include "mpl/request.hpp"

namespace telemetry {
class CommCounters;
class RankTelemetry;
}

namespace mpl {

namespace detail {
struct CommState;
}

class Proc;

class Comm {
 public:
  Comm() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  // -- point-to-point ------------------------------------------------------

  /// Eager (buffered) blocking send; never deadlocks on unmatched receives.
  void send(const void* buf, int count, const Datatype& type, int dest,
            int tag = 0) const;

  /// Blocking receive.
  Status recv(void* buf, int count, const Datatype& type, int src,
              int tag = 0) const;

  /// Combined send+receive (MPI_Sendrecv analogue); safe against deadlock.
  Status sendrecv(const void* sendbuf, int sendcount, const Datatype& sendtype,
                  int dest, int sendtag, void* recvbuf, int recvcount,
                  const Datatype& recvtype, int src, int recvtag) const;

  Request isend(const void* buf, int count, const Datatype& type, int dest,
                int tag = 0) const;
  Request irecv(void* buf, int count, const Datatype& type, int src,
                int tag = 0) const;

  /// Persistent point-to-point (MPI_Send_init / MPI_Recv_init analogue):
  /// capture the arguments once, then start() repeatedly. Each start()
  /// posts one operation and returns its Request.
  class PersistentP2P {
   public:
    PersistentP2P() = default;
    /// Post one instance of the captured operation.
    Request start() const;

   private:
    friend class Comm;
    std::shared_ptr<detail::CommState> state_;  // owning communicator state
    int rank_ = -1;
    bool send_ = false;
    void* buf_ = nullptr;
    int count_ = 0;
    Datatype type_;
    int peer_ = PROC_NULL;
    int tag_ = 0;
  };

  PersistentP2P send_init(const void* buf, int count, const Datatype& type,
                          int dest, int tag = 0) const;
  PersistentP2P recv_init(void* buf, int count, const Datatype& type, int src,
                          int tag = 0) const;

  /// Blocking probe (MPI_Probe): wait for a matching incoming message and
  /// return its envelope without receiving it. Wildcards allowed.
  Status probe(int src, int tag = ANY_TAG) const;

  /// Non-blocking probe (MPI_Iprobe): true when a matching message is
  /// already queued; fills `st` with its envelope (not filled on a miss).
  [[nodiscard]] bool iprobe(int src, int tag = ANY_TAG,
                            Status* st = nullptr) const;

  /// Matching channels. Collective implementations communicate on the
  /// `coll` channel (a shadow context), so user point-to-point traffic —
  /// including ANY_SOURCE/ANY_TAG receives — can never match collective
  /// messages; the analogue of MPI's hidden collective context.
  enum class Channel : std::uint8_t { user = 0, coll = 1 };

  Request isend_on(Channel ch, const void* buf, int count, const Datatype& type,
                   int dest, int tag = 0) const;
  Request irecv_on(Channel ch, void* buf, int count, const Datatype& type,
                   int src, int tag = 0) const;

  /// irecv_on that recycles the caller-held request state in `slot` when
  /// it can (previous cycle complete, no other reference alive), so a
  /// steady-state persistent collective reposts its receives without any
  /// heap allocation. When the slot is empty or still referenced a fresh
  /// state is allocated and stored back into it. Behaviour is otherwise
  /// identical to irecv_on().
  Request irecv_reuse(Channel ch, std::shared_ptr<detail::ReqState>& slot,
                      void* buf, int count, const Datatype& type, int src,
                      int tag = 0) const;
  Status sendrecv_on(Channel ch, const void* sendbuf, int sendcount,
                     const Datatype& sendtype, int dest, int sendtag,
                     void* recvbuf, int recvcount, const Datatype& recvtype,
                     int src, int recvtag) const;

  // -- communicator management ---------------------------------------------

  /// New communicator with the same group but a fresh matching context.
  [[nodiscard]] Comm dup() const;

  /// Partition by color; ranks ordered by (key, old rank). Color < 0 means
  /// "not a member" and yields an invalid Comm (MPI_UNDEFINED analogue).
  [[nodiscard]] Comm split(int color, int key) const;

  // -- benchmark / model support --------------------------------------------

  /// Out-of-band barrier that does not advance virtual clocks.
  void hard_sync() const;

  /// This process' virtual-clock time (0 when the model is off).
  [[nodiscard]] double vclock() const;

  /// hard_sync(), then reset this process' virtual clocks to zero.
  void vclock_reset_sync() const;

  /// True when a network cost model is active.
  [[nodiscard]] bool model_enabled() const;

  // -- tracing / metrics -----------------------------------------------------

  /// True when this process is currently recording trace events.
  [[nodiscard]] bool trace_active() const;

  /// Toggle event recording for this process. No-op unless event tracing
  /// was armed for the run (RunOptions::trace / MPL_TRACE).
  void set_trace_enabled(bool on) const;

  /// Open a named trace section (one collective execution window; its own
  /// process group in the Chrome trace). Returns the section id, or -1
  /// when tracing is not armed.
  int trace_section_begin(const std::string& label) const;
  void trace_section_end() const;

  /// This process' telemetry counters for this communicator (every
  /// channel's traffic under the base context label). Null when telemetry
  /// is not armed.
  [[nodiscard]] const telemetry::CommCounters* counters() const;

  /// This process' telemetry block (histograms, per-phase traffic, and the
  /// totals over all its communicators). Null when telemetry is not armed
  /// (RunOptions::telemetry / MPL_TELEMETRY / MPL_METRICS /
  /// MPL_OPENMETRICS).
  [[nodiscard]] const telemetry::RankTelemetry* telemetry() const;

  // -- internal access (used by collectives/topology layers) ----------------

  Proc& proc() const;
  const std::shared_ptr<detail::CommState>& state() const { return state_; }

 private:
  friend class CommBuilder;

  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  // Internal p2p helpers used during communicator creation (reserved tag).
  void internal_send(const void* data, std::size_t bytes, int dest) const;
  void internal_recv(void* data, std::size_t bytes, int src) const;

  // The body of isend_on without the Request handle: blocking send()
  // discards the handle, and every send request is the same pre-completed
  // singleton anyway, so the hot path skips even its refcount traffic.
  void isend_core(Channel ch, const void* buf, int count, const Datatype& type,
                  int dest, int tag) const;

  // Shared body of irecv_on and irecv_reuse: when `slot` is non-null the
  // state it holds is recycled if possible and the state used is stored
  // back into it.
  Request irecv_slot(Channel ch, void* buf, int count, const Datatype& type,
                     int src, int tag,
                     std::shared_ptr<detail::ReqState>* slot) const;

  // Collectively create a sub-communicator over the given members (process
  // pointers in new-rank order; parent ranks in the same order).
  Comm create_group(const std::vector<Proc*>& member_procs,
                    const std::vector<int>& member_parent_ranks,
                    int my_new_rank) const;

  std::shared_ptr<detail::CommState> state_;
  int rank_ = -1;
};

}  // namespace mpl
