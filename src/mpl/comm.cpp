#include "mpl/comm.hpp"

#include <algorithm>
#include <map>
#include <thread>

#include "mpl/comm_state.hpp"
#include "mpl/error.hpp"
#include "mpl/proc.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace mpl {

namespace {

// Internal traffic (communicator creation) runs in a shadow context derived
// from the user context, so it can never match user receives, and bypasses
// the network cost model (setup is not part of any timed experiment).
using detail::kCollCtxBit;
using detail::kInternalCtxBit;
constexpr int kInternalTag = 0;

std::uint64_t channel_ctx(std::uint64_t ctx, Comm::Channel ch) {
  return ch == Comm::Channel::coll ? (ctx | kCollCtxBit) : ctx;
}

// Number of contiguous memory pieces a posted operation touches (for the
// per-block cost of the network model). Dense types merge across elements
// into a single block; otherwise each element contributes its own blocks.
std::size_t message_blocks(const Datatype& type, int count) {
  if (count <= 0 || !type.valid() || type.block_count() == 0) return 1;
  if (type.dense()) return 1;
  return type.block_count() * static_cast<std::size_t>(count);
}

void validate_rank(int rank, int size, const char* what) {
  MPL_REQUIRE(rank == PROC_NULL || (rank >= 0 && rank < size),
              std::string(what) + " rank out of range");
}

// Every send completes at post time (the transport is eager), so all send
// requests share one immutable, pre-completed state instead of allocating
// one per message. Nothing ever writes it after construction: wait/test
// see done == true and model_accounted == true and return immediately.
const std::shared_ptr<detail::ReqState>& completed_send_state() {
  static const std::shared_ptr<detail::ReqState> st = [] {
    auto s = std::make_shared<detail::ReqState>();
    s->kind = detail::ReqState::Kind::send;
    s->done.store(true, std::memory_order_relaxed);
    s->model_accounted = true;
    return s;
  }();
  return st;
}

}  // namespace

Comm CommBuilder::make(std::shared_ptr<detail::CommState> state, int rank) {
  return Comm(std::move(state), rank);
}

int Comm::size() const noexcept {
  return state_ ? static_cast<int>(state_->members.size()) : 0;
}

Proc& Comm::proc() const { return *state_->members[static_cast<std::size_t>(rank_)]; }

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

Request Comm::isend(const void* buf, int count, const Datatype& type, int dest,
                    int tag) const {
  return isend_on(Channel::user, buf, count, type, dest, tag);
}

Request Comm::irecv(void* buf, int count, const Datatype& type, int src,
                    int tag) const {
  return irecv_on(Channel::user, buf, count, type, src, tag);
}

Request Comm::isend_on(Channel ch, const void* buf, int count,
                       const Datatype& type, int dest, int tag) const {
  isend_core(ch, buf, count, type, dest, tag);
  return Request(completed_send_state(), &proc());
}

void Comm::isend_core(Channel ch, const void* buf, int count,
                      const Datatype& type, int dest, int tag) const {
  MPL_REQUIRE(valid(), "isend on invalid communicator");
  MPL_REQUIRE(count >= 0, "isend: negative count");
  MPL_REQUIRE(tag >= 0, "isend: negative tag");
  validate_rank(dest, size(), "isend: destination");

  Proc& self = proc();
  if (dest == PROC_NULL) return;

  // Only the header is built here; deliver() moves the bytes.
  detail::MsgHeader msg;
  msg.ctx = channel_ctx(state_->ctx, ch);
  msg.src = rank_;
  msg.tag = tag;
  msg.from_self = (dest == rank_);
  const std::size_t bytes = type.pack_size(count);

  trace::RankTrace* tr = self.trace();
  const bool tracing = tr && tr->tracing();
  const std::size_t blocks = message_blocks(type, count);

  // Fault injection. Decisions are a pure hash of (seed, rank, per-rank
  // message sequence, attempt), so the drop/delay pattern — and with the
  // model enabled, the virtual clocks — replay bit-identically from the
  // seed no matter how the host schedules the threads. Dropped deliveries
  // are retransmitted inline, before deliver(): the sender's program order
  // IS the delivery order, so FIFO per (sender, ctx) is preserved by
  // construction. Self-messages never touch the network and are exempt.
  const FaultPlan* fp = self.faults();
  const bool inject = fp && fp->injecting() && !msg.from_self;
  int drops = 0;
  double fdelay = 0.0;
  if (inject) {
    const std::uint64_t fseq = self.next_fault_seq();
    while (fp->drop(rank_, fseq, drops)) {
      ++drops;
      if (drops > fp->config().max_retries) {
        throw Error("mpl: isend to rank " + std::to_string(dest) +
                    " dropped after " +
                    std::to_string(fp->config().max_retries) +
                    " retransmit attempts (fault injection)");
      }
    }
    fdelay = fp->delay(rank_, fseq);
  }
  const double strag =
      (fp && fp->injecting()) ? fp->straggler_overhead(rank_) : 0.0;

  // Every counted fact of this send lands in the communicator's telemetry
  // block, in one place, after the clock work below.
  telemetry::CommCounters* cc =
      state_->counters[static_cast<std::size_t>(rank_)];
  // Retransmits are rare enough to be flight-timeline material.
  if (drops > 0) {
    self.flight().record(telemetry::FlightKind::retry, drops, dest);
  }

  double backoff = 0.0;
  if (self.clock().enabled()) {
    // Each dropped attempt charges one bounded exponential backoff before
    // the successful attempt departs.
    for (int attempt = 1; attempt <= drops; ++attempt) {
      const double vr0 = self.clock().now();
      const double wr0 = tracing ? self.tracer()->wall_now() : 0.0;
      const double b = fp->backoff(attempt);
      self.clock().charge(b);
      backoff += b;
      if (tracing) {
        trace::Event e;
        e.kind = trace::EventKind::fault_retry;
        e.peer = dest;
        e.tag = tag;
        e.ctx = msg.ctx;
        e.bytes = bytes;
        e.v_start = vr0;
        e.v_end = self.clock().now();
        e.w_start = wr0;
        e.w_end = self.tracer()->wall_now();
        e.comp[static_cast<int>(trace::Component::fault)] = b;
        tr->record(std::move(e));
      }
    }
  } else if (drops > 0 || fdelay > 0.0) {
    // Wall-clock mode: no virtual cost to charge, but perturb the host
    // scheduling (chaos value under TSan) and still count the injections.
    for (int attempt = 0; attempt <= drops; ++attempt) {
      std::this_thread::yield();
    }
  }

  const double w0 = tracing ? self.tracer()->wall_now() : 0.0;
  const double v0 = self.clock().enabled() ? self.clock().now() : 0.0;
  if (self.clock().enabled()) {
    // Straggler ranks pay extra CPU overhead on every post.
    if (strag > 0.0) self.clock().charge(strag);
    msg.depart = msg.from_self
                     ? self.clock().now()
                     : self.clock().post_send(bytes, blocks);
    // Injected delay jitter is in-network time: it postpones the arrival
    // (receiver-side idle), not the sender's clock or its send port.
    if (fdelay > 0.0) msg.depart += fdelay;
  }
  if (cc) {
    cc->on_send(bytes, blocks, msg.from_self);
    if (drops > 0) {
      cc->add(telemetry::Count::fault_retries,
              static_cast<std::uint64_t>(drops));
      cc->add(telemetry::VTime::fault_backoff_v, backoff);
    }
    if (fdelay > 0.0) {
      cc->add(telemetry::Count::fault_delays);
      if (self.clock().enabled()) {
        cc->add(telemetry::VTime::fault_delay_v, fdelay);
      }
    }
    if (strag > 0.0 && self.clock().enabled()) {
      cc->add(telemetry::VTime::fault_straggler_v, strag);
    }
  }
  if (tracing) {
    trace::Event e;
    e.kind = trace::EventKind::send_post;
    e.peer = dest;
    e.tag = tag;
    e.ctx = msg.ctx;
    e.bytes = bytes;
    e.blocks = static_cast<std::uint32_t>(blocks);
    e.v_start = v0;
    e.v_end = self.clock().enabled() ? self.clock().now() : 0.0;
    e.w_start = w0;
    e.w_end = self.tracer()->wall_now();
    e.depart = msg.depart;
    // Mirror post_send() exactly: the posting advance is o + blocks *
    // o_block (+ packing for non-dense types, + injected straggler
    // overhead); the wire gap G is port time, attributed at the receiver.
    if (self.clock().enabled() && !msg.from_self) {
      const auto& cfg = self.clock().config();
      e.comp[static_cast<int>(trace::Component::o)] = cfg.o;
      e.comp[static_cast<int>(trace::Component::o_block)] =
          cfg.o_block * static_cast<double>(blocks);
      if (blocks > 1) {
        e.comp[static_cast<int>(trace::Component::G_pack)] =
            cfg.G_pack * static_cast<double>(bytes);
      }
    }
    if (self.clock().enabled()) {
      e.comp[static_cast<int>(trace::Component::fault)] = strag;
    }
    tr->record(std::move(e));
  }
  // Staging (a pooled payload for an unmatched message) is the one extra
  // copy left in the transport; it is counted here, on the sender.
  const bool staged =
      state_->members[static_cast<std::size_t>(dest)]->mailbox().deliver(
          msg, buf, count, type, self.pool());
  if (staged && cc) cc->add(telemetry::Count::staged_bytes, bytes);
}

Request Comm::irecv_on(Channel ch, void* buf, int count, const Datatype& type,
                       int src, int tag) const {
  return irecv_slot(ch, buf, count, type, src, tag, nullptr);
}

Request Comm::irecv_reuse(Channel ch, std::shared_ptr<detail::ReqState>& slot,
                          void* buf, int count, const Datatype& type, int src,
                          int tag) const {
  return irecv_slot(ch, buf, count, type, src, tag, &slot);
}

Request Comm::irecv_slot(Channel ch, void* buf, int count, const Datatype& type,
                         int src, int tag,
                         std::shared_ptr<detail::ReqState>* slot) const {
  MPL_REQUIRE(valid(), "irecv on invalid communicator");
  MPL_REQUIRE(count >= 0, "irecv: negative count");
  MPL_REQUIRE(tag >= 0 || tag == ANY_TAG, "irecv: invalid tag");
  MPL_REQUIRE(src == ANY_SOURCE || src == PROC_NULL || (src >= 0 && src < size()),
              "irecv: source rank out of range");

  // Recycle the caller's slot only when the previous cycle is fully over:
  // completion observed (the acquire pairs with the deliverer's release
  // store, ordering its field writes before our reset) and no other
  // reference alive — the mailbox drops its copy at match time and any
  // Request handle must have been destroyed by the caller. Anything less
  // falls back to a fresh allocation, so reuse is never a correctness
  // hazard, only an optimization that usually applies.
  std::shared_ptr<detail::ReqState> st;
  if (slot && *slot && slot->use_count() == 1 &&
      (*slot)->done.load(std::memory_order_acquire)) {
    st = *slot;
    st->reset_for_reuse();
  } else {
    st = std::make_shared<detail::ReqState>();
    if (slot) *slot = st;
  }
  st->kind = detail::ReqState::Kind::recv;
  if (src == PROC_NULL) {
    st->done = true;
    st->null_recv = true;
    st->status = Status{PROC_NULL, ANY_TAG, 0};
    return Request(std::move(st), &proc());
  }
  st->ctx = channel_ctx(state_->ctx, ch);
  st->counters = state_->counters[static_cast<std::size_t>(rank_)];
  st->match_src = src;
  st->match_tag = tag;
  st->base = buf;
  st->count = count;
  st->type = type;

  Proc& self = proc();
  trace::RankTrace* tr = self.trace();
  const bool tracing = tr && tr->tracing();
  const double w0 = tracing ? self.tracer()->wall_now() : 0.0;
  const double v0 = self.clock().enabled() ? self.clock().now() : 0.0;
  const std::size_t blocks = message_blocks(type, count);
  st->blocks = static_cast<std::uint32_t>(blocks);
  const FaultPlan* fp = self.faults();
  const double strag =
      (fp && fp->injecting()) ? fp->straggler_overhead(rank_) : 0.0;
  if (self.clock().enabled()) {
    if (strag > 0.0) {
      // Straggler ranks pay extra CPU overhead on every post.
      self.clock().charge(strag);
      if (st->counters) {
        st->counters->add(telemetry::VTime::fault_straggler_v, strag);
      }
    }
    // Post charges per-block overhead only; the datatype-scatter G_pack is
    // charged at completion, on the actual message size.
    self.clock().post_recv(blocks);
  }
  if (tracing) {
    trace::Event e;
    e.kind = trace::EventKind::recv_post;
    e.peer = src;
    e.tag = tag;
    e.ctx = st->ctx;
    e.bytes = type.pack_size(count);
    e.blocks = static_cast<std::uint32_t>(blocks);
    e.v_start = v0;
    e.v_end = self.clock().enabled() ? self.clock().now() : 0.0;
    e.w_start = w0;
    e.w_end = self.tracer()->wall_now();
    if (self.clock().enabled()) {
      // Mirror post_recv() exactly: o + blocks * o_block (+ injected
      // straggler overhead). The scatter G_pack shows up in the
      // recv_complete event instead.
      const auto& cfg = self.clock().config();
      e.comp[static_cast<int>(trace::Component::o)] = cfg.o;
      e.comp[static_cast<int>(trace::Component::o_block)] =
          cfg.o_block * static_cast<double>(blocks);
      e.comp[static_cast<int>(trace::Component::fault)] = strag;
    }
    tr->record(std::move(e));
  }
  self.mailbox().post_recv(st);
  return Request(std::move(st), &self);
}

Comm::PersistentP2P Comm::send_init(const void* buf, int count,
                                    const Datatype& type, int dest,
                                    int tag) const {
  MPL_REQUIRE(valid(), "send_init on invalid communicator");
  validate_rank(dest, size(), "send_init: destination");
  PersistentP2P p;
  p.state_ = state_;
  p.rank_ = rank_;
  p.send_ = true;
  p.buf_ = const_cast<void*>(buf);
  p.count_ = count;
  p.type_ = type;
  p.peer_ = dest;
  p.tag_ = tag;
  return p;
}

Comm::PersistentP2P Comm::recv_init(void* buf, int count, const Datatype& type,
                                    int src, int tag) const {
  MPL_REQUIRE(valid(), "recv_init on invalid communicator");
  MPL_REQUIRE(src == ANY_SOURCE || src == PROC_NULL || (src >= 0 && src < size()),
              "recv_init: source rank out of range");
  PersistentP2P p;
  p.state_ = state_;
  p.rank_ = rank_;
  p.send_ = false;
  p.buf_ = buf;
  p.count_ = count;
  p.type_ = type;
  p.peer_ = src;
  p.tag_ = tag;
  return p;
}

Request Comm::PersistentP2P::start() const {
  MPL_REQUIRE(state_ != nullptr, "start on default-constructed PersistentP2P");
  const Comm comm = CommBuilder::make(state_, rank_);
  return send_ ? comm.isend(buf_, count_, type_, peer_, tag_)
               : comm.irecv(buf_, count_, type_, peer_, tag_);
}

Status Comm::probe(int src, int tag) const {
  MPL_REQUIRE(valid(), "probe on invalid communicator");
  MPL_REQUIRE(src == ANY_SOURCE || (src >= 0 && src < size()),
              "probe: source rank out of range");
  return proc().mailbox().wait_probe(state_->ctx, src, tag);
}

bool Comm::iprobe(int src, int tag, Status* st) const {
  MPL_REQUIRE(valid(), "iprobe on invalid communicator");
  MPL_REQUIRE(src == ANY_SOURCE || (src >= 0 && src < size()),
              "iprobe: source rank out of range");
  return proc().mailbox().probe_unexpected(state_->ctx, src, tag, st);
}

void Comm::send(const void* buf, int count, const Datatype& type, int dest,
                int tag) const {
  isend_core(Channel::user, buf, count, type, dest, tag);  // eager
}

Status Comm::recv(void* buf, int count, const Datatype& type, int src,
                  int tag) const {
  // Fast path: with no virtual clock there is no model accounting, so a
  // blocking receive that finds its message already queued can consume it
  // directly — no request state, no wait machinery. Tracing keeps the path
  // and records its recv_complete here: wall times, zero cost components.
  MPL_REQUIRE(valid(), "recv on invalid communicator");
  if (src != PROC_NULL) {
    Proc& self = proc();
    if (!self.clock().enabled()) {
      MPL_REQUIRE(count >= 0, "recv: negative count");
      MPL_REQUIRE(tag >= 0 || tag == ANY_TAG, "recv: invalid tag");
      MPL_REQUIRE(src == ANY_SOURCE || (src >= 0 && src < size()),
                  "recv: source rank out of range");
      trace::RankTrace* tr = self.trace();
      const bool tracing = tr && tr->tracing();
      const double w0 = tracing ? self.tracer()->wall_now() : 0.0;
      const std::uint64_t ctx = channel_ctx(state_->ctx, Channel::user);
      Status st;
      if (self.mailbox().try_recv_now(ctx, src, tag, type, buf, count, &st)) {
        if (telemetry::CommCounters* cc =
                state_->counters[static_cast<std::size_t>(rank_)]) {
          cc->on_recv(st.bytes, 0.0);
        }
        if (tracing) {
          trace::Event e;
          e.kind = trace::EventKind::recv_complete;
          e.peer = st.source;
          e.tag = st.tag;
          e.ctx = ctx;
          e.bytes = st.bytes;
          e.w_start = w0;
          e.w_end = self.tracer()->wall_now();
          tr->record(std::move(e));
        }
        return st;
      }
    }
  }
  return irecv(buf, count, type, src, tag).wait();
}

Status Comm::sendrecv(const void* sendbuf, int sendcount,
                      const Datatype& sendtype, int dest, int sendtag,
                      void* recvbuf, int recvcount, const Datatype& recvtype,
                      int src, int recvtag) const {
  return sendrecv_on(Channel::user, sendbuf, sendcount, sendtype, dest, sendtag,
                     recvbuf, recvcount, recvtype, src, recvtag);
}

Status Comm::sendrecv_on(Channel ch, const void* sendbuf, int sendcount,
                         const Datatype& sendtype, int dest, int sendtag,
                         void* recvbuf, int recvcount, const Datatype& recvtype,
                         int src, int recvtag) const {
  Request r = irecv_on(ch, recvbuf, recvcount, recvtype, src, recvtag);
  isend_on(ch, sendbuf, sendcount, sendtype, dest, sendtag);
  return r.wait();
}

// ---------------------------------------------------------------------------
// Internal (model-free) p2p used during communicator creation
// ---------------------------------------------------------------------------

void Comm::internal_send(const void* data, std::size_t bytes, int dest) const {
  static const Datatype kByte = Datatype::bytes(1);
  detail::MsgHeader msg;
  msg.ctx = state_->ctx | kInternalCtxBit;
  msg.src = rank_;
  msg.tag = kInternalTag;
  msg.from_self = (dest == rank_);
  state_->members[static_cast<std::size_t>(dest)]->mailbox().deliver(
      msg, data, static_cast<int>(bytes), kByte, proc().pool());
}

void Comm::internal_recv(void* data, std::size_t bytes, int src) const {
  auto st = std::make_shared<detail::ReqState>();
  st->kind = detail::ReqState::Kind::recv;
  st->ctx = state_->ctx | kInternalCtxBit;
  st->match_src = src;
  st->match_tag = kInternalTag;
  st->base = data;
  st->count = 1;
  st->type = Datatype::bytes(bytes);
  st->null_recv = true;  // bypass model accounting
  Proc& self = proc();
  self.mailbox().post_recv(st);
  self.mailbox().wait_done(st);
  MPL_REQUIRE(st->error.empty(), st->error);
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

// Create a communicator over `member_procs` (process pointers in new rank
// order). The leader (new rank 0) allocates the context and state and hands
// the shared state to the other members through the runtime's publish table;
// members learn the context id via an internal message on the parent.
Comm Comm::create_group(const std::vector<Proc*>& member_procs,
                        const std::vector<int>& member_parent_ranks,
                        int my_new_rank) const {
  const Comm& parent = *this;
  auto& rt = parent.proc().runtime();
  std::shared_ptr<detail::CommState> st;
  if (my_new_rank == 0) {
    st = std::make_shared<detail::CommState>();
    st->ctx = rt.next_ctx.fetch_add(1, std::memory_order_relaxed);
    st->members = member_procs;
    st->rt = &rt;
    st->oob = std::make_shared<detail::OobBarrier>(
        static_cast<int>(member_procs.size()), &rt.abort);
    st->counters.resize(member_procs.size(), nullptr);
    rt.publish_comm(st);
    for (std::size_t i = 1; i < member_parent_ranks.size(); ++i) {
      parent.internal_send(&st->ctx, sizeof(st->ctx), member_parent_ranks[i]);
    }
  } else {
    std::uint64_t ctx = 0;
    parent.internal_recv(&ctx, sizeof(ctx), member_parent_ranks[0]);
    st = rt.lookup_comm(ctx);
  }
  if (telemetry::RankTelemetry* tm = parent.proc().telem()) {
    st->counters[static_cast<std::size_t>(my_new_rank)] = tm->add_comm(st->ctx);
  }
  return CommBuilder::make(std::move(st), my_new_rank);
}

Comm Comm::dup() const {
  MPL_REQUIRE(valid(), "dup on invalid communicator");
  std::vector<int> parent_ranks(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) parent_ranks[static_cast<std::size_t>(i)] = i;
  return create_group(state_->members, parent_ranks, rank_);
}

Comm Comm::split(int color, int key) const {
  MPL_REQUIRE(valid(), "split on invalid communicator");
  const int p = size();

  // Internal allgather of (color, key) over the parent (ring).
  struct Item {
    int color, key;
  };
  std::vector<Item> items(static_cast<std::size_t>(p));
  items[static_cast<std::size_t>(rank_)] = Item{color, key};
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int send_idx = (rank_ - step + p) % p;
    const int recv_idx = (rank_ - step - 1 + p) % p;
    // Forward around the ring; internal channel is model-free.
    internal_send(&items[static_cast<std::size_t>(send_idx)], sizeof(Item), right);
    internal_recv(&items[static_cast<std::size_t>(recv_idx)], sizeof(Item), left);
  }

  if (color < 0) return Comm{};  // MPI_UNDEFINED analogue

  // Members of my color, ordered by (key, parent rank).
  std::vector<int> group;
  for (int r = 0; r < p; ++r) {
    if (items[static_cast<std::size_t>(r)].color == color) group.push_back(r);
  }
  std::stable_sort(group.begin(), group.end(), [&](int a, int b) {
    return items[static_cast<std::size_t>(a)].key < items[static_cast<std::size_t>(b)].key;
  });

  std::vector<Proc*> member_procs;
  member_procs.reserve(group.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    member_procs.push_back(state_->members[static_cast<std::size_t>(group[i])]);
    if (group[i] == rank_) my_new_rank = static_cast<int>(i);
  }
  return create_group(member_procs, group, my_new_rank);
}

// ---------------------------------------------------------------------------
// Benchmark / model support
// ---------------------------------------------------------------------------

void Comm::hard_sync() const {
  MPL_REQUIRE(valid(), "hard_sync on invalid communicator");
  state_->oob->arrive_and_wait();
}

double Comm::vclock() const { return proc().clock().now(); }

void Comm::vclock_reset_sync() const {
  hard_sync();
  proc().clock().reset();
  hard_sync();
}

bool Comm::model_enabled() const { return proc().clock().enabled(); }

// ---------------------------------------------------------------------------
// Tracing / metrics
// ---------------------------------------------------------------------------

bool Comm::trace_active() const {
  const trace::RankTrace* tr = proc().trace();
  return tr && tr->tracing();
}

void Comm::set_trace_enabled(bool on) const {
  if (trace::RankTrace* tr = proc().trace()) tr->set_tracing(on);
}

int Comm::trace_section_begin(const std::string& label) const {
  trace::RankTrace* tr = proc().trace();
  if (!tr) return -1;
  Proc& self = proc();
  const double v = self.clock().enabled() ? self.clock().now() : 0.0;
  return tr->begin_section(label, v, self.tracer()->wall_now());
}

void Comm::trace_section_end() const {
  trace::RankTrace* tr = proc().trace();
  if (!tr) return;
  Proc& self = proc();
  const double v = self.clock().enabled() ? self.clock().now() : 0.0;
  tr->end_section(v, self.tracer()->wall_now());
}

const telemetry::CommCounters* Comm::counters() const {
  MPL_REQUIRE(valid(), "counters on invalid communicator");
  return state_->counters[static_cast<std::size_t>(rank_)];
}

const telemetry::RankTelemetry* Comm::telemetry() const {
  MPL_REQUIRE(valid(), "telemetry on invalid communicator");
  return proc().telem();
}

}  // namespace mpl
