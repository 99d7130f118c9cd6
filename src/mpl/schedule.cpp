#include "mpl/schedule.hpp"

#include <chrono>
#include <climits>
#include <cstring>
#include <sstream>

#include "mpl/collectives.hpp"
#include "mpl/comm_state.hpp"
#include "mpl/error.hpp"
#include "mpl/proc.hpp"
#include "mpl/request.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace mpl {

namespace {

// A PROC_NULL partner is only legal when the builder marked it as an
// intentional hole (a mesh boundary, or a direct baseline's unequal
// degrees); executing would otherwise silently skip the round and mask a
// rank-computation mismatch as mesh-boundary silence.
void require_null_provenance(const ScheduleRound& r) {
  MPL_REQUIRE(r.sendrank != PROC_NULL || r.send_boundary,
              "schedule: send partner is PROC_NULL without mesh-boundary "
              "provenance (rank mismatch?)");
  MPL_REQUIRE(r.recvrank != PROC_NULL || r.recv_boundary,
              "schedule: receive partner is PROC_NULL without mesh-boundary "
              "provenance (rank mismatch?)");
}

// A round posts a receive (send) only when the partner exists and the
// datatype is non-empty; the verifier mirrors this rule.
bool receives(const ScheduleRound& r) {
  return r.recvrank != PROC_NULL && r.recv_bytes() > 0;
}
bool sends(const ScheduleRound& r) {
  return r.sendrank != PROC_NULL && r.send_bytes() > 0;
}

}  // namespace

void Schedule::execute(const Comm& comm, int tag) const {
  // Listing 5: within each phase all rounds are independent — launch them
  // with non-blocking operations and wait for the whole phase. Blocking
  // execution is exactly a non-blocking execution driven to completion,
  // so all instrumentation lives in Execution.
  ExecutionScratch scratch;
  start(comm, scratch, tag).wait();
}

Schedule::Execution Schedule::start(const Comm& comm,
                                    ExecutionScratch& scratch,
                                    int tag) const {
  return Execution(this, comm, &scratch, tag);
}

Schedule::Execution::Execution(const Schedule* s, const Comm& comm,
                               ExecutionScratch* scratch, int tag)
    : sched_(s), comm_(comm), scratch_(scratch), tag_(tag), done_(false) {
  // Fresh execution over retained capacity: requests of the previous
  // execution are complete (its wait() returned), slots stay populated for
  // recycling.
  scratch_->pending.clear();
  scratch_->pending_round.clear();
  scratch_->head = 0;
  scratch_->phase_end = 0;
  scratch_->next_slot = 0;
  trace::RankTrace* tr = comm.proc().trace();
  if (tr && tr->tracing()) tr_ = tr;
  counters_ = comm.state()->counters[static_cast<std::size_t>(comm.rank())];
  if (counters_) counters_->add(telemetry::Count::schedule_executions);
  publish_point_ = comm.proc().faults() != nullptr;
  // The flight recorder is always armed; the counters only when telemetry
  // is. The ordinal is per rank thread, so a stall report can line up
  // "execution #k" across ranks.
  thread_local std::int32_t tl_exec_ordinal = 0;
  exec_ordinal_ = tl_exec_ordinal++;
  flight_ = &comm.proc().flight();
  t0_ = std::chrono::steady_clock::now();
  flight_->record(telemetry::FlightKind::sched_begin, exec_ordinal_);
  if (sched_->prepost_ && !sched_->phase_rounds_.empty()) prepost_receives();
  post_phase();  // may already complete everything (no communication)
}

// Post every receive of a pre-posting schedule, in round order, inside
// phase 0's scope. Per-partner FIFO matching then pairs the k-th message
// from a partner with the k-th receive from it over the whole execution,
// which verify_global proves for these schedules.
void Schedule::Execution::prepost_receives() {
  scratch_->pending.reserve(sched_->rounds_.size());
  scratch_->pending_round.reserve(sched_->rounds_.size());
  begin_phase_scope(0);
  std::size_t i = 0;
  for (const int nrounds : sched_->phase_rounds_) {
    for (int j = 0; j < nrounds; ++j, ++i) {
      const ScheduleRound& r = sched_->rounds_[i];
      require_null_provenance(r);
      if (receives(r)) post_receive(r, j);
    }
  }
  if (tr_) tr_->set_round(-1);
}

// Post one round's receive, recycling the request state kept in the
// scratch's slot table (indexed by posting order).
void Schedule::Execution::post_receive(const ScheduleRound& r, int round) {
  ExecutionScratch& s = *scratch_;
  if (tr_) tr_->set_round(round);
  if (s.slots.size() <= s.next_slot) s.slots.resize(s.next_slot + 1);
  s.pending.push_back(comm_.irecv_reuse(Comm::Channel::coll,
                                        s.slots[s.next_slot++], r.recvbuf,
                                        r.recvcount, r.recvtype, r.recvrank,
                                        tag_));
  s.pending_round.push_back(round);
}

void Schedule::Execution::begin_phase_scope(int phase) {
  if (!tr_) return;
  cur_phase_ = phase;
  tr_->set_phase(phase);
  phase_v0_ = comm_.model_enabled() ? comm_.proc().clock().now() : 0.0;
  phase_w0_ = comm_.proc().tracer()->wall_now();
}

// Emit the span event of the phase currently in flight: from its first
// post to the completion of all its receives. Carries no cost components
// itself (those live on the send/recv/copy events it encloses), so the
// attribution sum is never double counted.
void Schedule::Execution::end_phase_scope() {
  if (!tr_ || cur_phase_ < 0) return;
  trace::Event e;
  e.kind = trace::EventKind::phase;
  e.phase = cur_phase_;
  e.ctx = comm_.state()->ctx;
  e.v_start = phase_v0_;
  e.v_end = comm_.model_enabled() ? comm_.proc().clock().now() : 0.0;
  e.w_start = phase_w0_;
  e.w_end = comm_.proc().tracer()->wall_now();
  tr_->record(std::move(e));
  cur_phase_ = -1;
  tr_->set_phase(-1);
  tr_->set_round(-1);
}

// Apply the prefix of the fold program whose phase tags are below `below`.
// Runs at phase boundaries only: a fold tagged p reads staging slots filled
// by phase p's receives (all drained) and must complete before phase p+1
// posts sends that read its destination (eager transport packs at isend).
// The program order and gating are fixed at compile time, so the combine
// order — and therefore every floating-point result — is independent of
// message arrival order.
void Schedule::Execution::apply_folds(int below) {
  const auto& folds = sched_->folds_;
  if (next_fold_ >= folds.size()) return;
  const ReduceOp& op = sched_->op_;
  while (next_fold_ < folds.size() && folds[next_fold_].phase < below) {
    const ScheduleFold& f = folds[next_fold_++];
    const std::size_t bytes =
        static_cast<std::size_t>(f.count) * op.elem_size();
    if (f.src == nullptr) {
      op.fill_identity(f.dst, f.count);
    } else if (f.init) {
      std::memcpy(f.dst, f.src, bytes);
    } else {
      op.fold(f.dst, f.src, f.count);
    }
    if (comm_.model_enabled()) comm_.proc().clock().local_copy(bytes);
    if (counters_) counters_->on_reduce_fold(bytes);
  }
}

void Schedule::Execution::post_phase() {
  ExecutionScratch& s = *scratch_;
  // Post phases until one waits for receives (or all work is done).
  while (s.head == s.phase_end) {
    // Phase boundary: everything up to (excluding) the next phase to post
    // has drained, so its folds can run before further sends are packed.
    apply_folds(static_cast<int>(phase_));
    if (phase_ >= sched_->phase_rounds_.size()) {
      end_phase_scope();
      finish_copies();
      return;
    }
    if (cur_phase_ != static_cast<int>(phase_)) {  // else opened by prepost
      end_phase_scope();
      begin_phase_scope(static_cast<int>(phase_));
    }
    flight_->record(telemetry::FlightKind::phase_begin,
                    static_cast<std::int32_t>(phase_));
    if (counters_) counters_->add(telemetry::Count::phases);
    const int nrounds = sched_->phase_rounds_[phase_];
    for (int j = 0; j < nrounds; ++j) {
      const ScheduleRound& r = sched_->rounds_[round_base_ + static_cast<std::size_t>(j)];
      require_null_provenance(r);
      flight_->record(telemetry::FlightKind::round,
                      static_cast<std::int32_t>(phase_), j);
      if (publish_point_) {
        comm_.proc().set_sched_point(static_cast<int>(phase_), j);
      }
      if (tr_) tr_->set_round(j);
      if (counters_) counters_->add(telemetry::Count::rounds);
      // Each round posts its receive, then its send (the order the
      // combining schedules' virtual clocks are pinned to). A pre-posted
      // receive only joins this phase's wait range.
      if (receives(r)) {
        if (!sched_->prepost_) post_receive(r, j);
        ++s.phase_end;
      }
      if (sends(r)) {
        comm_.isend_on(Comm::Channel::coll, r.sendbuf, r.sendcount,
                       r.sendtype, r.sendrank, tag_);
        if (counters_) {
          counters_->on_phase_send(static_cast<int>(phase_), r.send_bytes());
        }
      }
    }
    if (tr_) tr_->set_round(-1);
    round_base_ += static_cast<std::size_t>(nrounds);
    ++phase_;
  }
}

void Schedule::Execution::finish_copies() {
  // Remaining folds (schedules with zero communication phases, and any
  // trailing identity fills recorded after the main program).
  apply_folds(INT_MAX);
  // Final non-communication phase: local block copies, scoped one past the
  // last communication phase.
  const bool copy_phase = !sched_->copies_.empty();
  if (copy_phase && counters_) counters_->add(telemetry::Count::phases);
  if (copy_phase && tr_) begin_phase_scope(sched_->phases());
  for (const ScheduleCopy& c : sched_->copies_) {
    const double v0 = comm_.model_enabled() ? comm_.proc().clock().now() : 0.0;
    const double w0 = tr_ ? comm_.proc().tracer()->wall_now() : 0.0;
    const std::size_t bytes = c.src.pack_size(c.srccount);
    copy_typed(c.srcbuf, c.srccount, c.src, c.dstbuf, c.dstcount, c.dst);
    if (comm_.model_enabled()) comm_.proc().clock().local_copy(bytes);
    if (counters_) counters_->on_copy(bytes);
    if (tr_) {
      trace::Event e;
      e.kind = trace::EventKind::copy;
      e.ctx = comm_.state()->ctx;
      e.bytes = bytes;
      e.blocks =
          static_cast<std::uint32_t>(c.src.flat_block_count(c.srccount));
      e.v_start = v0;
      e.v_end = comm_.model_enabled() ? comm_.proc().clock().now() : 0.0;
      e.w_start = w0;
      e.w_end = comm_.proc().tracer()->wall_now();
      e.comp[static_cast<int>(trace::Component::copy)] = e.v_end - v0;
      tr_->record(std::move(e));
    }
  }
  if (copy_phase) end_phase_scope();
  if (publish_point_) comm_.proc().set_sched_point(-1, -1);
  flight_->record(telemetry::FlightKind::sched_end, exec_ordinal_);
  if (counters_) {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    counters_->on_execution_done(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()),
        sched_->op_.valid());
  }
  done_ = true;
}

// Complete the in-flight phase's receives in posting order (deterministic
// virtual-clock accounting), restoring each one's round scope for its
// recv_complete event.
void Schedule::Execution::drain_pending() {
  ExecutionScratch& s = *scratch_;
  for (std::size_t i = s.head; i < s.phase_end; ++i) {
    if (publish_point_) {
      // phase_ already names the NEXT phase; the pending receives belong
      // to the one in flight.
      comm_.proc().set_sched_point(static_cast<int>(phase_) - 1,
                                   s.pending_round[i]);
    }
    if (tr_) tr_->set_round(s.pending_round[i]);
    s.pending[i].wait();
  }
  if (tr_) tr_->set_round(-1);
  s.head = s.phase_end;
}

bool Schedule::Execution::test() {
  if (done_) return true;
  ExecutionScratch& s = *scratch_;
  // Complete any finished receives of the current phase (in order, so the
  // virtual-clock accounting stays deterministic). A head cursor marks the
  // completed prefix — no O(n) erase from the front of the table.
  while (s.head < s.phase_end) {
    if (tr_) tr_->set_round(s.pending_round[s.head]);
    const bool ok = s.pending[s.head].test();
    if (tr_) tr_->set_round(-1);
    if (!ok) return false;
    ++s.head;
  }
  post_phase();
  return done_;
}

void Schedule::Execution::wait() {
  while (!done_) {
    drain_pending();
    post_phase();
  }
}

long long Schedule::send_bytes() const {
  long long bytes = 0;
  for (const ScheduleRound& r : rounds_) {
    bytes += static_cast<long long>(r.send_bytes());
  }
  return bytes;
}

namespace {

// Render one partner rank; PROC_NULL partners are annotated with their
// provenance so a dump distinguishes an intentional mesh-boundary hole
// from a rank-computation bug.
void put_partner(std::ostringstream& os, int rank, bool boundary) {
  if (rank == PROC_NULL) {
    os << (boundary ? "null(boundary)" : "null(UNMARKED)");
  } else {
    os << rank;
  }
}

}  // namespace

std::string Schedule::dump() const {
  std::ostringstream os;
  os << "schedule: " << phases() << " phases, " << rounds() << " rounds, "
     << send_blocks_ << " blocks sent, " << copies_.size() << " local copies, "
     << temp_bytes() << " temp bytes";
  if (op_.valid()) {
    os << ", reduce op " << op_.name() << ", " << folds_.size() << " folds";
  }
  os << "\n";
  std::size_t i = 0;
  for (std::size_t ph = 0; ph < phase_rounds_.size(); ++ph) {
    os << "  phase " << ph << " (" << phase_rounds_[ph] << " rounds)\n";
    for (int j = 0; j < phase_rounds_[ph]; ++j, ++i) {
      const ScheduleRound& r = rounds_[i];
      os << "    round " << j << ": ";
      if (!r.offset.empty()) {
        os << "offset (";
        for (std::size_t k = 0; k < r.offset.size(); ++k) {
          os << (k ? "," : "") << r.offset[k];
        }
        os << ") ";
      }
      os << "send->";
      put_partner(os, r.sendrank, r.send_boundary);
      os << " [" << r.send_blocks() << " blk, " << r.send_bytes() << " B]  "
         << (r.reduce ? "reduce<-" : "recv<-");
      put_partner(os, r.recvrank, r.recv_boundary);
      os << " [" << r.recv_blocks() << " blk, " << r.recv_bytes() << " B]\n";
    }
  }
  if (!copies_.empty()) {
    os << "  copy phase (" << copies_.size() << " copies)\n";
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      const ScheduleCopy& cp = copies_[c];
      os << "    copy " << c << ": " << cp.src.flat_block_count(cp.srccount)
         << " blk, " << cp.src.pack_size(cp.srccount) << " B\n";
    }
  }
  if (!folds_.empty()) {
    os << "  folds (" << folds_.size() << ")\n";
    for (std::size_t f = 0; f < folds_.size(); ++f) {
      const ScheduleFold& fd = folds_[f];
      os << "    fold " << f << ": phase " << fd.phase << " "
         << (fd.src == nullptr ? "fill" : fd.init ? "init" : "combine") << " "
         << fd.count << " elems\n";
    }
  }
  return os.str();
}

std::size_t Schedule::temp_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& pool : temp_pools_) n += pool.size();
  return n;
}

std::vector<std::span<const std::byte>> Schedule::temp_pools() const {
  return {temp_pools_.begin(), temp_pools_.end()};
}

namespace {

// Append what one direction of a round moves to an absolute type.
void append_absolute(TypeBuilder& tb, const void* buf, int count,
                     const Datatype& t) {
  if (t.valid() && t.pack_size(count) > 0) tb.append(buf, count, t);
}

// Are two round-generating offsets congruent on the grid (same partner on
// every process)? Periodic dimensions compare modulo the dimension size;
// non-periodic compare exactly. This predicate is process-independent, so
// all processes make identical coalescing decisions.
bool congruent(const CartGrid& grid, std::span<const int> a,
               std::span<const int> b) {
  if (grid.ndims() == 0 || a.size() != b.size() ||
      a.size() != static_cast<std::size_t>(grid.ndims())) {
    return false;  // unknown provenance: never fuse
  }
  for (int k = 0; k < grid.ndims(); ++k) {
    const int diff = a[static_cast<std::size_t>(k)] - b[static_cast<std::size_t>(k)];
    if (grid.periodic(k)) {
      if (diff % grid.dims()[static_cast<std::size_t>(k)] != 0) return false;
    } else if (diff != 0) {
      return false;
    }
  }
  return true;
}

// Fuse rounds generated by congruent offsets into one send-receive round.
// Order is preserved, so both sides of every partner pair fuse identically.
std::vector<ScheduleRound> coalesce_phase(const CartGrid& grid,
                                          std::vector<ScheduleRound> rounds) {
  std::vector<ScheduleRound> out;
  for (ScheduleRound& r : rounds) {
    ScheduleRound* prior = nullptr;
    for (ScheduleRound& o : out) {
      if (congruent(grid, o.offset, r.offset)) {
        prior = &o;
        break;
      }
    }
    if (!prior) {
      out.push_back(std::move(r));
      continue;
    }
    TypeBuilder sb, rb;
    append_absolute(sb, prior->sendbuf, prior->sendcount, prior->sendtype);
    append_absolute(sb, r.sendbuf, r.sendcount, r.sendtype);
    append_absolute(rb, prior->recvbuf, prior->recvcount, prior->recvtype);
    append_absolute(rb, r.recvbuf, r.recvcount, r.recvtype);
    prior->sendtype = sb.build();
    prior->recvtype = rb.build();
    prior->sendbuf = BOTTOM;
    prior->sendcount = 1;
    prior->recvbuf = BOTTOM;
    prior->recvcount = 1;
  }
  return out;
}

}  // namespace

Schedule Schedule::merge(std::vector<Schedule> parts, bool coalesce) {
  Schedule out;
  std::size_t max_phases = 0;
  for (const Schedule& p : parts) {
    // Reducing schedules cannot be merged: their fold programs are gated on
    // their own phase indices and their staging slots assume the original
    // round layout.
    MPL_REQUIRE(!p.op_.valid() && p.folds_.empty(),
                "Schedule::merge: reducing schedules cannot be merged");
    max_phases = std::max(max_phases, p.phase_rounds_.size());
  }
  // Phase-wise concatenation: rounds that were concurrent stay concurrent,
  // and rounds of different parts with equal phase index join one phase.
  std::vector<std::size_t> cursor(parts.size(), 0);
  for (std::size_t ph = 0; ph < max_phases; ++ph) {
    std::vector<ScheduleRound> phase;
    for (std::size_t pi = 0; pi < parts.size(); ++pi) {
      Schedule& p = parts[pi];
      if (ph >= p.phase_rounds_.size()) continue;
      const int k = p.phase_rounds_[ph];
      for (int j = 0; j < k; ++j) {
        phase.push_back(std::move(p.rounds_[cursor[pi] + static_cast<std::size_t>(j)]));
      }
      cursor[pi] += static_cast<std::size_t>(k);
    }
    if (coalesce && !parts.empty()) {
      phase = coalesce_phase(parts.front().grid_, std::move(phase));
    }
    out.phase_rounds_.push_back(static_cast<int>(phase.size()));
    for (ScheduleRound& r : phase) out.rounds_.push_back(std::move(r));
  }
  for (Schedule& p : parts) {
    out.send_blocks_ += p.send_blocks_;
    for (auto& c : p.copies_) out.copies_.push_back(std::move(c));
    for (auto& pool : p.temp_pools_) out.temp_pools_.push_back(std::move(pool));
    for (auto& pool : p.offset_pools_) {
      out.offset_pools_.push_back(std::move(pool));
    }
  }
  if (!parts.empty()) out.grid_ = parts.front().grid_;
  return out;
}

}  // namespace mpl
