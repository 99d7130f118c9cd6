#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "cartcomm/build_schedule.hpp"
#include "stencil/field.hpp"
#include "stencil/halo.hpp"

namespace perfbench {

std::uint64_t mix(std::uint64_t seed,
                  std::initializer_list<std::uint64_t> words) {
  auto splitmix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::uint64_t h = splitmix(seed);
  for (const std::uint64_t w : words) h = splitmix(h ^ w);
  return h;
}

namespace {

using cartcomm::Algorithm;
using cartcomm::CartNeighborComm;
using cartcomm::Neighborhood;
using cartcomm::RecvBlock;
using cartcomm::Schedule;
using cartcomm::SendBlock;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t sz(int v) { return static_cast<std::size_t>(v); }

/// Layer view of a call executed through the bound schedule `s`: exact
/// structure by Schedule introspection, the message pattern from its
/// rounds. `gets` are the blocks the call delivers; on a movement schedule
/// the zero-vector blocks move by local copy.
CallLayers schedule_layers(const Schedule& s, const Neighborhood& nb,
                           std::span<const RecvBlock> gets) {
  CallLayers c;
  c.rounds = s.rounds();
  c.send_blocks = s.send_block_count();
  c.send_bytes = s.send_bytes();
  c.temp_bytes = static_cast<long long>(s.temp_bytes());
  c.copies = s.copy_count();
  for (const cartcomm::ScheduleFold& f : s.folds()) {
    ++c.folds;
    c.fold_bytes += static_cast<long long>(f.count) *
                    static_cast<long long>(s.op().elem_size());
  }
  for (int i = 0; i < nb.count(); ++i) {
    const long long b = static_cast<long long>(gets[sz(i)].bytes());
    c.delivered_bytes += b;
    if (nb.nonzeros(i) == 0 && !s.reducing()) c.local_bytes += b;
  }
  std::size_t r = 0;
  for (const int n : s.phase_rounds()) {
    std::vector<Msg> phase;
    for (int j = 0; j < n; ++j, ++r) {
      const cartcomm::ScheduleRound& sr = s.round_list()[r];
      // The executor posts only non-empty directions.
      const bool out = sr.sendtype.valid() && sr.sendtype.size() > 0;
      const bool in = sr.recvtype.valid() && sr.recvtype.size() > 0;
      phase.push_back({out ? sr.sendrank : mpl::PROC_NULL,
                       in ? sr.recvrank : mpl::PROC_NULL, mpl::BOTTOM,
                       out ? 1 : 0, sr.sendtype, mpl::BOTTOM, in ? 1 : 0,
                       sr.recvtype});
    }
    c.phases.push_back(std::move(phase));
  }
  return c;
}

/// Plan-layer callbacks of a movement alltoall on the given blocks (which
/// must outlive the callbacks).
void alltoall_plan_layers(CallLayers& c, const CartNeighborComm& cc,
                          const std::vector<SendBlock>& sends,
                          const std::vector<RecvBlock>& recvs) {
  std::vector<std::size_t> bytes;
  for (const SendBlock& b : sends) bytes.push_back(b.bytes());
  c.key = [&cc, &sends, &recvs] {
    return cartcomm::make_alltoall_key(cc, sends, recvs);
  };
  c.compile = [&cc, bytes] {
    return cartcomm::compile_alltoall_plan(cc, bytes);
  };
  c.bind = [&cc, &sends, &recvs](const cartcomm::CompiledPlan& p) {
    return p.bind(cc, sends, recvs);
  };
}

// ---------------------------------------------------------------------------
// stencil2d: one Jacobi step of Listing 3 on a 2x2 torus
// ---------------------------------------------------------------------------

class Stencil2d final : public Workload {
 public:
  static constexpr int kN = 512;  // interior extent per rank and dimension
  static constexpr int kP = kN + 2;

  explicit Stencil2d(std::uint64_t seed)
      : seed_(seed), u_({kN, kN}, 1), next_(u_.size(), 0.0) {}

  void setup(const mpl::Comm& world) override {
    const int dims[] = {2, 2};
    const int periods[] = {1, 1};
    halo_ = stencil::HaloExchange(world, dims, periods, u_,
                                  stencil::HaloMode::alltoallw,
                                  Algorithm::combining);
  }

  void prepare(std::uint64_t /*op*/) override {
    if (!filled_) {
      for (int i = 1; i <= kN; ++i) {
        for (int j = 1; j <= kN; ++j) u_.at(i, j) = value(i, j);
      }
      filled_ = true;
    }
    // The interior is the same every op, so stale halos would pass the
    // oracle: poison them.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int k = 0; k < kP; ++k) {
      u_.at(0, k) = u_.at(kP - 1, k) = u_.at(k, 0) = u_.at(k, kP - 1) = nan;
    }
  }

  void run(Spans* spans) override {
    const double t0 = spans ? now_us() : 0.0;
    halo_.exchange();
    const double t1 = spans ? now_us() : 0.0;
    const double* u = u_.data();
    double* nx = next_.data();
    for (std::size_t i = 1; i <= kN; ++i) {
      for (std::size_t j = 1; j <= kN; ++j) {
        nx[i * kP + j] = 0.25 * (u[(i - 1) * kP + j] + u[(i + 1) * kP + j] +
                                 u[i * kP + j - 1] + u[i * kP + j + 1]);
      }
    }
    if (spans) {
      spans->exchange_us = t1 - t0;
      spans->compute_us = now_us() - t1;
    }
  }

  [[nodiscard]] bool check(std::uint64_t /*op*/) const override {
    bool ok = true;
    for (int k = 0; k < kP; ++k) {
      ok &= same(u_.at(0, k), value(0, k)) &&
            same(u_.at(kP - 1, k), value(kP - 1, k)) &&
            same(u_.at(k, 0), value(k, 0)) &&
            same(u_.at(k, kP - 1), value(k, kP - 1));
    }
    // The update of every cell next to a halo, against the closed form.
    for (int k = 1; k <= kN; ++k) {
      ok &= same(next(1, k), update(1, k)) && same(next(kN, k), update(kN, k)) &&
            same(next(k, 1), update(k, 1)) && same(next(k, kN), update(k, kN));
    }
    return ok;
  }

  [[nodiscard]] std::vector<CallLayers> layers() override {
    const CartNeighborComm& cc = halo_.cart();
    const Neighborhood& nb = cc.neighborhood();
    // The halo plan's blocks, rebuilt with the public box types: block i
    // ships the interior edge toward N[i] and fills the ghosts on the
    // -N[i] side (the layout HaloExchange documents).
    sends_.clear();
    recvs_.clear();
    std::vector<mpl::Datatype> stypes, rtypes;
    for (int i = 0; i < nb.count(); ++i) {
      int slo[2], shi[2], rlo[2], rhi[2];
      for (int k = 0; k < 2; ++k) {
        const int c = nb.coord(i, k);
        slo[k] = c > 0 ? kN : 1;
        shi[k] = c < 0 ? 2 : kN + 1;
        rlo[k] = c < 0 ? kN + 1 : (c > 0 ? 0 : 1);
        rhi[k] = c < 0 ? kP : (c > 0 ? 1 : kN + 1);
      }
      sends_.push_back({u_.data(), 1, u_.box(slo, shi)});
      recvs_.push_back({u_.data(), 1, u_.box(rlo, rhi)});
      stypes.push_back(sends_.back().type);
      rtypes.push_back(recvs_.back().type);
    }
    const std::vector<int> ones(sz(nb.count()), 1);
    const std::vector<std::ptrdiff_t> zero(sz(nb.count()), 0);
    replica_ = cartcomm::alltoallw_init(u_.data(), ones, zero, stypes,
                                        u_.data(), ones, zero, rtypes, cc,
                                        Algorithm::combining);
    const Schedule& s = replica_.schedule();
    if (s.rounds() != halo_.rounds() || s.send_bytes() != halo_.send_bytes()) {
      throw std::runtime_error(
          "stencil2d: rebuilt halo plan differs from HaloExchange's");
    }
    CallLayers c = schedule_layers(s, nb, recvs_);
    alltoall_plan_layers(c, cc, sends_, recvs_);
    c.execute = [this] { replica_.schedule().execute(halo_.cart().comm()); };
    return {std::move(c)};
  }

 private:
  static bool same(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  }

  /// Closed-form field value at padded (i, j) of this rank: a function of
  /// the global torus coordinate, so ghost cells equal the neighbor's cells.
  [[nodiscard]] double value(int i, int j) const {
    const std::span<const int> c = halo_.cart().coords();
    const int g = 2 * kN;
    const int gi = ((c[0] * kN + i - 1) % g + g) % g;
    const int gj = ((c[1] * kN + j - 1) % g + g) % g;
    return static_cast<double>(
        mix(seed_, {static_cast<std::uint64_t>(gi),
                    static_cast<std::uint64_t>(gj)}) &
        0xFFFF);
  }
  [[nodiscard]] double update(int i, int j) const {
    return 0.25 * (value(i - 1, j) + value(i + 1, j) + value(i, j - 1) +
                   value(i, j + 1));
  }
  [[nodiscard]] double next(int i, int j) const {
    return next_[sz(i) * kP + sz(j)];
  }

  std::uint64_t seed_;
  stencil::Field<double> u_;
  std::vector<double> next_;
  bool filled_ = false;
  stencil::HaloExchange halo_;
  // Layer view: the halo plan rebuilt on the same field.
  std::vector<SendBlock> sends_;
  std::vector<RecvBlock> recvs_;
  cartcomm::PersistentColl replica_;
};

// ---------------------------------------------------------------------------
// oneshot5d: alltoall, alltoallv and neighbor allreduce, d=5 n=3 stencil
// ---------------------------------------------------------------------------

class Oneshot5d final : public Workload {
 public:
  static constexpr int kT = 243;  // 3^5 neighbors, zero vector included

  Oneshot5d(std::uint64_t seed, int rank)
      : seed_(seed),
        rank_(rank),
        a_send_(kT),
        a_recv_(kT),
        v_send_(kT),
        v_recv_(kT),
        counts_(kT, 1),
        sdispls_(kT),
        rdispls_(kT) {
    for (int i = 0; i < kT; ++i) {
      sdispls_[sz(i)] = i;
      rdispls_[sz(i)] = kT - 1 - i;  // reversed: a genuinely displaced layout
    }
  }

  void setup(const mpl::Comm& world) override {
    const int dims[] = {1, 1, 1, 2, 2};
    const int periods[] = {1, 1, 1, 1, 1};
    cc_ = cartcomm::cart_neighborhood_create(world, dims, periods,
                                             Neighborhood::stencil(5, 3, -1));
    run(nullptr);  // the first call of each kind compiles and binds
  }

  void prepare(std::uint64_t op) override {
    for (int i = 0; i < kT; ++i) {
      a_send_[sz(i)] = value(op, rank_, i, 0);
      v_send_[sz(i)] = value(op, rank_, i, 1);
    }
    x_send_ = contribution(op, rank_);
    std::fill(a_recv_.begin(), a_recv_.end(), -1);
    std::fill(v_recv_.begin(), v_recv_.end(), -1);
    x_recv_ = -1;
  }

  void run(Spans* /*spans*/) override {
    const mpl::Datatype I = mpl::Datatype::of<int>();
    cartcomm::alltoall(a_send_.data(), 1, I, a_recv_.data(), 1, I, cc_);
    cartcomm::alltoallv(v_send_.data(), counts_, sdispls_, I, v_recv_.data(),
                        counts_, rdispls_, I, cc_);
    cartcomm::cart_neighbor_allreduce(&x_send_, &x_recv_, 1, I,
                                      mpl::ReduceOp::sum<int>(), cc_);
  }

  [[nodiscard]] bool check(std::uint64_t op) const override {
    bool ok = true;
    int sum = 0;
    for (int i = 0; i < kT; ++i) {
      const int src = cc_.source_ranks()[sz(i)];
      ok &= a_recv_[sz(i)] == value(op, src, i, 0) &&
            v_recv_[sz(kT - 1 - i)] == value(op, src, i, 1);
      sum += contribution(op, src);  // the neighbour-sum formula
    }
    return ok && x_recv_ == sum;
  }

  [[nodiscard]] std::vector<CallLayers> layers() override {
    const mpl::Datatype I = mpl::Datatype::of<int>();
    const Neighborhood& nb = cc_.neighborhood();
    a_sends_.clear();
    a_recvs_.clear();
    v_sends_.clear();
    v_recvs_.clear();
    for (int i = 0; i < kT; ++i) {
      a_sends_.push_back({&a_send_[sz(i)], 1, I});
      a_recvs_.push_back({&a_recv_[sz(i)], 1, I});
      v_sends_.push_back({&v_send_[sz(sdispls_[sz(i)])], 1, I});
      v_recvs_.push_back({&v_recv_[sz(rdispls_[sz(i)])], 1, I});
    }
    x_sends_ = {SendBlock{&x_send_, 1, I}};
    x_recv_block_ = RecvBlock{&x_recv_, 1, I};
    op_ = mpl::ReduceOp::sum<int>();
    a_sched_ = cartcomm::build_alltoall_schedule(cc_, a_sends_, a_recvs_);
    v_sched_ = cartcomm::build_alltoall_schedule(cc_, v_sends_, v_recvs_);
    // The allreduce is the combining neighbor reduce over the neighborhood
    // (which already holds the zero vector, so every rank contributes).
    x_sched_ = cartcomm::build_reduce_schedule(
        cc_, x_sends_, x_recv_block_, op_, cartcomm::ReduceVariant::reduce,
        true);

    std::vector<CallLayers> calls;
    calls.push_back(schedule_layers(a_sched_, nb, a_recvs_));
    alltoall_plan_layers(calls.back(), cc_, a_sends_, a_recvs_);
    calls.back().execute = [this] { a_sched_.execute(cc_.comm()); };

    calls.push_back(schedule_layers(v_sched_, nb, v_recvs_));
    alltoall_plan_layers(calls.back(), cc_, v_sends_, v_recvs_);
    calls.back().execute = [this] { v_sched_.execute(cc_.comm()); };

    // A reduction delivers the t contributions it folds into the result.
    const std::vector<RecvBlock> contributions(sz(kT), x_recv_block_);
    CallLayers x = schedule_layers(x_sched_, nb, contributions);
    x.key = [this] {
      return cartcomm::make_reduce_key(cc_, cartcomm::ReduceVariant::reduce,
                                       true, cartcomm::DimOrder::increasing_ck,
                                       x_sends_.front(), op_);
    };
    x.compile = [this] {
      return cartcomm::compile_reduce_plan(
          cc_, cartcomm::ReduceVariant::reduce, true,
          cartcomm::DimOrder::increasing_ck, sizeof(int), 1);
    };
    x.bind = [this](const cartcomm::CompiledPlan& p) {
      return p.bind(cc_, x_sends_, std::span(&x_recv_block_, 1), op_);
    };
    x.execute = [this] { x_sched_.execute(cc_.comm()); };
    calls.push_back(std::move(x));
    return calls;
  }

 private:
  [[nodiscard]] int value(std::uint64_t op, int rank, int i, int call) const {
    return static_cast<int>(
        mix(seed_, {op, static_cast<std::uint64_t>(rank),
                    static_cast<std::uint64_t>(i),
                    static_cast<std::uint64_t>(call)}) &
        0x3FFFFFFF);
  }
  /// Small enough that 243 contributions cannot overflow an int.
  [[nodiscard]] int contribution(std::uint64_t op, int rank) const {
    return value(op, rank, 0, 2) & 0xFFFFF;
  }

  std::uint64_t seed_;
  int rank_;
  CartNeighborComm cc_;
  std::vector<int> a_send_, a_recv_, v_send_, v_recv_;
  std::vector<int> counts_, sdispls_, rdispls_;
  int x_send_ = 0;
  int x_recv_ = 0;
  // Layer view: the three calls' blocks and bound schedules.
  std::vector<SendBlock> a_sends_, v_sends_, x_sends_;
  std::vector<RecvBlock> a_recvs_, v_recvs_;
  RecvBlock x_recv_block_;
  mpl::ReduceOp op_;
  Schedule a_sched_, v_sched_, x_sched_;
};

// ---------------------------------------------------------------------------
// bulk3d: persistent alltoall, 3-D Moore neighborhood, 64 KiB blocks
// ---------------------------------------------------------------------------

class Bulk3d final : public Workload {
 public:
  static constexpr int kT = 27;
  static constexpr int kElems = 16384;  // 64 KiB of uint32 per block

  Bulk3d(std::uint64_t seed, int rank)
      : seed_(seed),
        rank_(rank),
        send_(sz(kT) * kElems),
        recv_(sz(kT) * kElems) {}

  void setup(const mpl::Comm& world) override {
    const int dims[] = {1, 2, 2};
    const int periods[] = {1, 1, 1};
    cc_ = cartcomm::cart_neighborhood_create(world, dims, periods,
                                             Neighborhood::moore(3));
    const mpl::Datatype U = mpl::Datatype::of<std::uint32_t>();
    pc_ = cartcomm::alltoall_init(send_.data(), kElems, U, recv_.data(), kElems,
                                  U, cc_);
    if (pc_.algorithm() != Algorithm::trivial) {
      throw std::runtime_error("bulk3d: automatic no longer resolves to trivial");
    }
  }

  void prepare(std::uint64_t op) override {
    if (!filled_) {
      for (int i = 0; i < kT; ++i) {
        const std::uint32_t b = base(rank_, i);
        for (int e = 0; e < kElems; ++e) {
          send_[block(i) + sz(e)] = b + static_cast<std::uint32_t>(e);
        }
      }
      filled_ = true;
    }
    for (int i = 0; i < kT; ++i) send_[block(i)] = stamp(op, rank_, i);
    std::memset(recv_.data(), 0xFF, recv_.size() * sizeof(std::uint32_t));
  }

  void run(Spans* /*spans*/) override { pc_.execute(); }

  [[nodiscard]] bool check(std::uint64_t op) const override {
    bool ok = true;
    for (int i = 0; i < kT; ++i) {
      const int src = cc_.source_ranks()[sz(i)];
      const std::uint32_t* r = recv_.data() + block(i);
      const std::uint32_t b = base(src, i);
      ok &= r[0] == stamp(op, src, i);
      for (int e = 1; e < kElems; ++e) {
        ok &= r[e] == b + static_cast<std::uint32_t>(e);
      }
    }
    return ok;
  }

  [[nodiscard]] std::vector<CallLayers> layers() override {
    const mpl::Datatype U = mpl::Datatype::of<std::uint32_t>();
    const Neighborhood& nb = cc_.neighborhood();
    sends_.clear();
    recvs_.clear();
    for (int i = 0; i < kT; ++i) {
      sends_.push_back({send_.data() + block(i), kElems, U});
      recvs_.push_back({recv_.data() + block(i), kElems, U});
    }
    // The trivial algorithm (Listing 4): one blocking send-receive per
    // non-zero neighbor, then the self block by local copy. It has no
    // Schedule, so its structure is counted from the neighborhood.
    CallLayers c;
    for (int i = 0; i < kT; ++i) {
      const long long b = static_cast<long long>(recvs_[sz(i)].bytes());
      c.delivered_bytes += b;
      if (nb.nonzeros(i) == 0) {
        ++c.copies;
        c.local_bytes += b;
        continue;
      }
      ++c.rounds;
      ++c.send_blocks;
      c.send_bytes += static_cast<long long>(sends_[sz(i)].bytes());
      c.phases.push_back({Msg{cc_.target_ranks()[sz(i)],
                              cc_.source_ranks()[sz(i)], sends_[sz(i)].addr,
                              kElems, U, recvs_[sz(i)].addr, kElems, U}});
    }
    // The trivial path never reaches the plan layer, so the plan callbacks
    // stay empty and the plan replays report nothing for this op.
    c.execute = [this] { pc_.execute(); };
    return {std::move(c)};
  }

 private:
  static std::size_t block(int i) { return sz(i) * kElems; }
  [[nodiscard]] std::uint32_t base(int rank, int i) const {
    return static_cast<std::uint32_t>(
        mix(seed_, {static_cast<std::uint64_t>(rank),
                    static_cast<std::uint64_t>(i)}) &
        0x3FFFFFFF);
  }
  [[nodiscard]] std::uint32_t stamp(std::uint64_t op, int rank, int i) const {
    return static_cast<std::uint32_t>(
        mix(seed_, {op, static_cast<std::uint64_t>(rank),
                    static_cast<std::uint64_t>(i), 7}) &
        0x3FFFFFFF);
  }

  std::uint64_t seed_;
  int rank_;
  std::vector<std::uint32_t> send_, recv_;
  bool filled_ = false;
  CartNeighborComm cc_;
  cartcomm::PersistentColl pc_;
  std::vector<SendBlock> sends_;
  std::vector<RecvBlock> recvs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int rank) {
  if (name == "stencil2d") return std::make_unique<Stencil2d>(seed);
  if (name == "oneshot5d") return std::make_unique<Oneshot5d>(seed, rank);
  if (name == "bulk3d") return std::make_unique<Bulk3d>(seed, rank);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
