// CompiledPlan binding, cache keys, and the process-global sharded plan
// cache (see plan.hpp for the design overview).
#include "cartcomm/plan.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "mpl/annotations.hpp"
#include "mpl/checked.hpp"
#include "mpl/error.hpp"
#include "telemetry/plan_cache.hpp"

namespace cartcomm {

// -- binding -----------------------------------------------------------------

Schedule CompiledPlan::bind(const CartNeighborComm& cc,
                            std::span<const SendBlock> sends,
                            std::span<const RecvBlock> recvs) const {
  MPL_REQUIRE(folds_.empty(),
              "CompiledPlan::bind: reducing plan bound without an op");
  return bind_impl(cc, sends, recvs, nullptr);
}

Schedule CompiledPlan::bind(const CartNeighborComm& cc,
                            std::span<const SendBlock> sends,
                            std::span<const RecvBlock> recvs,
                            const mpl::ReduceOp& op) const {
  MPL_REQUIRE(op.valid(), "CompiledPlan::bind: invalid reduce op");
  return bind_impl(cc, sends, recvs, &op);
}

Schedule CompiledPlan::bind_impl(const CartNeighborComm& cc,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs,
                                 const mpl::ReduceOp* op) const {
  const mpl::CartGrid& grid = cc.grid();
  const std::span<const int> R = cc.coords();

  ScheduleBuilder builder;
  builder.set_grid(grid);
  builder.reserve(phase_rounds_.size(), rounds_.size(), R.size());
  std::byte* temp = builder.allocate_temp(temp_bytes_);

  auto append = [&](mpl::TypeBuilder& tb, const PlanPlacement& p) {
    switch (p.kind) {
      case PlanPlacement::Kind::send_block: {
        const std::size_t ui = static_cast<std::size_t>(p.index);
        tb.append(sends[ui].addr, sends[ui].count, sends[ui].type);
        break;
      }
      case PlanPlacement::Kind::recv_block: {
        const std::size_t ui = static_cast<std::size_t>(p.index);
        tb.append(recvs[ui].addr, recvs[ui].count, recvs[ui].type);
        break;
      }
      case PlanPlacement::Kind::temp:
        tb.append_bytes(temp + p.offset, p.bytes);
        break;
    }
  };

  std::size_t ri = 0;
  std::vector<int> neg;
  for (const int phase_count : phase_rounds_) {
    for (int x = 0; x < phase_count; ++x, ++ri) {
      const PlanRound& r = rounds_[ri];
      mpl::TypeBuilder sb, rb;
      sb.reserve(r.send_items.size());
      rb.reserve(r.recv_items.size());
      for (const PlanPlacement& p : r.send_items) append(sb, p);
      for (const PlanPlacement& p : r.recv_items) append(rb, p);
      const int sendrank = grid.rank_at_offset(R, r.offset);
      neg.assign(r.offset.begin(), r.offset.end());
      for (int& v : neg) v = -v;
      const int recvrank = grid.rank_at_offset(R, neg);
      // rank_at_offset yields PROC_NULL exactly when the offset leaves a
      // non-periodic mesh, so a null partner here is a provable boundary.
      builder.add_round({sendrank, recvrank, sb.build(), rb.build(), r.offset,
                         sendrank == mpl::PROC_NULL,
                         recvrank == mpl::PROC_NULL, r.reduce},
                        r.blocks_sent);
    }
    builder.end_phase();
  }
  mpl::TypeBuilder csb, crb;  // one local copy moves every recorded pair
  for (const PlanCopy& c : copies_) {
    append(csb, c.src);
    append(crb, c.dst);
  }
  if (!copies_.empty()) builder.add_copy({csb.build(), crb.build()});
  if (op != nullptr) {
    // Resolve the fold program against the same buffers. The reduce entry
    // points guarantee dense block layouts whose byte size is a multiple
    // of the op element, so a placement resolves to its base address.
    auto addr_of = [&](const PlanPlacement& p) -> void* {
      switch (p.kind) {
        case PlanPlacement::Kind::send_block:
          return const_cast<void*>(sends[static_cast<std::size_t>(p.index)].addr);
        case PlanPlacement::Kind::recv_block:
          return recvs[static_cast<std::size_t>(p.index)].addr;
        case PlanPlacement::Kind::temp:
          return temp + p.offset;
      }
      return nullptr;
    };
    builder.set_op(*op);
    for (const PlanFold& f : folds_) {
      ScheduleFold sf;
      sf.dst = addr_of(f.dst);
      sf.src = f.identity ? nullptr : addr_of(f.src);
      sf.count = f.count;
      sf.phase = f.phase;
      sf.init = f.init;
      builder.add_fold(sf);
    }
  }
  return builder.finish();
}

// -- cache keys --------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Structural digest of a block descriptor: element count plus the
/// datatype's flattened shape (lb, extent, and every (disp, len) block).
/// Addresses are not part of it.
std::int64_t type_digest(const mpl::Datatype& type, int count) {
  std::uint64_t h = kFnvOffset;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
  };
  mix(static_cast<std::uint64_t>(count));
  mix(static_cast<std::uint64_t>(type.lb()));
  mix(static_cast<std::uint64_t>(type.extent()));
  for (const mpl::TypeBlock& b : type.blocks()) {
    mix(static_cast<std::uint64_t>(b.disp));
    mix(static_cast<std::uint64_t>(b.len));
  }
  return static_cast<std::int64_t>(h);
}

/// Everything all collectives share: topology, position class, and the
/// neighborhood itself; common_words() words.
void append_common(std::vector<std::int64_t>& w, const CartNeighborComm& cc) {
  const mpl::CartGrid& g = cc.grid();
  const Neighborhood& nb = cc.neighborhood();
  const int d = nb.ndims();
  const int t = nb.count();
  w.push_back(d);
  for (int j = 0; j < d; ++j) {
    w.push_back(g.dims()[static_cast<std::size_t>(j)]);
    w.push_back(g.periodic(j) ? 1 : 0);
  }
  for (const int s : cc.boundary_signature()) w.push_back(s);
  w.push_back(t);
  for (const int c : nb.flat()) w.push_back(c);
}

std::size_t common_words(const CartNeighborComm& cc) {
  const auto d = static_cast<std::size_t>(cc.neighborhood().ndims());
  const auto t = static_cast<std::size_t>(cc.neighborhood().count());
  return 2 + 4 * d + t * d;
}

PlanKey seal(std::vector<std::int64_t> w) {
  PlanKey key;
  key.words = std::move(w);
  std::uint64_t h = kFnvOffset;
  for (const std::int64_t x : key.words) {
    h ^= static_cast<std::uint64_t>(x);
    h *= kFnvPrime;
  }
  key.hash = static_cast<std::size_t>(h);
  return key;
}

}  // namespace

PlanKey make_alltoall_key(const CartNeighborComm& cc,
                          std::span<const SendBlock> sends,
                          std::span<const RecvBlock> recvs) {
  std::vector<std::int64_t> w;
  w.reserve(1 + common_words(cc) + 3 * sends.size());
  w.push_back(1);  // collective kind: alltoall
  append_common(w, cc);
  for (std::size_t i = 0; i < sends.size(); ++i) {
    w.push_back(static_cast<std::int64_t>(sends[i].bytes()));
    w.push_back(type_digest(sends[i].type, sends[i].count));
    w.push_back(type_digest(recvs[i].type, recvs[i].count));
  }
  return seal(std::move(w));
}

PlanKey make_allgather_key(const CartNeighborComm& cc, const SendBlock& send,
                           std::span<const RecvBlock> recvs, DimOrder order) {
  std::vector<std::int64_t> w;
  w.reserve(4 + common_words(cc) + recvs.size());
  w.push_back(2);  // collective kind: allgather
  append_common(w, cc);
  w.push_back(static_cast<std::int64_t>(order));
  w.push_back(static_cast<std::int64_t>(send.bytes()));
  w.push_back(type_digest(send.type, send.count));
  for (const RecvBlock& r : recvs) w.push_back(type_digest(r.type, r.count));
  return seal(std::move(w));
}

PlanKey make_reduce_key(const CartNeighborComm& cc, ReduceVariant variant,
                        bool combining, DimOrder order, const SendBlock& send,
                        const mpl::ReduceOp& op) {
  std::vector<std::int64_t> w;
  w.reserve(7 + common_words(cc));
  w.push_back(4);  // collective kind: reduction family
  append_common(w, cc);
  w.push_back(static_cast<std::int64_t>(variant));
  w.push_back(combining ? 1 : 0);
  w.push_back(static_cast<std::int64_t>(order));
  w.push_back(static_cast<std::int64_t>(send.bytes()));
  w.push_back(type_digest(send.type, send.count));
  w.push_back(static_cast<std::int64_t>(op.elem_size()));
  return seal(std::move(w));
}

// -- the cache ---------------------------------------------------------------

namespace {

struct CacheEntry {
  /// Null while the first caller to miss this key is still compiling it;
  /// other callers wait on the shard's cv_ instead of compiling again.
  std::shared_ptr<const CompiledPlan> plan;
  std::uint64_t tick = 0;  // last-touch stamp for approximate LRU
};

struct KeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept { return k.hash; }
};

struct PlanCacheShard {
  mpl::detail::PlanCacheMutex mtx_;
  /// Signalled whenever an in-progress entry is filled or abandoned.
  mpl::detail::CheckedCondVar cv_;
  std::unordered_map<PlanKey, CacheEntry, KeyHash> map_ MPL_GUARDED_BY(mtx_);
};

constexpr std::size_t kShards = 8;

// Function-local static: init-order safe (first lookup constructs it) and
// never destroyed order-sensitively before last use within main().
std::array<PlanCacheShard, kShards>& shards() {
  static std::array<PlanCacheShard, kShards> s;
  return s;
}

PlanCacheShard& shard_for(std::size_t hash) { return shards()[hash % kShards]; }

std::atomic<std::uint64_t>& tick_source() {
  static std::atomic<std::uint64_t> t{0};
  return t;
}

bool env_flag(const char* name, bool fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  const std::string v(e);
  return !(v == "0" || v == "false" || v == "off" || v == "no");
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(e, &end, 10);
  if (end == e) return fallback;
  return static_cast<std::size_t>(v);
}

// Environment is read once at first use; the programmatic setters below
// overwrite these atomics, so they always win over the environment.
struct CacheConfig {
  std::atomic<bool> enabled;
  std::atomic<std::size_t> cap;

  CacheConfig()
      : enabled(env_flag("MPL_PLAN_CACHE", true)),
        cap(env_size("MPL_PLAN_CACHE_CAP", 256)) {}
};

CacheConfig& config() {
  static CacheConfig c;
  return c;
}

std::size_t per_shard_cap() {
  const std::size_t cap = config().cap.load(std::memory_order_relaxed);
  if (cap == 0) return 0;  // unbounded
  return (cap + kShards - 1) / kShards;
}

}  // namespace

bool plan_cache_enabled() {
  return config().enabled.load(std::memory_order_relaxed);
}

void plan_cache_set_enabled(bool on) {
  config().enabled.store(on, std::memory_order_relaxed);
}

std::size_t plan_cache_cap() {
  return config().cap.load(std::memory_order_relaxed);
}

void plan_cache_set_cap(std::size_t cap) {
  config().cap.store(cap, std::memory_order_relaxed);
}

std::shared_ptr<const CompiledPlan> plan_cache_lookup(const PlanKey& key) {
  if (!plan_cache_enabled()) return nullptr;  // bypass: not counted
  PlanCacheShard& sh = shard_for(key.hash);
  mpl::detail::CheckedLock lock(sh.mtx_);
  auto it = sh.map_.find(key);
  if (it == sh.map_.end() || !it->second.plan) {
    telemetry::on_plan_cache_miss();
    return nullptr;
  }
  it->second.tick =
      tick_source().fetch_add(1, std::memory_order_relaxed) + 1;
  telemetry::on_plan_cache_hit();
  return it->second.plan;
}

PlanClaim plan_cache_claim(const PlanKey& key) {
  if (!plan_cache_enabled()) return {};  // bypass: not counted
  PlanCacheShard& sh = shard_for(key.hash);
  mpl::detail::CheckedLock lock(sh.mtx_);
  auto it = sh.map_.end();
  // Another caller is compiling this key: wait for its plan. An abandoned
  // compile erases the entry, and the first waiter to see that claims the
  // key for itself below.
  sh.cv_.wait(lock, [&]() MPL_REQUIRES(sh.mtx_) {
    it = sh.map_.find(key);
    return it == sh.map_.end() || it->second.plan != nullptr;
  });
  if (it == sh.map_.end()) {
    sh.map_.try_emplace(key);  // in progress: this caller compiles
    telemetry::on_plan_cache_miss();
    return {nullptr, true};
  }
  it->second.tick = tick_source().fetch_add(1, std::memory_order_relaxed) + 1;
  telemetry::on_plan_cache_hit();
  return {it->second.plan, false};
}

std::shared_ptr<const CompiledPlan> plan_cache_publish(const PlanKey& key,
                                                       CompiledPlan&& plan) {
  auto sp = std::make_shared<const CompiledPlan>(std::move(plan));
  PlanCacheShard& sh = shard_for(key.hash);
  {
    mpl::detail::CheckedLock lock(sh.mtx_);
    auto it = sh.map_.find(key);
    // The entry is gone only if plan_cache_clear() ran meanwhile: hand the
    // plan to this caller alone.
    if (it == sh.map_.end()) return sp;
    if (it->second.plan) return it->second.plan;  // refilled after a clear
    it->second.plan = sp;
    it->second.tick = tick_source().fetch_add(1, std::memory_order_relaxed) + 1;
    telemetry::on_plan_cache_insert();
    const std::size_t cap = per_shard_cap();
    while (cap != 0 && sh.map_.size() > cap) {
      auto victim = sh.map_.end();
      for (auto e = sh.map_.begin(); e != sh.map_.end(); ++e) {
        // Never evict the plan being published or a compile in progress.
        if (e == it || !e->second.plan) continue;
        if (victim == sh.map_.end() || e->second.tick < victim->second.tick) {
          victim = e;
        }
      }
      if (victim == sh.map_.end()) break;
      sh.map_.erase(victim);
      telemetry::on_plan_cache_evict();
    }
  }
  sh.cv_.notify_all();
  return sp;
}

void plan_cache_abandon(const PlanKey& key) {
  PlanCacheShard& sh = shard_for(key.hash);
  {
    mpl::detail::CheckedLock lock(sh.mtx_);
    auto it = sh.map_.find(key);
    if (it != sh.map_.end() && !it->second.plan) sh.map_.erase(it);
  }
  sh.cv_.notify_all();
}

std::size_t plan_cache_size() {
  std::size_t n = 0;
  for (PlanCacheShard& sh : shards()) {
    mpl::detail::CheckedLock lock(sh.mtx_);
    for (const auto& [key, e] : sh.map_) n += e.plan ? 1 : 0;
  }
  return n;
}

void plan_cache_clear() {
  std::uint64_t dropped = 0;
  for (PlanCacheShard& sh : shards()) {
    {
      mpl::detail::CheckedLock lock(sh.mtx_);
      for (const auto& [key, e] : sh.map_) dropped += e.plan ? 1 : 0;
      sh.map_.clear();
    }
    sh.cv_.notify_all();  // waiters on a cleared compile claim the key
  }
  telemetry::on_plan_cache_drop(dropped);
}

}  // namespace cartcomm
