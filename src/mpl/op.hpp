// Type-erased reduction operators for the reducing Cartesian collectives.
//
// A ReduceOp folds arrays of fixed-size elements in place. Built-in ops
// (sum/prod/min/max/bit ops) carry an identity element and a deterministic
// digest so structurally equal plans are shared through the plan cache;
// user-defined ops get a process-unique digest (two distinct user ops never
// alias each other in the bound-schedule cache, at the cost of one compiled
// plan per op instance).
//
// Commutativity matters for algorithm selection only: the message-combining
// reduction tree reassociates and reorders contributions, so non-commutative
// ops are restricted to the trivial (fixed neighbor-order) algorithm.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mpl/error.hpp"

namespace mpl {

class ReduceOp {
 public:
  /// fold(acc, in, count): acc[j] = op(acc[j], in[j]) element-wise.
  using FoldFn = std::function<void(void*, const void*, int)>;

  ReduceOp() = default;

  [[nodiscard]] bool valid() const noexcept { return st_ != nullptr; }

  /// Element-wise in-place combination of `count` elements.
  void fold(void* acc, const void* in, int count) const {
    st_->fold(acc, in, count);
  }

  [[nodiscard]] bool has_identity() const noexcept {
    return st_ && !st_->identity.empty();
  }

  /// Fill `count` elements at dst with the identity element. Used when a
  /// process has zero valid contributions (e.g. every source falls off a
  /// non-periodic mesh edge).
  void fill_identity(void* dst, int count) const {
    MPL_REQUIRE(has_identity(),
                "ReduceOp::fill_identity: op '" + name() + "' has no identity");
    const std::size_t e = st_->elem;
    auto* p = static_cast<std::byte*>(dst);
    for (int j = 0; j < count; ++j)
      std::memcpy(p + static_cast<std::size_t>(j) * e, st_->identity.data(), e);
  }

  [[nodiscard]] bool commutative() const noexcept {
    return st_ && st_->commutative;
  }
  [[nodiscard]] std::size_t elem_size() const noexcept {
    return st_ ? st_->elem : 0;
  }
  [[nodiscard]] const std::string& name() const noexcept {
    static const std::string kNone = "<none>";
    return st_ ? st_->name : kNone;
  }
  /// Cache digest. Deterministic across processes for built-in ops;
  /// process-unique for user ops (see header comment).
  [[nodiscard]] std::uint64_t digest() const noexcept {
    return st_ ? st_->digest : 0;
  }

  // -- built-in factories ----------------------------------------------------

  template <typename T>
  static ReduceOp sum() {
    return builtin<T>("sum", [](T a, T b) { return static_cast<T>(a + b); },
                      T{0});
  }
  template <typename T>
  static ReduceOp prod() {
    return builtin<T>("prod", [](T a, T b) { return static_cast<T>(a * b); },
                      T{1});
  }
  template <typename T>
  static ReduceOp min() {
    return builtin<T>("min", [](T a, T b) { return b < a ? b : a; },
                      std::numeric_limits<T>::max());
  }
  template <typename T>
  static ReduceOp max() {
    return builtin<T>("max", [](T a, T b) { return a < b ? b : a; },
                      std::numeric_limits<T>::lowest());
  }
  template <typename T>
  static ReduceOp bit_or() {
    static_assert(std::is_integral_v<T>);
    return builtin<T>("bor", [](T a, T b) { return static_cast<T>(a | b); },
                      T{0});
  }
  template <typename T>
  static ReduceOp bit_and() {
    static_assert(std::is_integral_v<T>);
    return builtin<T>("band", [](T a, T b) { return static_cast<T>(a & b); },
                      static_cast<T>(~T{0}));
  }

  /// User-defined op over a trivially copyable element type. `f` is any
  /// T(T, T) callable; pass `commutative = false` to force the trivial
  /// (fixed combine order) algorithm. The identity overload enables
  /// identity-fill on processes with zero contributions; without one such
  /// processes fail at execution time.
  template <typename T, typename F>
  static ReduceOp make(std::string name, F f, bool commutative) {
    return make_impl<T>(std::move(name), std::move(f), commutative, nullptr);
  }
  template <typename T, typename F>
  static ReduceOp make(std::string name, F f, bool commutative, T identity) {
    return make_impl<T>(std::move(name), std::move(f), commutative, &identity);
  }

 private:
  struct State {
    FoldFn fold;
    std::vector<std::byte> identity;  // empty = no identity
    std::size_t elem = 0;
    bool commutative = true;
    std::string name;
    std::uint64_t digest = 0;
  };

  static std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
    return h;
  }

  static std::uint64_t state_digest(const State& st, std::uint64_t salt) {
    std::uint64_t h = 1469598103934665603ull;
    h = fnv(h, st.name.data(), st.name.size());
    const std::uint64_t e = st.elem;
    h = fnv(h, &e, sizeof(e));
    const std::uint8_t c = st.commutative ? 1 : 0;
    h = fnv(h, &c, sizeof(c));
    if (!st.identity.empty()) h = fnv(h, st.identity.data(), st.identity.size());
    h = fnv(h, &salt, sizeof(salt));
    return h == 0 ? 1 : h;
  }

  template <typename T>
  static std::string type_tag() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::string t(1, std::is_floating_point_v<T> ? 'f'
                     : std::is_integral_v<T>
                         ? (std::is_signed_v<T> ? 'i' : 'u')
                         : 'x');
    t += std::to_string(sizeof(T));
    return t;
  }

  template <typename T, typename F>
  static ReduceOp builtin(const char* base, F f, T identity) {
    auto st = std::make_shared<State>();
    st->fold = typed_fold<T>(std::move(f));
    st->identity.resize(sizeof(T));
    std::memcpy(st->identity.data(), &identity, sizeof(T));
    st->elem = sizeof(T);
    st->commutative = true;
    st->name = base;
    st->name += '.';
    st->name += type_tag<T>();
    st->digest = state_digest(*st, /*salt=*/0);
    ReduceOp op;
    op.st_ = std::move(st);
    return op;
  }

  template <typename T, typename F>
  static ReduceOp make_impl(std::string name, F f, bool commutative,
                            const T* identity) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto st = std::make_shared<State>();
    st->fold = typed_fold<T>(std::move(f));
    if (identity != nullptr) {
      st->identity.resize(sizeof(T));
      std::memcpy(st->identity.data(), identity, sizeof(T));
    }
    st->elem = sizeof(T);
    st->commutative = commutative;
    st->name = std::move(name) + "." + type_tag<T>();
    // Process-unique salt: the fold function itself cannot be hashed, so two
    // user ops must never share a digest (the bound-schedule cache embeds the
    // op).
    static std::atomic<std::uint64_t> next{1};
    st->digest = state_digest(*st, next.fetch_add(1, std::memory_order_relaxed));
    ReduceOp op;
    op.st_ = std::move(st);
    return op;
  }

  template <typename T, typename F>
  static FoldFn typed_fold(F f) {
    return [f = std::move(f)](void* acc, const void* in, int count) {
      auto* a = static_cast<T*>(acc);
      const auto* b = static_cast<const T*>(in);
      for (int j = 0; j < count; ++j) a[j] = f(a[j], b[j]);
    };
  }

  std::shared_ptr<const State> st_;
};

}  // namespace mpl
