// Type-erased reduction operators: the one op type that every reduction
// takes, the rank reductions (reduce.hpp) and the Cartesian ones alike.
//
// A ReduceOp folds arrays of fixed-size elements in place. Built-in ops
// are one shared instance per (op, element type) with an identity element
// and a deterministic digest; user-defined ops get a process-unique digest,
// so two user ops never alias in a one-shot slot (cartcomm/coll.hpp).
// Compiled plans key on the element size alone and are shared by every op.
//
// Commutativity matters for algorithm selection only: the binomial rank
// reductions and the combining Cartesian reduction reorder contributions,
// so non-commutative ops run only in the rank-order scans and the trivial
// (fixed neighbor-order) Cartesian algorithm.
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
  ReduceOp() = default;

  [[nodiscard]] bool valid() const noexcept { return st_ != nullptr; }

  /// Element-wise in place: acc[j] = op(acc[j], in[j]) for j < count.
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
  template <typename T>
  static ReduceOp logical_or() {
    return builtin<T>("lor", [](T a, T b) { return static_cast<T>(a || b); },
                      T{0});
  }
  template <typename T>
  static ReduceOp logical_and() {
    return builtin<T>("land", [](T a, T b) { return static_cast<T>(a && b); },
                      T{1});
  }

  /// User-defined op over a trivially copyable element type. `f` is any
  /// T(T, T) callable; pass `commutative = false` for an op whose operands
  /// must keep their order: it then runs only in the rank-order scans and
  /// the trivial (fixed neighbor-order) Cartesian algorithm. The identity
  /// overload enables identity-fill on processes with zero contributions;
  /// without one such processes fail at execution time.
  template <typename T, typename F>
  static ReduceOp make(std::string name, F f, bool commutative) {
    return build<T>(std::move(name), std::move(f), commutative, nullptr,
                    user_salt());
  }
  template <typename T, typename F>
  static ReduceOp make(std::string name, F f, bool commutative, T identity) {
    return build<T>(std::move(name), std::move(f), commutative, &identity,
                    user_salt());
  }

 private:
  struct State {
    std::function<void(void*, const void*, int)> fold;
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
    const char kind = std::is_floating_point_v<T> ? 'f'
                      : !std::is_integral_v<T>    ? 'x'
                      : std::is_signed_v<T>       ? 'i'
                                                  : 'u';
    return kind + std::to_string(sizeof(T));
  }

  // Every factory passes its own lambda, so each (factory, T) pair
  // instantiates builtin once and builds its shared instance once.
  template <typename T, typename F>
  static ReduceOp builtin(const char* base, F f, T identity) {
    static const ReduceOp shared =
        build<T>(base, std::move(f), /*commutative=*/true, &identity,
                 /*salt=*/0);
    return shared;
  }

  // Process-unique salt of a user op: the fold function itself cannot be
  // hashed, so two user ops must never share a digest (a one-shot slot's
  // schedule embeds the op).
  static std::uint64_t user_salt() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  template <typename T, typename F>
  static ReduceOp build(std::string name, F f, bool commutative,
                        const T* identity, std::uint64_t salt) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto st = std::make_shared<State>();
    st->fold = [f = std::move(f)](void* acc, const void* in, int count) {
      auto* a = static_cast<T*>(acc);
      const auto* b = static_cast<const T*>(in);
      for (int j = 0; j < count; ++j) a[j] = f(a[j], b[j]);
    };
    if (identity != nullptr) {
      const auto* id = reinterpret_cast<const std::byte*>(identity);
      st->identity.assign(id, id + sizeof(T));
    }
    st->elem = sizeof(T);
    st->commutative = commutative;
    st->name = std::move(name) + "." + type_tag<T>();
    st->digest = state_digest(*st, salt);
    ReduceOp op;
    op.st_ = std::move(st);
    return op;
  }

  std::shared_ptr<const State> st_;
};

}  // namespace mpl
