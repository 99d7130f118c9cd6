// Cartesian t-neighborhoods: ordered lists of d-dimensional relative
// coordinate vectors (Section 2 of the paper). A neighborhood is *Cartesian*
// when all processes supply the identical list; every algorithm in this
// library relies on that property.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

namespace cartcomm {

/// An ordered list of t relative coordinate vectors in d dimensions.
/// Repetitions are allowed; the zero vector denotes the process itself.
class Neighborhood {
 public:
  Neighborhood() = default;

  /// From a flattened t×d list of offsets (the Listing 1 convention).
  Neighborhood(int ndims, std::vector<int> flat);

  // -- factories for the paper's benchmark family ---------------------------

  /// The paper's test family (Section 4.1.1): all vectors whose coordinates
  /// lie in {f, f+1, ..., f+n-1}; t = n^d. With n = 3, f = -1 this is the
  /// Moore neighborhood (including the zero vector).
  static Neighborhood stencil(int d, int n, int f);

  /// Moore neighborhood of the given radius (includes the zero vector).
  static Neighborhood moore(int d, int radius = 1);

  /// Von Neumann neighborhood: the 2d unit offsets, optionally plus self.
  static Neighborhood von_neumann(int d, bool include_self = false);

  // -- basic queries ---------------------------------------------------------

  [[nodiscard]] int ndims() const noexcept { return d_; }
  /// Number of neighbors t (length of the list, repetitions included).
  [[nodiscard]] int count() const noexcept {
    return d_ == 0 ? 0 : static_cast<int>(flat_.size()) / d_;
  }
  [[nodiscard]] std::span<const int> offset(int i) const {
    return {flat_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
            static_cast<std::size_t>(d_)};
  }
  [[nodiscard]] int coord(int i, int k) const {
    return flat_[static_cast<std::size_t>(i) * static_cast<std::size_t>(d_) +
                 static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::span<const int> flat() const noexcept { return flat_; }

  friend bool operator==(const Neighborhood&, const Neighborhood&) = default;

  // -- structural statistics (Propositions 3.2 / 3.3) -----------------------

  /// z_i: number of non-zero coordinates of neighbor i (its hop count).
  [[nodiscard]] int nonzeros(int i) const;

  /// C_k for one dimension: the number of distinct *non-zero* k-th
  /// coordinates (= communication rounds of phase k).
  [[nodiscard]] int distinct_nonzero(int k) const;

  /// All C_k values.
  [[nodiscard]] std::vector<int> distinct_nonzero_per_dim() const;

  /// C = sum over k of C_k: rounds of the message-combining schedules.
  [[nodiscard]] int combining_rounds() const;

  /// Rounds of the trivial algorithm: non-zero vectors, with multiplicity.
  [[nodiscard]] int trivial_rounds() const;

  [[nodiscard]] bool contains_zero_vector() const;

  /// Per-process alltoall message-combining volume V = sum z_i (Prop. 3.2).
  [[nodiscard]] long long alltoall_volume() const;

  /// Indices of the neighborhood sorted stably by the k-th coordinate
  /// (counting sort over the coordinate range; O(t + range)).
  [[nodiscard]] std::vector<int> order_by_dim(int k) const;

 private:
  int d_ = 0;
  std::vector<int> flat_;
};

/// Calls place(x, p) for every position p of `keys`, x being p's rank in
/// stable key order: a counting sort, O(n + range), that takes a run of
/// equal keys at once (a long run does not serialize on one counter), or
/// a comparison sort when the range is degenerate.
template <typename Place>
void stable_order(std::span<const int> keys, Place&& place) {
  const std::size_t n = keys.size();
  if (n == 0) return;
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  if (static_cast<long long>(*hi) - *lo > 4 * static_cast<long long>(n) + 64) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    for (std::size_t x = 0; x < n; ++x) place(x, order[x]);
    return;
  }
  auto for_each_run = [&](auto&& f) {
    for (std::size_t p = 0, q = 1; p < n; p = q++) {
      while (q < n && keys[q] == keys[p]) ++q;
      f(p, q, static_cast<std::size_t>(keys[p] - *lo));
    }
  };
  std::vector<std::size_t> next(static_cast<std::size_t>(*hi - *lo) + 2, 0);
  for_each_run([&](std::size_t p, std::size_t q, std::size_t v) { next[v + 1] += q - p; });
  std::partial_sum(next.begin(), next.end(), next.begin());
  for_each_run([&](std::size_t p, std::size_t q, std::size_t v) {
    std::size_t x = next[v];
    for (; p < q; ++p) place(x++, p);
    next[v] = x;
  });
}

}  // namespace cartcomm
