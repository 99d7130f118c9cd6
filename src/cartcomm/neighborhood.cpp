#include "cartcomm/neighborhood.hpp"

#include <algorithm>

#include "mpl/error.hpp"

namespace cartcomm {

Neighborhood::Neighborhood(int ndims, std::vector<int> flat)
    : d_(ndims), flat_(std::move(flat)) {
  MPL_REQUIRE(ndims >= 1, "Neighborhood: need at least one dimension");
  MPL_REQUIRE(flat_.size() % static_cast<std::size_t>(ndims) == 0,
              "Neighborhood: flattened offset list length must be a multiple "
              "of the dimension");
}

Neighborhood Neighborhood::stencil(int d, int n, int f) {
  MPL_REQUIRE(d >= 1 && n >= 1, "stencil: need d >= 1, n >= 1");
  std::vector<int> flat;
  long long t = 1;
  for (int k = 0; k < d; ++k) t *= n;
  flat.reserve(static_cast<std::size_t>(t) * static_cast<std::size_t>(d));
  std::vector<int> v(static_cast<std::size_t>(d), 0);
  // Odometer enumeration of the full cross product {f..f+n-1}^d.
  for (long long i = 0; i < t; ++i) {
    long long x = i;
    for (int k = d - 1; k >= 0; --k) {
      v[static_cast<std::size_t>(k)] = f + static_cast<int>(x % n);
      x /= n;
    }
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return Neighborhood(d, std::move(flat));
}

Neighborhood Neighborhood::moore(int d, int radius) {
  return stencil(d, 2 * radius + 1, -radius);
}

Neighborhood Neighborhood::von_neumann(int d, bool include_self) {
  std::vector<int> flat;
  if (include_self) flat.insert(flat.end(), static_cast<std::size_t>(d), 0);
  for (int k = 0; k < d; ++k) {
    for (int s : {-1, +1}) {
      std::vector<int> v(static_cast<std::size_t>(d), 0);
      v[static_cast<std::size_t>(k)] = s;
      flat.insert(flat.end(), v.begin(), v.end());
    }
  }
  return Neighborhood(d, std::move(flat));
}

int Neighborhood::nonzeros(int i) const {
  int z = 0;
  for (int c : offset(i)) z += (c != 0);
  return z;
}

int Neighborhood::distinct_nonzero(int k) const {
  int lo = 0;
  int hi = 0;
  for (int i = 0; i < count(); ++i) {
    lo = std::min(lo, coord(i, k));
    hi = std::max(hi, coord(i, k));
  }
  if (static_cast<long long>(hi) - lo > 4 * static_cast<long long>(count()) + 64) {
    std::vector<int> values;  // a degenerate coordinate range: sort
    for (int i = 0; i < count(); ++i) values.push_back(coord(i, k));
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return static_cast<int>(values.size()) - std::binary_search(values.begin(), values.end(), 0);
  }
  int values = 0;
  std::vector<char> seen(static_cast<std::size_t>(hi - lo) + 1, 0);
  for (int i = 0; i < count(); ++i) {
    char& m = seen[static_cast<std::size_t>(coord(i, k) - lo)];
    values += m == 0;
    m = 1;
  }
  return values - seen[static_cast<std::size_t>(-lo)];  // zero is no round
}

std::vector<int> Neighborhood::distinct_nonzero_per_dim() const {
  std::vector<int> ck(static_cast<std::size_t>(d_));
  for (int k = 0; k < d_; ++k) ck[static_cast<std::size_t>(k)] = distinct_nonzero(k);
  return ck;
}

int Neighborhood::combining_rounds() const {
  int c = 0;
  for (int k = 0; k < d_; ++k) c += distinct_nonzero(k);
  return c;
}

int Neighborhood::trivial_rounds() const {
  int r = 0;
  for (int i = 0; i < count(); ++i) r += (nonzeros(i) > 0);
  return r;
}

bool Neighborhood::contains_zero_vector() const {
  for (int i = 0; i < count(); ++i) {
    if (nonzeros(i) == 0) return true;
  }
  return false;
}

long long Neighborhood::alltoall_volume() const {
  long long v = 0;
  for (int i = 0; i < count(); ++i) v += nonzeros(i);
  return v;
}

std::vector<int> Neighborhood::order_by_dim(int k) const {
  std::vector<int> column(static_cast<std::size_t>(count()));
  for (int i = 0; i < count(); ++i) column[static_cast<std::size_t>(i)] = coord(i, k);
  std::vector<int> order(column.size());
  stable_order(column, [&](std::size_t x, std::size_t p) {
    order[x] = static_cast<int>(p);
  });
  return order;
}

}  // namespace cartcomm
