// Per-neighbor data block descriptors shared by the schedule builders and
// the public collective operations (Cartesian and neighborhood alike), and
// the one set of helpers that turns the regular, v and w argument forms of
// a collective into them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mpl/datatype.hpp"
#include "mpl/error.hpp"

namespace mpl {

/// One outgoing block: `count` elements of `type` at `addr`.
struct SendBlock {
  const void* addr = nullptr;
  int count = 0;
  Datatype type;

  [[nodiscard]] std::size_t bytes() const { return type.pack_size(count); }
};

/// One incoming block destination.
struct RecvBlock {
  void* addr = nullptr;
  int count = 0;
  Datatype type;

  [[nodiscard]] std::size_t bytes() const { return type.pack_size(count); }
};

namespace detail {
inline const char* at_bytes(const void* p, std::ptrdiff_t d) {
  return static_cast<const char*>(p) + d;
}
inline char* at_bytes(void* p, std::ptrdiff_t d) {
  return static_cast<char*>(p) + d;
}
}  // namespace detail

// Descriptor assembly for the regular, v and w variants: `Block` is
// SendBlock or RecvBlock, `Buf` the matching (const) buffer pointer.

/// Block i at element offset i*count, or every block at the buffer start
/// (`replicate`: the allgather send block).
template <typename Block, typename Buf>
std::vector<Block> blocks_regular(Buf buf, int count, const Datatype& type,
                                  int n, bool replicate = false) {
  std::vector<Block> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::ptrdiff_t disp =
        replicate ? 0 : static_cast<std::ptrdiff_t>(i) * count * type.extent();
    v[static_cast<std::size_t>(i)] = {detail::at_bytes(buf, disp), count, type};
  }
  return v;
}

/// Block i: counts[i] elements at element displacement displs[i].
template <typename Block, typename Buf>
std::vector<Block> blocks_v(Buf buf, std::span<const int> counts,
                            std::span<const int> displs, const Datatype& type) {
  std::vector<Block> v(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    v[i] = {detail::at_bytes(buf, displs[i] * type.extent()), counts[i], type};
  }
  return v;
}

/// Block i: counts[i] elements of types[i] at byte displacement displs[i].
template <typename Block, typename Buf>
std::vector<Block> blocks_w(Buf buf, std::span<const int> counts,
                            std::span<const std::ptrdiff_t> displs,
                            std::span<const Datatype> types) {
  MPL_REQUIRE(counts.size() == displs.size() && counts.size() == types.size(),
              "w-variant: argument arity mismatch");
  std::vector<Block> v(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    v[i] = {detail::at_bytes(buf, displs[i]), counts[i], types[i]};
  }
  return v;
}

}  // namespace mpl
