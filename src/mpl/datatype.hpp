// Derived-datatype engine, modeled on MPI derived datatypes.
//
// A Datatype is an immutable description of a (possibly non-contiguous)
// memory layout, represented canonically as an ordered list of
// (displacement, length) byte blocks relative to a base address, plus a
// lower bound and an extent. The usual MPI constructors are provided
// (contiguous, vector, hvector, indexed, indexed_block, hindexed, struct,
// resized), as well as a TypeBuilder that appends absolute-address blocks
// the way Algorithm 1 of the paper appends blocks to a send/receive type
// ("TypeApp"); such types are used with mpl::BOTTOM as the buffer address,
// exactly like MPI_BOTTOM in Listing 5 of the paper.
//
// The block list is computed eagerly at construction (datatypes in this
// library describe stencil halos and schedule rounds, i.e. hundreds to a
// few thousand blocks), so pack/unpack and flattening are simple linear
// scans with no recursion on the hot path. Blocks are kept in typemap
// order (pack order follows construction order, as in MPI), and adjacent
// blocks that are also contiguous in memory are merged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mpl {

/// Absolute-address marker: pass as the buffer argument when the datatype
/// carries absolute displacements (built via TypeBuilder). Mirrors MPI_BOTTOM.
inline void* const BOTTOM = nullptr;

/// One contiguous piece of a flattened datatype: `len` bytes at byte
/// displacement `disp` from the base address.
struct TypeBlock {
  std::ptrdiff_t disp = 0;
  std::size_t len = 0;

  friend bool operator==(const TypeBlock&, const TypeBlock&) = default;
};

namespace detail {
struct TypeNode;
}

/// Value-semantic handle to an immutable datatype description.
class Datatype {
 public:
  /// Default-constructed handle is invalid; using it in communication throws.
  Datatype() = default;

  [[nodiscard]] bool valid() const noexcept { return node_ != nullptr; }

  // -- factories ----------------------------------------------------------

  /// Basic type: one contiguous block of `n` bytes.
  static Datatype bytes(std::size_t n);

  /// Basic type describing the object representation of T.
  template <typename T>
  static Datatype of() {
    static_assert(std::is_trivially_copyable_v<T>);
    return bytes(sizeof(T));
  }

  /// `count` consecutive copies of `t` (stride = extent of t).
  static Datatype contiguous(int count, const Datatype& t);

  /// `count` blocks of `blocklen` elements, block starts `stride` elements apart.
  static Datatype vector(int count, int blocklen, int stride, const Datatype& t);

  /// Like vector, but the stride is given in bytes.
  static Datatype hvector(int count, int blocklen, std::ptrdiff_t stride_bytes,
                          const Datatype& t);

  /// Blocks of blocklens[i] elements at element displacement displs[i].
  static Datatype indexed(std::span<const int> blocklens,
                          std::span<const int> displs, const Datatype& t);

  /// Indexed with a constant block length.
  static Datatype indexed_block(int blocklen, std::span<const int> displs,
                                const Datatype& t);

  /// Blocks of blocklens[i] elements at byte displacement byte_displs[i].
  static Datatype hindexed(std::span<const int> blocklens,
                           std::span<const std::ptrdiff_t> byte_displs,
                           const Datatype& t);

  /// Heterogeneous struct: blocklens[i] copies of types[i] at byte_displs[i].
  static Datatype strukt(std::span<const int> blocklens,
                         std::span<const std::ptrdiff_t> byte_displs,
                         std::span<const Datatype> types);

  /// Same typemap as `t`, with overridden lower bound and extent.
  static Datatype resized(const Datatype& t, std::ptrdiff_t lb,
                          std::size_t extent);

  /// d-dimensional subarray (MPI_Type_create_subarray analogue, row-major
  /// order): selects the box starting at `starts` of shape `subsizes`
  /// inside an array of shape `sizes`. The resulting extent equals the
  /// full array, so consecutive elements address consecutive arrays.
  static Datatype subarray(std::span<const int> sizes,
                           std::span<const int> subsizes,
                           std::span<const int> starts, const Datatype& t);

  // -- queries -------------------------------------------------------------

  /// Payload bytes moved per element of this type.
  [[nodiscard]] std::size_t size() const;

  /// Lower bound (byte displacement of the start of the typemap footprint).
  [[nodiscard]] std::ptrdiff_t lb() const;

  /// Distance in bytes between consecutive elements in a count>1 buffer.
  [[nodiscard]] std::ptrdiff_t extent() const;

  /// Bytes needed to pack `count` elements.
  [[nodiscard]] std::size_t pack_size(int count) const {
    return size() * static_cast<std::size_t>(count);
  }

  /// Number of (merged) contiguous blocks per element.
  [[nodiscard]] std::size_t block_count() const;

  /// One block at the lower bound spanning the whole extent, so `count`
  /// consecutive elements tile one contiguous byte range (every basic type
  /// and contiguous() thereof).
  [[nodiscard]] bool dense() const;

  /// Number of contiguous blocks that `count` consecutive elements flatten
  /// to (the size flatten() appends to an empty vector), in O(1).
  [[nodiscard]] std::size_t flat_block_count(int count) const;

  /// Flattened per-element blocks (displacements relative to the base address).
  [[nodiscard]] std::span<const TypeBlock> blocks() const;

  // -- data movement -------------------------------------------------------

  /// Append the flattened blocks of `count` elements, each shifted by
  /// `base_disp`, to `out`.
  void flatten(std::ptrdiff_t base_disp, int count,
               std::vector<TypeBlock>& out) const;

  /// Gather `count` elements from `base` into the contiguous buffer `out`
  /// (which must hold pack_size(count) bytes).
  void pack(const void* base, int count, std::byte* out) const;

  /// Scatter the contiguous buffer `in` into `count` elements at `base`.
  void unpack(const std::byte* in, void* base, int count) const;

  /// Scatter only the first `nbytes` of `in` (for short incoming messages).
  /// Returns the number of bytes consumed (= min(nbytes, pack_size(count))).
  std::size_t unpack_partial(const std::byte* in, std::size_t nbytes,
                             void* base, int count) const;

  /// Copy `scount` elements at `src` straight into `dcount` elements of
  /// `dtype` at `dst` in a single pass, with no staging buffer: the two
  /// flattened block lists are walked with one cursor each, and bytes pair
  /// up in pack order. Copies min(limit, pack_size(scount),
  /// dtype.pack_size(dcount)) bytes and returns that count; the result is
  /// byte-for-byte what pack() followed by dtype.unpack_partial() would
  /// write. Two dense layouts collapse to one copy.
  std::size_t copy_to(const void* src, int scount, void* dst, int dcount,
                      const Datatype& dtype,
                      std::size_t limit = SIZE_MAX) const;

  friend bool operator==(const Datatype& a, const Datatype& b) noexcept {
    return a.node_ == b.node_;
  }

 private:
  friend class TypeBuilder;
  explicit Datatype(std::shared_ptr<const detail::TypeNode> node)
      : node_(std::move(node)) {}

  const detail::TypeNode& node() const;

  std::shared_ptr<const detail::TypeNode> node_;
};

/// Incremental builder for absolute-address structured types; the analogue
/// of the paper's TypeApp function (Algorithm 1). Blocks appended here carry
/// the address itself as the displacement, so the resulting Datatype must be
/// used with mpl::BOTTOM as the buffer argument.
class TypeBuilder {
 public:
  /// Append `count` elements of type `t` located at absolute address `addr`.
  void append(const void* addr, int count, const Datatype& t);

  /// Append a raw contiguous byte range at absolute address `addr`.
  void append_bytes(const void* addr, std::size_t nbytes);

  /// Number of bytes appended so far.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] bool empty() const noexcept { return blocks_.empty(); }

  /// Reserve room for `n` more blocks (appends that merge take none).
  void reserve(std::size_t n) { blocks_.reserve(blocks_.size() + n); }

  /// Produce the datatype. The builder may be reused afterwards (it is reset).
  Datatype build();

 private:
  std::vector<TypeBlock> blocks_;
  std::size_t size_ = 0;
};

}  // namespace mpl
