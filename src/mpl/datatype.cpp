#include "mpl/datatype.hpp"

#include <algorithm>
#include <cstring>

#include "mpl/error.hpp"

namespace mpl {

namespace detail {

// Immutable node shared by Datatype handles. `blocks` is the canonical
// flattened representation of ONE element, in typemap (pack) order.
struct TypeNode {
  std::vector<TypeBlock> blocks;
  std::size_t size = 0;         // sum of block lengths
  std::ptrdiff_t lb = 0;        // lower bound (possibly resized)
  std::ptrdiff_t ub = 0;        // upper bound (lb + extent)
  bool absolute = false;        // built from absolute addresses (use BOTTOM)

  /// Datatype::dense(): pack/unpack collapse to a single memcpy instead of
  /// a per-element block loop. This is the transport's hottest case.
  [[nodiscard]] bool dense() const noexcept {
    return blocks.size() == 1 && blocks[0].disp == lb &&
           blocks[0].len == static_cast<std::size_t>(ub - lb);
  }
};

namespace {

// Append `b` to `out`, merging with the previous block when contiguous.
void push_merged(std::vector<TypeBlock>& out, TypeBlock b) {
  if (b.len == 0) return;
  if (!out.empty() &&
      out.back().disp + static_cast<std::ptrdiff_t>(out.back().len) == b.disp) {
    out.back().len += b.len;
  } else {
    out.push_back(b);
  }
}

// Append one element of `t` shifted by `disp`.
void append_shifted(std::vector<TypeBlock>& out, const TypeNode& t,
                    std::ptrdiff_t disp) {
  for (const TypeBlock& b : t.blocks) {
    push_merged(out, TypeBlock{b.disp + disp, b.len});
  }
}

std::shared_ptr<const TypeNode> make_node(std::vector<TypeBlock> blocks,
                                          std::ptrdiff_t lb, std::ptrdiff_t ub,
                                          bool absolute = false) {
  auto n = std::make_shared<TypeNode>();
  n->blocks = std::move(blocks);
  n->size = 0;
  for (const TypeBlock& b : n->blocks) n->size += b.len;
  n->lb = lb;
  n->ub = ub;
  n->absolute = absolute;
  return n;
}

// Natural footprint [lb, ub) of a block list (0-width for empty types).
std::pair<std::ptrdiff_t, std::ptrdiff_t> footprint(
    const std::vector<TypeBlock>& blocks) {
  if (blocks.empty()) return {0, 0};
  std::ptrdiff_t lo = blocks.front().disp;
  std::ptrdiff_t hi = blocks.front().disp;
  for (const TypeBlock& b : blocks) {
    lo = std::min(lo, b.disp);
    hi = std::max(hi, b.disp + static_cast<std::ptrdiff_t>(b.len));
  }
  return {lo, hi};
}

}  // namespace
}  // namespace detail

using detail::TypeNode;

const TypeNode& Datatype::node() const {
  MPL_REQUIRE(node_ != nullptr, "use of invalid (default-constructed) Datatype");
  return *node_;
}

Datatype Datatype::bytes(std::size_t n) {
  std::vector<TypeBlock> blocks;
  if (n > 0) blocks.push_back({0, n});
  return Datatype(detail::make_node(std::move(blocks), 0,
                                    static_cast<std::ptrdiff_t>(n)));
}

Datatype Datatype::contiguous(int count, const Datatype& t) {
  MPL_REQUIRE(count >= 0, "contiguous: negative count");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  std::vector<TypeBlock> blocks;
  blocks.reserve(in.blocks.size() * static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    detail::append_shifted(blocks, in, static_cast<std::ptrdiff_t>(i) * ext);
  }
  return Datatype(detail::make_node(std::move(blocks), in.lb,
                                    in.lb + static_cast<std::ptrdiff_t>(count) * ext));
}

Datatype Datatype::vector(int count, int blocklen, int stride,
                          const Datatype& t) {
  const std::ptrdiff_t ext = t.node().ub - t.node().lb;
  return hvector(count, blocklen, stride * ext, t);
}

Datatype Datatype::hvector(int count, int blocklen,
                           std::ptrdiff_t stride_bytes, const Datatype& t) {
  MPL_REQUIRE(count >= 0 && blocklen >= 0, "hvector: negative count/blocklen");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  std::vector<TypeBlock> blocks;
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t start = static_cast<std::ptrdiff_t>(i) * stride_bytes;
    for (int j = 0; j < blocklen; ++j) {
      detail::append_shifted(blocks, in, start + static_cast<std::ptrdiff_t>(j) * ext);
    }
  }
  auto [lo, hi] = detail::footprint(blocks);
  return Datatype(detail::make_node(std::move(blocks), lo, hi));
}

Datatype Datatype::indexed(std::span<const int> blocklens,
                           std::span<const int> displs, const Datatype& t) {
  MPL_REQUIRE(blocklens.size() == displs.size(),
              "indexed: blocklens/displs size mismatch");
  const std::ptrdiff_t ext = t.node().ub - t.node().lb;
  std::vector<std::ptrdiff_t> byte_displs(displs.size());
  for (std::size_t i = 0; i < displs.size(); ++i) {
    byte_displs[i] = static_cast<std::ptrdiff_t>(displs[i]) * ext;
  }
  return hindexed(blocklens, byte_displs, t);
}

Datatype Datatype::indexed_block(int blocklen, std::span<const int> displs,
                                 const Datatype& t) {
  std::vector<int> blocklens(displs.size(), blocklen);
  return indexed(blocklens, displs, t);
}

Datatype Datatype::hindexed(std::span<const int> blocklens,
                            std::span<const std::ptrdiff_t> byte_displs,
                            const Datatype& t) {
  MPL_REQUIRE(blocklens.size() == byte_displs.size(),
              "hindexed: blocklens/displs size mismatch");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  std::vector<TypeBlock> blocks;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    MPL_REQUIRE(blocklens[i] >= 0, "hindexed: negative blocklen");
    for (int j = 0; j < blocklens[i]; ++j) {
      detail::append_shifted(blocks, in,
                             byte_displs[i] + static_cast<std::ptrdiff_t>(j) * ext);
    }
  }
  auto [lo, hi] = detail::footprint(blocks);
  return Datatype(detail::make_node(std::move(blocks), lo, hi));
}

Datatype Datatype::strukt(std::span<const int> blocklens,
                          std::span<const std::ptrdiff_t> byte_displs,
                          std::span<const Datatype> types) {
  MPL_REQUIRE(blocklens.size() == byte_displs.size() &&
                  blocklens.size() == types.size(),
              "strukt: argument size mismatch");
  std::vector<TypeBlock> blocks;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    const TypeNode& in = types[i].node();
    const std::ptrdiff_t ext = in.ub - in.lb;
    MPL_REQUIRE(blocklens[i] >= 0, "strukt: negative blocklen");
    for (int j = 0; j < blocklens[i]; ++j) {
      detail::append_shifted(blocks, in,
                             byte_displs[i] + static_cast<std::ptrdiff_t>(j) * ext);
    }
  }
  auto [lo, hi] = detail::footprint(blocks);
  return Datatype(detail::make_node(std::move(blocks), lo, hi));
}

Datatype Datatype::subarray(std::span<const int> sizes,
                            std::span<const int> subsizes,
                            std::span<const int> starts, const Datatype& t) {
  const std::size_t d = sizes.size();
  MPL_REQUIRE(d >= 1, "subarray: need at least one dimension");
  MPL_REQUIRE(subsizes.size() == d && starts.size() == d,
              "subarray: argument arity mismatch");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  long long total = 1;
  for (std::size_t k = 0; k < d; ++k) {
    MPL_REQUIRE(sizes[k] >= 1 && subsizes[k] >= 0 && starts[k] >= 0 &&
                    starts[k] + subsizes[k] <= sizes[k],
                "subarray: box out of bounds");
    total *= sizes[k];
  }
  // Enumerate the box rows (innermost dimension contiguous), in row-major
  // order, as one element-displacement per run.
  std::vector<TypeBlock> blocks;
  bool empty = false;
  for (std::size_t k = 0; k < d; ++k) empty = empty || subsizes[k] == 0;
  if (!empty) {
    std::vector<int> idx(starts.begin(), starts.end() - 1);
    bool more = true;
    while (more) {
      long long lin = 0;
      for (std::size_t k = 0; k + 1 < d; ++k) lin = lin * sizes[k] + idx[k];
      lin = lin * sizes[d - 1] + starts[d - 1];
      // One run of subsizes[d-1] elements of t.
      for (int j = 0; j < subsizes[d - 1]; ++j) {
        detail::append_shifted(blocks, in,
                               static_cast<std::ptrdiff_t>(lin + j) * ext);
      }
      if (d == 1) break;
      std::size_t k = d - 2;
      while (true) {
        if (++idx[k] < starts[k] + subsizes[k]) break;
        idx[k] = starts[k];
        if (k == 0) {
          more = false;
          break;
        }
        --k;
      }
    }
  }
  // Extent covers the full array (MPI subarray semantics).
  return Datatype(detail::make_node(std::move(blocks), 0,
                                    static_cast<std::ptrdiff_t>(total) * ext));
}

Datatype Datatype::resized(const Datatype& t, std::ptrdiff_t lb,
                           std::size_t extent) {
  const TypeNode& in = t.node();
  return Datatype(detail::make_node(std::vector<TypeBlock>(in.blocks), lb,
                                    lb + static_cast<std::ptrdiff_t>(extent),
                                    in.absolute));
}

std::size_t Datatype::size() const { return node().size; }
std::ptrdiff_t Datatype::lb() const { return node().lb; }
std::ptrdiff_t Datatype::extent() const { return node().ub - node().lb; }
std::size_t Datatype::block_count() const { return node().blocks.size(); }
bool Datatype::dense() const { return node().dense(); }

std::span<const TypeBlock> Datatype::blocks() const { return node().blocks; }

std::size_t Datatype::flat_block_count(int count) const {
  const TypeNode& n = node();
  if (count <= 0 || n.blocks.empty()) return 0;
  // Element blocks are already merged, so only the seam between the last
  // block of one element and the first block of the next can join.
  const TypeBlock& first = n.blocks.front();
  const TypeBlock& last = n.blocks.back();
  const bool seam_joins = last.disp + static_cast<std::ptrdiff_t>(last.len) ==
                          first.disp + (n.ub - n.lb);
  const auto c = static_cast<std::size_t>(count);
  return n.blocks.size() * c - (seam_joins ? c - 1 : 0);
}

void Datatype::flatten(std::ptrdiff_t base_disp, int count,
                       std::vector<TypeBlock>& out) const {
  const TypeNode& n = node();
  const std::ptrdiff_t ext = n.ub - n.lb;
  if (n.dense() && count > 0) {
    // The elements tile one contiguous range: the per-element loop would
    // merge them into exactly this block.
    detail::push_merged(out, TypeBlock{base_disp + n.lb,
                                       n.blocks[0].len *
                                           static_cast<std::size_t>(count)});
    return;
  }
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t shift = base_disp + static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      detail::push_merged(out, TypeBlock{b.disp + shift, b.len});
    }
  }
}

void Datatype::pack(const void* base, int count, std::byte* out) const {
  const TypeNode& n = node();
  const std::ptrdiff_t ext = n.ub - n.lb;
  const char* cbase = static_cast<const char*>(base);
  if (n.dense()) {
    // Zero bytes may come with null buffers (count 0), which memcpy forbids.
    const std::size_t nbytes =
        static_cast<std::size_t>(ext) * static_cast<std::size_t>(count);
    if (nbytes > 0) std::memcpy(out, cbase + n.lb, nbytes);
    return;
  }
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      std::memcpy(out, cbase + b.disp + shift, b.len);
      out += b.len;
    }
  }
}

void Datatype::unpack(const std::byte* in, void* base, int count) const {
  const TypeNode& n = node();
  const std::ptrdiff_t ext = n.ub - n.lb;
  char* cbase = static_cast<char*>(base);
  if (n.dense()) {
    const std::size_t nbytes =
        static_cast<std::size_t>(ext) * static_cast<std::size_t>(count);
    if (nbytes > 0) std::memcpy(cbase + n.lb, in, nbytes);
    return;
  }
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      std::memcpy(cbase + b.disp + shift, in, b.len);
      in += b.len;
    }
  }
}

std::size_t Datatype::unpack_partial(const std::byte* in, std::size_t nbytes,
                                     void* base, int count) const {
  const TypeNode& n = node();
  const std::ptrdiff_t ext = n.ub - n.lb;
  char* cbase = static_cast<char*>(base);
  std::size_t left = std::min(nbytes, pack_size(count));
  const std::size_t consumed = left;
  if (n.dense()) {
    if (left > 0) std::memcpy(cbase + n.lb, in, left);
    return consumed;
  }
  for (int i = 0; i < count && left > 0; ++i) {
    const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      const std::size_t take = std::min(left, b.len);
      std::memcpy(cbase + b.disp + shift, in, take);
      in += take;
      left -= take;
      if (left == 0) break;
    }
  }
  return consumed;
}

namespace {

// Walks the flattened blocks of `count` elements of one layout, in pack
// order, handing out one contiguous run at a time. A dense layout is a
// single run covering every element.
class RunCursor {
 public:
  RunCursor(const TypeNode& n, std::byte* base, int count)
      : n_(n), base_(base), ext_(n.ub - n.lb), count_(count) {}

  /// Next run; `len` is 0 only once every element is exhausted.
  void next(std::byte*& p, std::size_t& len) {
    len = 0;
    if (elem_ >= count_ || n_.blocks.empty()) return;
    if (n_.dense()) {
      p = base_ + n_.lb;
      len = n_.size * static_cast<std::size_t>(count_);
      elem_ = count_;
      return;
    }
    const TypeBlock& b = n_.blocks[blk_];
    p = base_ + b.disp + static_cast<std::ptrdiff_t>(elem_) * ext_;
    len = b.len;
    if (++blk_ == n_.blocks.size()) {
      blk_ = 0;
      ++elem_;
    }
  }

 private:
  const TypeNode& n_;
  std::byte* base_;
  std::ptrdiff_t ext_;
  int count_;
  int elem_ = 0;
  std::size_t blk_ = 0;
};

}  // namespace

std::size_t Datatype::copy_to(const void* src, int scount, void* dst,
                              int dcount, const Datatype& dtype,
                              std::size_t limit) const {
  const TypeNode& sn = node();
  const TypeNode& dn = dtype.node();
  const std::size_t total =
      std::min({limit, pack_size(scount), dtype.pack_size(dcount)});
  if (total == 0) return 0;  // an empty side may be a null buffer
  // memmove, not memcpy: a self-message may name the same bytes on both
  // sides, which the staged pack-then-unpack tolerated.
  if (sn.dense() && dn.dense()) {
    std::memmove(static_cast<std::byte*>(dst) + dn.lb,
                 static_cast<const std::byte*>(src) + sn.lb, total);
    return total;
  }
  // The source cursor only reads through its pointer.
  RunCursor s(sn, static_cast<std::byte*>(const_cast<void*>(src)), scount);
  RunCursor d(dn, static_cast<std::byte*>(dst), dcount);
  std::byte* sp = nullptr;
  std::byte* dp = nullptr;
  std::size_t slen = 0;
  std::size_t dlen = 0;
  for (std::size_t left = total; left > 0;) {
    if (slen == 0) s.next(sp, slen);
    if (dlen == 0) d.next(dp, dlen);
    const std::size_t take = std::min({left, slen, dlen});
    std::memmove(dp, sp, take);
    sp += take;
    dp += take;
    slen -= take;
    dlen -= take;
    left -= take;
  }
  return total;
}

void TypeBuilder::append(const void* addr, int count, const Datatype& t) {
  MPL_REQUIRE(count >= 0, "TypeBuilder::append: negative count");
  // Flattening merges every block into the previous one it touches, so
  // flattening straight into blocks_ equals appending the flattened list.
  t.flatten(reinterpret_cast<std::ptrdiff_t>(addr), count, blocks_);
  size_ += t.size() * static_cast<std::size_t>(count);
}

void TypeBuilder::append_bytes(const void* addr, std::size_t nbytes) {
  if (nbytes == 0) return;
  detail::push_merged(blocks_,
                      TypeBlock{reinterpret_cast<std::ptrdiff_t>(addr), nbytes});
  size_ += nbytes;
}

Datatype TypeBuilder::build() {
  auto [lo, hi] = detail::footprint(blocks_);
  Datatype t(detail::make_node(std::move(blocks_), lo, hi, /*absolute=*/true));
  blocks_.clear();
  size_ = 0;
  return t;
}

}  // namespace mpl
