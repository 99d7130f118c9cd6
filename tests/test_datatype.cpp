// Unit tests for the derived-datatype engine.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <vector>

#include "mpl/datatype.hpp"
#include "mpl/error.hpp"

using mpl::Datatype;
using mpl::TypeBlock;
using mpl::TypeBuilder;

namespace {

// Pack `count` elements from `base` and return the packed bytes.
std::vector<std::byte> pack_all(const Datatype& t, const void* base,
                                int count) {
  std::vector<std::byte> out(t.pack_size(count));
  t.pack(base, count, out.data());
  return out;
}

template <typename T>
std::vector<T> iota_vec(std::size_t n, T start = T{0}) {
  std::vector<T> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

}  // namespace

TEST(Datatype, BytesBasicProperties) {
  Datatype t = Datatype::bytes(7);
  EXPECT_EQ(t.size(), 7u);
  EXPECT_EQ(t.extent(), 7);
  EXPECT_EQ(t.lb(), 0);
  EXPECT_EQ(t.block_count(), 1u);
}

TEST(Datatype, ZeroSizeType) {
  Datatype t = Datatype::bytes(0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.extent(), 0);
  EXPECT_EQ(t.block_count(), 0u);
  // Packing zero bytes must be a no-op.
  t.pack(nullptr, 1, nullptr);
}

TEST(Datatype, OfTypedSizes) {
  EXPECT_EQ(Datatype::of<int>().size(), sizeof(int));
  EXPECT_EQ(Datatype::of<double>().size(), sizeof(double));
  EXPECT_EQ(Datatype::of<char>().size(), 1u);
}

TEST(Datatype, DefaultConstructedIsInvalid) {
  Datatype t;
  EXPECT_FALSE(t.valid());
  EXPECT_THROW(static_cast<void>(t.size()), mpl::Error);
}

TEST(Datatype, ContiguousMergesIntoSingleBlock) {
  Datatype t = Datatype::contiguous(5, Datatype::of<int>());
  EXPECT_EQ(t.size(), 5 * sizeof(int));
  EXPECT_EQ(t.extent(), static_cast<std::ptrdiff_t>(5 * sizeof(int)));
  EXPECT_EQ(t.block_count(), 1u);  // adjacent blocks merged
}

TEST(Datatype, ContiguousPackRoundTrip) {
  auto src = iota_vec<int>(10);
  Datatype t = Datatype::contiguous(10, Datatype::of<int>());
  auto packed = pack_all(t, src.data(), 1);
  std::vector<int> dst(10, -1);
  t.unpack(packed.data(), dst.data(), 1);
  EXPECT_EQ(src, dst);
}

TEST(Datatype, VectorLayout) {
  // 3 blocks of 2 ints, stride 4 ints: picks elements 0,1, 4,5, 8,9.
  Datatype t = Datatype::vector(3, 2, 4, Datatype::of<int>());
  EXPECT_EQ(t.size(), 6 * sizeof(int));
  EXPECT_EQ(t.block_count(), 3u);
  auto src = iota_vec<int>(12);
  auto packed = pack_all(t, src.data(), 1);
  const int* p = reinterpret_cast<const int*>(packed.data());
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[1], 1);
  EXPECT_EQ(p[2], 4);
  EXPECT_EQ(p[3], 5);
  EXPECT_EQ(p[4], 8);
  EXPECT_EQ(p[5], 9);
}

TEST(Datatype, VectorUnpackScatters) {
  Datatype t = Datatype::vector(2, 1, 3, Datatype::of<int>());  // elems 0 and 3
  std::array<int, 6> dst{};
  dst.fill(-1);
  const int payload[2] = {42, 43};
  t.unpack(reinterpret_cast<const std::byte*>(payload), dst.data(), 1);
  EXPECT_EQ(dst[0], 42);
  EXPECT_EQ(dst[1], -1);
  EXPECT_EQ(dst[2], -1);
  EXPECT_EQ(dst[3], 43);
}

TEST(Datatype, HvectorByteStride) {
  // Column of a 4x4 double matrix: 4 blocks of 1, byte stride = row size.
  Datatype col = Datatype::hvector(4, 1, 4 * sizeof(double), Datatype::of<double>());
  EXPECT_EQ(col.size(), 4 * sizeof(double));
  std::vector<double> m(16);
  std::iota(m.begin(), m.end(), 0.0);
  auto packed = pack_all(col, m.data() + 1, 1);  // second column
  const double* p = reinterpret_cast<const double*>(packed.data());
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 5.0);
  EXPECT_DOUBLE_EQ(p[2], 9.0);
  EXPECT_DOUBLE_EQ(p[3], 13.0);
}

TEST(Datatype, IndexedSelectsBlocks) {
  const std::vector<int> lens{2, 1, 3};
  const std::vector<int> disps{0, 4, 7};
  Datatype t = Datatype::indexed(lens, disps, Datatype::of<int>());
  EXPECT_EQ(t.size(), 6 * sizeof(int));
  auto src = iota_vec<int>(10);
  auto packed = pack_all(t, src.data(), 1);
  const int* p = reinterpret_cast<const int*>(packed.data());
  const int expect[6] = {0, 1, 4, 7, 8, 9};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(p[i], expect[i]);
}

TEST(Datatype, IndexedBlockConstantLength) {
  const std::vector<int> disps{1, 3, 5};
  Datatype t = Datatype::indexed_block(1, disps, Datatype::of<int>());
  EXPECT_EQ(t.size(), 3 * sizeof(int));
  EXPECT_EQ(t.lb(), static_cast<std::ptrdiff_t>(sizeof(int)));
}

TEST(Datatype, HindexedByteDisplacements) {
  const std::vector<int> lens{1, 1};
  const std::vector<std::ptrdiff_t> disps{0, 12};
  Datatype t = Datatype::hindexed(lens, disps, Datatype::of<int>());
  auto src = iota_vec<int>(4);
  auto packed = pack_all(t, src.data(), 1);
  const int* p = reinterpret_cast<const int*>(packed.data());
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[1], 3);
}

TEST(Datatype, StruktHeterogeneous) {
  struct Rec {
    int a;
    double b;
    char c;
  };
  Rec r{7, 3.5, 'x'};
  const std::vector<int> lens{1, 1, 1};
  const std::vector<std::ptrdiff_t> disps{offsetof(Rec, a), offsetof(Rec, b),
                                          offsetof(Rec, c)};
  const std::vector<Datatype> types{Datatype::of<int>(), Datatype::of<double>(),
                                    Datatype::of<char>()};
  Datatype t = Datatype::strukt(lens, disps, types);
  EXPECT_EQ(t.size(), sizeof(int) + sizeof(double) + sizeof(char));
  auto packed = pack_all(t, &r, 1);
  Rec out{};
  t.unpack(packed.data(), &out, 1);
  EXPECT_EQ(out.a, 7);
  EXPECT_DOUBLE_EQ(out.b, 3.5);
  EXPECT_EQ(out.c, 'x');
}

TEST(Datatype, NestedVectorOfVectors) {
  // A 2-D sub-block of a 2-D matrix: vector of row segments.
  constexpr int N = 6;
  Datatype row_seg = Datatype::contiguous(3, Datatype::of<int>());
  Datatype sub = Datatype::hvector(2, 1, N * sizeof(int), row_seg);
  auto src = iota_vec<int>(N * N);
  auto packed = pack_all(sub, src.data() + N + 1, 1);  // block at (1,1)
  const int* p = reinterpret_cast<const int*>(packed.data());
  EXPECT_EQ(p[0], 7);
  EXPECT_EQ(p[1], 8);
  EXPECT_EQ(p[2], 9);
  EXPECT_EQ(p[3], 13);
  EXPECT_EQ(p[4], 14);
  EXPECT_EQ(p[5], 15);
}

TEST(Datatype, ResizedControlsCountStride) {
  // One int with extent of 3 ints: count=3 picks elements 0, 3, 6.
  Datatype t = Datatype::resized(Datatype::of<int>(), 0, 3 * sizeof(int));
  EXPECT_EQ(t.extent(), static_cast<std::ptrdiff_t>(3 * sizeof(int)));
  EXPECT_EQ(t.size(), sizeof(int));
  auto src = iota_vec<int>(9);
  auto packed = pack_all(t, src.data(), 3);
  const int* p = reinterpret_cast<const int*>(packed.data());
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[1], 3);
  EXPECT_EQ(p[2], 6);
}

TEST(Datatype, CountGreaterThanOneUsesExtent) {
  Datatype t = Datatype::contiguous(2, Datatype::of<int>());
  auto src = iota_vec<int>(8);
  auto packed = pack_all(t, src.data(), 4);
  EXPECT_EQ(packed.size(), 8 * sizeof(int));
  std::vector<int> dst(8, -1);
  t.unpack(packed.data(), dst.data(), 4);
  EXPECT_EQ(src, dst);
}

TEST(Datatype, NegativeDisplacementLowerBound) {
  const std::vector<int> lens{1, 1};
  const std::vector<std::ptrdiff_t> disps{-8, 0};
  Datatype t = Datatype::hindexed(lens, disps, Datatype::of<int>());
  EXPECT_EQ(t.lb(), -8);
  EXPECT_EQ(t.extent(), 8 + static_cast<std::ptrdiff_t>(sizeof(int)));
}

TEST(Datatype, FlattenShiftsAndMerges) {
  Datatype t = Datatype::contiguous(2, Datatype::of<int>());
  std::vector<TypeBlock> blocks;
  t.flatten(100, 2, blocks);
  // Two consecutive elements are themselves contiguous: fully merged.
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].disp, 100);
  EXPECT_EQ(blocks[0].len, 4 * sizeof(int));
}

TEST(Datatype, FlattenDenseCountMergesWithPrecedingBlock) {
  // A dense type with count > 1 flattens to one block, and that block joins
  // an adjacent preceding block exactly like a per-element append would.
  const Datatype t = Datatype::contiguous(4, Datatype::of<int>());
  const std::size_t el = 4 * sizeof(int);
  std::vector<TypeBlock> blocks{{40, 60}};  // ends at 100: adjacent
  t.flatten(100, 3, blocks);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (TypeBlock{40, 60 + 3 * el}));

  blocks = {{0, 8}};  // ends at 8: a gap before 100
  t.flatten(100, 3, blocks);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], (TypeBlock{0, 8}));
  EXPECT_EQ(blocks[1], (TypeBlock{100, 3 * el}));

  blocks.clear();
  t.flatten(100, 0, blocks);
  EXPECT_TRUE(blocks.empty());
}

TEST(Datatype, FlatBlockCountMatchesFlatten) {
  const Datatype i = Datatype::of<int>();
  const Datatype vec = Datatype::vector(3, 1, 2, i);
  const std::vector<Datatype> types{
      i,
      Datatype::contiguous(5, i),
      // The last block of one element abuts the next element's first.
      vec,
      // The same blocks with a gap at every seam.
      Datatype::resized(vec, 0, 6 * sizeof(int)),
      Datatype::vector(2, 2, 3, i),
  };
  for (const Datatype& t : types) {
    for (int count : {0, 1, 2, 7}) {
      std::vector<TypeBlock> blocks;
      t.flatten(12, count, blocks);
      EXPECT_EQ(t.flat_block_count(count), blocks.size()) << "count " << count;
    }
  }
}

TEST(Datatype, PackOrderFollowsTypemapNotAddressOrder) {
  // Blocks listed in decreasing address order must pack in list order.
  const std::vector<int> lens{1, 1};
  const std::vector<std::ptrdiff_t> disps{8, 0};
  Datatype t = Datatype::hindexed(lens, disps, Datatype::of<int>());
  auto src = iota_vec<int>(4);
  auto packed = pack_all(t, src.data(), 1);
  const int* p = reinterpret_cast<const int*>(packed.data());
  EXPECT_EQ(p[0], 2);  // element at byte 8 first
  EXPECT_EQ(p[1], 0);
}

TEST(Datatype, UnpackPartialStopsEarly) {
  Datatype t = Datatype::contiguous(4, Datatype::of<int>());
  const int payload[2] = {10, 11};
  std::array<int, 4> dst{};
  dst.fill(-1);
  const std::size_t consumed = t.unpack_partial(
      reinterpret_cast<const std::byte*>(payload), 2 * sizeof(int), dst.data(), 1);
  EXPECT_EQ(consumed, 2 * sizeof(int));
  EXPECT_EQ(dst[0], 10);
  EXPECT_EQ(dst[1], 11);
  EXPECT_EQ(dst[2], -1);
  EXPECT_EQ(dst[3], -1);
}

TEST(Datatype, ConstructorValidation) {
  EXPECT_THROW(Datatype::contiguous(-1, Datatype::of<int>()), mpl::Error);
  const std::vector<int> lens{1};
  const std::vector<int> disps{0, 1};
  EXPECT_THROW(Datatype::indexed(lens, disps, Datatype::of<int>()), mpl::Error);
}

// -- TypeBuilder (the paper's TypeApp) --------------------------------------

TEST(TypeBuilder, AbsoluteRoundTrip) {
  std::vector<int> a(4, 1), b(4, 2);
  TypeBuilder tb;
  tb.append(a.data(), 2, Datatype::of<int>());
  tb.append(b.data() + 1, 3, Datatype::of<int>());
  Datatype t = tb.build();
  EXPECT_EQ(t.size(), 5 * sizeof(int));

  auto packed = pack_all(t, mpl::BOTTOM, 1);
  const int* p = reinterpret_cast<const int*>(packed.data());
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[1], 1);
  EXPECT_EQ(p[2], 2);
  EXPECT_EQ(p[3], 2);
  EXPECT_EQ(p[4], 2);

  // Unpack into different values through the same absolute layout.
  std::vector<int> payload_src{9, 8, 7, 6, 5};
  t.unpack(reinterpret_cast<const std::byte*>(payload_src.data()), mpl::BOTTOM, 1);
  EXPECT_EQ(a[0], 9);
  EXPECT_EQ(a[1], 8);
  EXPECT_EQ(b[1], 7);
  EXPECT_EQ(b[2], 6);
  EXPECT_EQ(b[3], 5);
}

TEST(TypeBuilder, MergesAdjacentAppends) {
  std::vector<int> a(4);
  TypeBuilder tb;
  tb.append(a.data(), 2, Datatype::of<int>());
  tb.append(a.data() + 2, 2, Datatype::of<int>());
  Datatype t = tb.build();
  EXPECT_EQ(t.block_count(), 1u);
  EXPECT_EQ(t.size(), 4 * sizeof(int));
}

TEST(TypeBuilder, AppendBytesAndReset) {
  std::vector<char> buf(8, 'z');
  TypeBuilder tb;
  tb.append_bytes(buf.data(), 8);
  EXPECT_EQ(tb.size(), 8u);
  Datatype t = tb.build();
  EXPECT_TRUE(tb.empty());  // builder reset after build
  EXPECT_EQ(t.size(), 8u);
}

TEST(TypeBuilder, AppendTypedNonContiguous) {
  std::vector<double> m(16);
  std::iota(m.begin(), m.end(), 0.0);
  Datatype col = Datatype::hvector(4, 1, 4 * sizeof(double), Datatype::of<double>());
  TypeBuilder tb;
  tb.append(m.data(), 1, col);  // first column
  Datatype t = tb.build();
  auto packed = pack_all(t, mpl::BOTTOM, 1);
  const double* p = reinterpret_cast<const double*>(packed.data());
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 4.0);
  EXPECT_DOUBLE_EQ(p[2], 8.0);
  EXPECT_DOUBLE_EQ(p[3], 12.0);
}

TEST(TypeBuilder, EmptyBuilderYieldsEmptyType) {
  TypeBuilder tb;
  Datatype t = tb.build();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.block_count(), 0u);
}

// -- parameterized round-trip sweep ------------------------------------------

struct VecParam {
  int count, blocklen, stride;
};

class VectorRoundTrip : public ::testing::TestWithParam<VecParam> {};

TEST_P(VectorRoundTrip, PackUnpackRestoresSelection) {
  const auto [count, blocklen, stride] = GetParam();
  Datatype t = Datatype::vector(count, blocklen, stride, Datatype::of<int>());
  const std::size_t span =
      count == 0 ? 0 : static_cast<std::size_t>((count - 1) * stride + blocklen);
  auto src = iota_vec<int>(span + 4, 100);
  auto dst = std::vector<int>(span + 4, -1);
  auto packed = pack_all(t, src.data(), 1);
  EXPECT_EQ(packed.size(), static_cast<std::size_t>(count) * blocklen * sizeof(int));
  t.unpack(packed.data(), dst.data(), 1);
  // Every selected element restored; everything else untouched.
  std::vector<bool> selected(span + 4, false);
  for (int i = 0; i < count; ++i)
    for (int j = 0; j < blocklen; ++j)
      selected[static_cast<std::size_t>(i * stride + j)] = true;
  for (std::size_t k = 0; k < dst.size(); ++k) {
    if (selected[k]) {
      EXPECT_EQ(dst[k], src[k]) << "element " << k;
    } else {
      EXPECT_EQ(dst[k], -1) << "element " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorRoundTrip,
                         ::testing::Values(VecParam{1, 1, 1}, VecParam{2, 1, 2},
                                           VecParam{3, 2, 5}, VecParam{4, 4, 4},
                                           VecParam{5, 3, 7}, VecParam{8, 1, 3},
                                           VecParam{0, 1, 1}));
