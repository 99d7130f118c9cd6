// Property-based validation of the datatype engine: randomly composed
// nested datatypes are checked against an independent reference
// interpreter that walks the constructor tree and enumerates the typemap
// directly. pack/unpack round-trips and size/extent/flatten results must
// agree exactly, and the direct typed-to-typed copy must agree with pack
// followed by unpack.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "mpl/datatype.hpp"

using mpl::Datatype;

namespace {

// Reference model: an explicit list of (byte displacement) for each
// payload byte, in typemap order, plus lb/extent bookkeeping mirroring
// the MPI rules the engine implements.
struct Ref {
  std::vector<std::ptrdiff_t> bytes;  // displacement of each payload byte
  std::ptrdiff_t lb = 0;
  std::ptrdiff_t ub = 0;
};

Ref ref_basic(std::size_t n) {
  Ref r;
  for (std::size_t i = 0; i < n; ++i) r.bytes.push_back(static_cast<std::ptrdiff_t>(i));
  r.lb = 0;
  r.ub = static_cast<std::ptrdiff_t>(n);
  return r;
}

void ref_footprint(Ref& r) {
  if (r.bytes.empty()) {
    r.lb = r.ub = 0;
    return;
  }
  r.lb = r.bytes.front();
  r.ub = r.bytes.front() + 1;
  for (std::ptrdiff_t b : r.bytes) {
    r.lb = std::min(r.lb, b);
    r.ub = std::max(r.ub, b + 1);
  }
}

Ref ref_contiguous(int count, const Ref& in) {
  Ref r;
  const std::ptrdiff_t ext = in.ub - in.lb;
  for (int i = 0; i < count; ++i) {
    for (std::ptrdiff_t b : in.bytes) r.bytes.push_back(b + i * ext);
  }
  r.lb = in.lb;
  r.ub = in.lb + count * ext;
  return r;
}

Ref ref_vector(int count, int blocklen, int stride, const Ref& in) {
  Ref r;
  const std::ptrdiff_t ext = in.ub - in.lb;
  for (int i = 0; i < count; ++i) {
    for (int j = 0; j < blocklen; ++j) {
      const std::ptrdiff_t shift = (static_cast<std::ptrdiff_t>(i) * stride + j) * ext;
      for (std::ptrdiff_t b : in.bytes) r.bytes.push_back(b + shift);
    }
  }
  ref_footprint(r);
  return r;
}

Ref ref_hindexed(const std::vector<int>& lens,
                 const std::vector<std::ptrdiff_t>& disps, const Ref& in) {
  Ref r;
  const std::ptrdiff_t ext = in.ub - in.lb;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    for (int j = 0; j < lens[i]; ++j) {
      for (std::ptrdiff_t b : in.bytes) r.bytes.push_back(b + disps[i] + j * ext);
    }
  }
  ref_footprint(r);
  return r;
}

// Random (engine datatype, reference) pair. Depth-bounded recursion keeps
// the footprints small enough to test exhaustively.
std::pair<Datatype, Ref> random_type(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind_dist(0, depth == 0 ? 0 : 3);
  std::uniform_int_distribution<int> small(1, 3);
  switch (kind_dist(rng)) {
    case 0: {
      const int n = small(rng);
      return {Datatype::bytes(static_cast<std::size_t>(n)), ref_basic(static_cast<std::size_t>(n))};
    }
    case 1: {
      auto [t, r] = random_type(rng, depth - 1);
      const int count = small(rng);
      return {Datatype::contiguous(count, t), ref_contiguous(count, r)};
    }
    case 2: {
      auto [t, r] = random_type(rng, depth - 1);
      const int count = small(rng);
      const int blocklen = small(rng);
      const int stride = blocklen + small(rng) - 1;  // may overlap-free pack
      return {Datatype::vector(count, blocklen, stride, t),
              ref_vector(count, blocklen, stride, r)};
    }
    default: {
      auto [t, r] = random_type(rng, depth - 1);
      const int nblocks = small(rng);
      std::vector<int> lens;
      std::vector<std::ptrdiff_t> disps;
      const std::ptrdiff_t ext = r.ub - r.lb;
      std::ptrdiff_t cursor = 0;
      for (int i = 0; i < nblocks; ++i) {
        const int len = small(rng);
        lens.push_back(len);
        disps.push_back(cursor);
        cursor += (len + small(rng)) * std::max<std::ptrdiff_t>(ext, 1);
      }
      return {Datatype::hindexed(lens, disps, t), ref_hindexed(lens, disps, r)};
    }
  }
}

}  // namespace

class DatatypeFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DatatypeFuzz, EngineAgreesWithReferenceInterpreter) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    auto [t, ref] = random_type(rng, 3);

    // Structural agreement.
    ASSERT_EQ(t.size(), ref.bytes.size());
    ASSERT_EQ(t.lb(), ref.lb);
    ASSERT_EQ(t.extent(), ref.ub - ref.lb);

    // The flattened blocks must enumerate exactly the reference bytes, in
    // typemap order.
    std::vector<mpl::TypeBlock> blocks;
    t.flatten(0, 1, blocks);
    std::vector<std::ptrdiff_t> enumerated;
    for (const auto& b : blocks) {
      for (std::size_t j = 0; j < b.len; ++j) {
        enumerated.push_back(b.disp + static_cast<std::ptrdiff_t>(j));
      }
    }
    ASSERT_EQ(enumerated, ref.bytes) << "trial " << trial;

    // pack must gather exactly the reference bytes in order.
    const std::ptrdiff_t span = ref.ub - ref.lb;
    std::vector<unsigned char> field(static_cast<std::size_t>(span) + 16);
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] = static_cast<unsigned char>(i * 37 + 11);
    }
    unsigned char* base = field.data() - ref.lb;  // lb may be negative
    std::vector<std::byte> packed(t.pack_size(1));
    t.pack(base, 1, packed.data());
    for (std::size_t i = 0; i < ref.bytes.size(); ++i) {
      ASSERT_EQ(static_cast<unsigned char>(packed[i]),
                base[ref.bytes[i]])
          << "trial " << trial << " byte " << i;
    }

    // unpack must scatter them back: round-trip through a cleared field.
    std::vector<unsigned char> out(field.size(), 0xEE);
    unsigned char* obase = out.data() - ref.lb;
    t.unpack(packed.data(), obase, 1);
    for (std::ptrdiff_t p = ref.lb; p < ref.ub; ++p) {
      const bool selected =
          std::find(ref.bytes.begin(), ref.bytes.end(), p) != ref.bytes.end();
      if (selected) {
        ASSERT_EQ(obase[p], base[p]) << "trial " << trial;
      } else {
        ASSERT_EQ(obase[p], 0xEE) << "trial " << trial << " disp " << p;
      }
    }
  }
}

TEST_P(DatatypeFuzz, DirectCopyMatchesPackThenUnpack) {
  // The single-pass typed-to-typed copy must write exactly what pack into
  // a staging buffer followed by unpack_partial writes — same bytes, same
  // untouched gaps, same byte count — for random layout pairs, element
  // counts and byte limits (full, partial, and cut mid-block).
  std::mt19937 rng(GetParam() * 7919u);
  std::uniform_int_distribution<int> count_dist(1, 3);
  // Room for `count` elements of `t`, addressed from the returned base.
  auto field_for = [](const Datatype& t, int count) {
    return static_cast<std::size_t>(
               t.extent() * (count - 1) + t.extent()) + 16;
  };
  for (int trial = 0; trial < 40; ++trial) {
    const auto [st, sref] = random_type(rng, 3);
    const auto [dt, dref] = random_type(rng, 3);
    const int scount = count_dist(rng);
    const int dcount = count_dist(rng);
    const std::size_t full =
        std::min(st.pack_size(scount), dt.pack_size(dcount));
    std::uniform_int_distribution<std::size_t> limit_dist(0, full);
    for (const std::size_t limit : {full, limit_dist(rng), std::size_t{1}}) {
      std::vector<unsigned char> src(field_for(st, scount));
      for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<unsigned char>(i * 37 + 11);
      }
      const unsigned char* sbase = src.data() - st.lb();
      std::vector<unsigned char> want(field_for(dt, dcount), 0xEE);
      std::vector<unsigned char> got(want);
      unsigned char* wbase = want.data() - dt.lb();
      unsigned char* gbase = got.data() - dt.lb();

      std::vector<std::byte> packed(st.pack_size(scount));
      st.pack(sbase, scount, packed.data());
      const std::size_t n = std::min(limit, packed.size());
      const std::size_t want_n =
          dt.unpack_partial(packed.data(), n, wbase, dcount);
      const std::size_t got_n =
          st.copy_to(sbase, scount, gbase, dcount, dt, limit);
      ASSERT_EQ(got_n, want_n) << "trial " << trial << " limit " << limit;
      ASSERT_EQ(got, want) << "trial " << trial << " limit " << limit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatatypeFuzz,
                         ::testing::Values(11u, 23u, 37u, 59u, 71u, 97u));
