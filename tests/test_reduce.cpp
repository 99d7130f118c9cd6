// Rank reductions over mpl::ReduceOp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "mpl/mpl.hpp"

using mpl::Comm;
using mpl::Datatype;
using mpl::ReduceOp;

namespace {
class ReduceSizes : public ::testing::TestWithParam<int> {};
}

TEST_P(ReduceSizes, SumToEveryRoot) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    for (int root = 0; root < c.size(); ++root) {
      const int v = c.rank() + 1;
      int out = -1;
      mpl::reduce(&v, &out, 1, Datatype::of<int>(), ReduceOp::sum<int>(), root,
                  c);
      if (c.rank() == root) {
        EXPECT_EQ(out, c.size() * (c.size() + 1) / 2);
      }
    }
  });
}

TEST_P(ReduceSizes, AllreduceSumMinMax) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    const int r = c.rank();
    EXPECT_EQ(mpl::allreduce(r, ReduceOp::sum<int>(), c),
              c.size() * (c.size() - 1) / 2);
    EXPECT_EQ(mpl::allreduce(r, ReduceOp::min<int>(), c), 0);
    EXPECT_EQ(mpl::allreduce(r, ReduceOp::max<int>(), c), c.size() - 1);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceSizes, ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(Reduce, VectorValued) {
  mpl::run(4, [](Comm& c) {
    std::vector<double> v{1.0 * c.rank(), 2.0 * c.rank(), -1.0 * c.rank()};
    std::vector<double> out(3, 0.0);
    mpl::allreduce(v.data(), out.data(), 3, Datatype::of<double>(),
                   ReduceOp::sum<double>(), c);
    EXPECT_DOUBLE_EQ(out[0], 6.0);
    EXPECT_DOUBLE_EQ(out[1], 12.0);
    EXPECT_DOUBLE_EQ(out[2], -6.0);
  });
}

TEST(Reduce, ProductAndBitOr) {
  mpl::run(3, [](Comm& c) {
    EXPECT_EQ(mpl::allreduce(c.rank() + 1, ReduceOp::prod<int>(), c), 6);
    EXPECT_EQ(mpl::allreduce(1 << c.rank(), ReduceOp::bit_or<int>(), c), 0b111);
  });
}

TEST(Reduce, LogicalOps) {
  mpl::run(4, [](Comm& c) {
    const int mine = c.rank() == 2 ? 1 : 0;
    EXPECT_EQ(mpl::allreduce(mine, ReduceOp::logical_or<int>(), c), 1);
    EXPECT_EQ(mpl::allreduce(mine, ReduceOp::logical_and<int>(), c), 0);
  });
}

TEST(Reduce, CustomLambdaOperator) {
  mpl::run(4, [](Comm& c) {
    // max-by-absolute-value as a user-provided commutative op
    const int v = (c.rank() % 2 == 0 ? -1 : 1) * (c.rank() + 1);
    const ReduceOp absmax = ReduceOp::make<int>(
        "absmax",
        [](int a, int b) { return std::abs(a) >= std::abs(b) ? a : b; },
        /*commutative=*/true);
    const int out = mpl::allreduce(v, absmax, c);
    EXPECT_EQ(out, 4);  // rank 3 contributes +4, the largest magnitude
  });
}

TEST(Reduce, RootOutOfRangeThrows) {
  EXPECT_THROW(mpl::run(2,
                        [](Comm& c) {
                          const int v = 1;
                          int out;
                          mpl::reduce(&v, &out, 1, Datatype::of<int>(),
                                      ReduceOp::sum<int>(), 5, c);
                        }),
               mpl::Error);
}

TEST(Reduce, RejectsMismatchedOrNonDenseType) {
  const Datatype kInt = Datatype::of<int>();
  const ReduceOp sum = ReduceOp::sum<int>();
  // 8-byte elements for a 4-byte op; a 4-byte int padded to an 8-byte
  // extent, which the fold cannot walk as a dense array.
  for (const Datatype& t :
       {Datatype::of<double>(), Datatype::resized(kInt, 0, 8)}) {
    for (int entry = 0; entry < 5; ++entry) {
      EXPECT_THROW(mpl::run(2,
                            [&](Comm& c) {
                              std::int64_t in[4] = {};
                              std::int64_t out[4] = {};
                              switch (entry) {
                                case 0:
                                  mpl::reduce(in, out, 1, t, sum, 0, c);
                                  break;
                                case 1:
                                  mpl::allreduce(in, out, 1, t, sum, c);
                                  break;
                                case 2:
                                  mpl::scan(in, out, 1, t, sum, c);
                                  break;
                                case 3:
                                  mpl::exscan(in, out, 1, t, sum, c);
                                  break;
                                default:
                                  mpl::reduce_scatter_block(in, out, 1, t, sum,
                                                            c);
                              }
                            }),
                   mpl::Error)
          << "entry point " << entry;
    }
  }
}

// -- order contract: scans keep rank order for non-commutative ops -----------

namespace {

/// 2x2 matrix over the integers mod 2^64: associative, not commutative.
struct Mat2 {
  std::uint64_t a, b, c, d;
  friend bool operator==(const Mat2&, const Mat2&) = default;
};

Mat2 mul(const Mat2& x, const Mat2& y) {
  return {x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
          x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
}

/// Rank r's j-th input element.
Mat2 input(int r, int j) {
  const auto u = static_cast<std::uint64_t>(r);
  const auto v = static_cast<std::uint64_t>(j);
  return {1 + v, u + 2, 3 * u + v, 1};
}

class ScanOrder : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(ScanOrder, NonCommutativeMatrixProductInRankOrder) {
  constexpr int kCount = 3;
  ASSERT_FALSE(mul(input(0, 0), input(1, 0)) == mul(input(1, 0), input(0, 0)));
  const ReduceOp matmul =
      ReduceOp::make<Mat2>("matmul", mul, /*commutative=*/false);
  mpl::run(GetParam(), [&](Comm& c) {
    const int r = c.rank();
    Mat2 in[kCount];
    for (int j = 0; j < kCount; ++j) in[j] = input(r, j);
    Mat2 incl[kCount];
    Mat2 excl[kCount];
    mpl::scan(in, incl, kCount, Datatype::of<Mat2>(), matmul, c);
    mpl::exscan(in, excl, kCount, Datatype::of<Mat2>(), matmul, c);
    for (int j = 0; j < kCount; ++j) {
      // Oracle: the product of ranks 0..r, lower ranks on the left.
      Mat2 before{};  // exscan leaves rank 0 zeroed
      Mat2 upto = input(0, j);
      for (int q = 1; q <= r; ++q) {
        before = upto;
        upto = mul(upto, input(q, j));
      }
      EXPECT_EQ(incl[j], upto) << "scan, rank " << r << " element " << j;
      EXPECT_EQ(excl[j], before) << "exscan, rank " << r << " element " << j;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ScanOrder, ::testing::Range(1, 9));
