// Stencil substrate: box datatypes, field indexing, halo exchange in both
// modes (alltoallw vs the Section 3.4 combined plan), Jacobi convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "mpl/mpl.hpp"
#include "stencil/field.hpp"
#include "stencil/apply.hpp"
#include "stencil/halo.hpp"

using stencil::Field;
using stencil::HaloExchange;
using stencil::HaloMode;

namespace {

// Global cell owner oracle: every process fills its interior with
// f(global coords); after an exchange every ghost cell must hold the value
// the owning process wrote.
int cell_value(std::span<const int> gcoord) {
  // Unsigned arithmetic wraps where int would overflow (17 * 1009^3 >
  // INT_MAX); the conversion back to int is modular.
  unsigned v = 17;
  for (int c : gcoord) v = v * 1009u + static_cast<unsigned>(c);
  return static_cast<int>(v);
}

struct HaloCase {
  HaloMode mode;
  int depth;
};

class HaloModes : public ::testing::TestWithParam<HaloCase> {};

// Run a 2-D halo exchange on a 3x3 periodic process grid with nloc x nloc
// interiors and verify every padded cell against the owner oracle.
void check_halo_2d(HaloMode mode, int depth, int nloc,
                   const std::vector<int>& periods) {
  const std::vector<int> pdims{3, 3};
  mpl::run(9, [&](mpl::Comm& world) {
    mpl::CartComm topo = mpl::cart_create(world, pdims, periods);
    Field<int> f({nloc, nloc}, depth);
    const auto my = topo.grid().coords_of(world.rank());
    // Fill interior with global-coordinate values.
    for (int i = 0; i < nloc; ++i) {
      for (int j = 0; j < nloc; ++j) {
        const std::vector<int> g{my[0] * nloc + i, my[1] * nloc + j};
        f.at(depth + i, depth + j) = cell_value(g);
      }
    }
    HaloExchange hx(world, pdims, periods, f, mode);
    hx.exchange();

    const int gx = 3 * nloc, gy = 3 * nloc;
    for (int pi = 0; pi < nloc + 2 * depth; ++pi) {
      for (int pj = 0; pj < nloc + 2 * depth; ++pj) {
        // Global coordinates of this padded cell.
        int gi = my[0] * nloc + (pi - depth);
        int gj = my[1] * nloc + (pj - depth);
        const bool off_i = gi < 0 || gi >= gx;
        const bool off_j = gj < 0 || gj >= gy;
        const bool wrap_i = periods.empty() || periods[0] != 0;
        const bool wrap_j = periods.empty() || periods[1] != 0;
        if ((off_i && !wrap_i) || (off_j && !wrap_j)) {
          ASSERT_EQ(f.at(pi, pj), 0) << "ghost off the mesh must stay zero at ("
                                     << pi << "," << pj << ")";
          continue;
        }
        gi = ((gi % gx) + gx) % gx;
        gj = ((gj % gy) + gy) % gy;
        const std::vector<int> g{gi, gj};
        ASSERT_EQ(f.at(pi, pj), cell_value(g))
            << "rank " << world.rank() << " padded (" << pi << "," << pj << ")";
      }
    }
  });
}

}  // namespace

TEST(BoxType, SelectsSubMatrix) {
  const std::vector<int> padded{4, 5};
  const std::vector<int> lo{1, 2};
  const std::vector<int> hi{3, 5};
  mpl::Datatype t = stencil::box_type(padded, lo, hi, mpl::Datatype::of<int>());
  EXPECT_EQ(t.size(), 2u * 3u * sizeof(int));
  std::vector<int> m(20);
  std::iota(m.begin(), m.end(), 0);
  std::vector<std::byte> buf(t.pack_size(1));
  t.pack(m.data(), 1, buf.data());
  const int* p = reinterpret_cast<const int*>(buf.data());
  EXPECT_EQ(p[0], 7);
  EXPECT_EQ(p[1], 8);
  EXPECT_EQ(p[2], 9);
  EXPECT_EQ(p[3], 12);
  EXPECT_EQ(p[4], 13);
  EXPECT_EQ(p[5], 14);
}

TEST(BoxType, EmptyBox) {
  const std::vector<int> padded{4, 4};
  const std::vector<int> lo{2, 2};
  const std::vector<int> hi{2, 4};
  mpl::Datatype t = stencil::box_type(padded, lo, hi, mpl::Datatype::of<int>());
  EXPECT_EQ(t.size(), 0u);
}

TEST(BoxType, ThreeDimensional) {
  const std::vector<int> padded{3, 3, 3};
  const std::vector<int> lo{1, 1, 1};
  const std::vector<int> hi{3, 3, 3};
  mpl::Datatype t =
      stencil::box_type(padded, lo, hi, mpl::Datatype::of<double>());
  EXPECT_EQ(t.size(), 8 * sizeof(double));
  EXPECT_EQ(t.block_count(), 4u);  // 2x2 rows of length 2
}

TEST(FieldT, IndexingAndZeroInit) {
  Field<double> f({4, 6}, 2);
  EXPECT_EQ(f.ndims(), 2);
  EXPECT_EQ(f.padded()[0], 8);
  EXPECT_EQ(f.padded()[1], 10);
  EXPECT_EQ(f.size(), 80u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 0.0);
  f.at(3, 4) = 2.5;
  const std::vector<int> idx{3, 4};
  EXPECT_DOUBLE_EQ(f.at(idx), 2.5);
}

TEST(FieldT, Validation) {
  EXPECT_THROW(Field<int>({}, 1), mpl::Error);
  EXPECT_THROW(Field<int>({0, 3}, 1), mpl::Error);
  EXPECT_THROW(Field<int>({3, 3}, -1), mpl::Error);
}

TEST_P(HaloModes, PeriodicGrid) {
  const auto [mode, depth] = GetParam();
  check_halo_2d(mode, depth, 6, {1, 1});
}

TEST_P(HaloModes, OpenMesh) {
  const auto [mode, depth] = GetParam();
  check_halo_2d(mode, depth, 6, {0, 0});
}

TEST_P(HaloModes, Cylinder) {
  const auto [mode, depth] = GetParam();
  check_halo_2d(mode, depth, 6, {1, 0});
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndDepths, HaloModes,
    ::testing::Values(HaloCase{HaloMode::alltoallw, 1},
                      HaloCase{HaloMode::alltoallw, 2},
                      HaloCase{HaloMode::combined, 1},
                      HaloCase{HaloMode::combined, 2},
                      HaloCase{HaloMode::combined, 3}));

TEST(Halo, CombinedSavesVolumeSameRounds) {
  mpl::run(9, [](mpl::Comm& world) {
    const std::vector<int> pdims{3, 3};
    const std::vector<int> periods{1, 1};
    Field<double> f({8, 8}, 2);
    HaloExchange plain(world, pdims, periods, f, HaloMode::alltoallw,
                       cartcomm::Algorithm::combining);
    HaloExchange comb(world, pdims, periods, f, HaloMode::combined);
    ASSERT_GT(plain.send_bytes(), 0);
    EXPECT_LT(comb.send_bytes(), plain.send_bytes());
    EXPECT_EQ(comb.rounds(), plain.rounds());  // coalescing keeps C = 2d
    EXPECT_EQ(comb.rounds(), 4);
  });
}

TEST(Halo, ThreeDimensionalCombinedMatchesPlain) {
  // The generalized Section 3.4 decomposition in 3-D (faces + 12 edge
  // regions + 8 vertex regions) must produce exactly the same halo as the
  // plain Moore-shell alltoallw.
  // (On a width-2 torus the +1/-1 rounds would be offset-congruent and
  // fuse to d rounds; width 3 keeps the canonical 2d-round structure.)
  const std::vector<int> pdims{3, 3, 3};
  const std::vector<int> periods{1, 1, 1};
  mpl::run(27, [&](mpl::Comm& world) {
    const int nloc = 6;
    Field<int> a({nloc, nloc, nloc}, 2);
    Field<int> b({nloc, nloc, nloc}, 2);
    for (std::size_t j = 0; j < a.size(); ++j) {
      a.data()[j] = b.data()[j] = 0;
    }
    std::vector<int> idx(3);
    mpl::CartComm topo = mpl::cart_create(world, pdims, periods);
    const auto my = topo.grid().coords_of(world.rank());
    for (idx[0] = 2; idx[0] < nloc + 2; ++idx[0]) {
      for (idx[1] = 2; idx[1] < nloc + 2; ++idx[1]) {
        for (idx[2] = 2; idx[2] < nloc + 2; ++idx[2]) {
          std::vector<int> gc(3);
          for (int k = 0; k < 3; ++k) {
            gc[static_cast<std::size_t>(k)] =
                my[static_cast<std::size_t>(k)] * nloc + idx[static_cast<std::size_t>(k)] - 2;
          }
          a.at(idx) = b.at(idx) = cell_value(gc);
        }
      }
    }
    HaloExchange plain(world, pdims, periods, a, HaloMode::alltoallw);
    HaloExchange comb(world, pdims, periods, b, HaloMode::combined);
    plain.exchange();
    comb.exchange();
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a.data()[j], b.data()[j]) << "cell " << j;
    }
    // Section 3.4 payoff: fewer bytes, same round count (2d).
    EXPECT_LT(comb.send_bytes(), plain.send_bytes());
    EXPECT_EQ(comb.rounds(), 6);
  });
}

TEST(Halo, ThreeDimensionalAlltoallw) {
  const std::vector<int> pdims{2, 2, 2};
  mpl::run(8, [&](mpl::Comm& world) {
    mpl::CartComm topo = mpl::cart_create(world, pdims, {});
    const int nloc = 4;
    Field<int> f({nloc, nloc, nloc}, 1);
    const auto my = topo.grid().coords_of(world.rank());
    for (int i = 0; i < nloc; ++i) {
      for (int j = 0; j < nloc; ++j) {
        for (int k = 0; k < nloc; ++k) {
          const std::vector<int> g{my[0] * nloc + i, my[1] * nloc + j,
                                   my[2] * nloc + k};
          const std::vector<int> idx{1 + i, 1 + j, 1 + k};
          f.at(idx) = cell_value(g);
        }
      }
    }
    HaloExchange hx(world, pdims, {}, f, HaloMode::alltoallw);
    hx.exchange();
    // Spot-check all 26 ghost directions through the corner cell test:
    // every padded cell must match the owner oracle.
    const int n = nloc, gx = 2 * nloc;
    std::vector<int> idx(3);
    for (idx[0] = 0; idx[0] < n + 2; ++idx[0]) {
      for (idx[1] = 0; idx[1] < n + 2; ++idx[1]) {
        for (idx[2] = 0; idx[2] < n + 2; ++idx[2]) {
          std::vector<int> g(3);
          for (int k = 0; k < 3; ++k) {
            g[static_cast<std::size_t>(k)] =
                ((my[static_cast<std::size_t>(k)] * nloc + idx[static_cast<std::size_t>(k)] - 1) % gx + gx) % gx;
          }
          ASSERT_EQ(f.at(idx), cell_value(g));
        }
      }
    }
  });
}

TEST(Decomposition, IndexMathRoundTrips) {
  stencil::Decomposition dec({12, 8}, {3, 2});
  EXPECT_EQ(dec.local()[0], 4);
  EXPECT_EQ(dec.local()[1], 4);
  const std::vector<int> pc{2, 1};
  const std::vector<int> li{3, 0};
  const std::vector<int> g = dec.global_of(pc, li);
  EXPECT_EQ(g, (std::vector<int>{11, 4}));
  EXPECT_EQ(dec.owner(g), pc);
  EXPECT_EQ(dec.local_of(g), li);
}

TEST(Decomposition, RejectsUnevenBlocks) {
  EXPECT_THROW(stencil::Decomposition({10, 8}, {3, 2}), mpl::Error);
}

TEST(ApplyStencil, LaplacianOfQuadratic) {
  // 5-point Laplacian of f(x,y) = x^2 is exactly 2 in the interior.
  stencil::Field<double> u({6, 6}, 1);
  stencil::Field<double> out({6, 6}, 1);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) u.at(i, j) = static_cast<double>(i * i);
  }
  const cartcomm::Neighborhood nb = cartcomm::Neighborhood::von_neumann(2, true);
  // von_neumann(include_self) order: self, (-1,0), (1,0), (0,-1), (0,1).
  const std::vector<double> w{-4.0, 1.0, 1.0, 1.0, 1.0};
  stencil::apply_stencil(u, out, nb, w);
  for (int i = 1; i <= 6; ++i) {
    for (int j = 1; j <= 6; ++j) {
      EXPECT_DOUBLE_EQ(out.at(i, j), 2.0) << i << "," << j;
    }
  }
}

TEST(ApplyStencil, MooreAverageConservesConstant) {
  stencil::Field<float> u({4, 4, 4}, 1);
  stencil::Field<float> out({4, 4, 4}, 1);
  for (std::size_t j = 0; j < u.size(); ++j) u.data()[j] = 2.0f;
  const cartcomm::Neighborhood nb = cartcomm::Neighborhood::moore(3);
  std::vector<float> w(27, 1.0f / 27.0f);
  stencil::apply_stencil(u, out, nb, w);
  std::vector<int> idx{2, 2, 2};
  EXPECT_FLOAT_EQ(out.at(idx), 2.0f);
}

TEST(ApplyStencil, RejectsTooWideStencil) {
  stencil::Field<double> u({4, 4}, 1);
  stencil::Field<double> out({4, 4}, 1);
  const cartcomm::Neighborhood wide(2, {2, 0});
  const std::vector<double> w{1.0};
  EXPECT_THROW(stencil::apply_stencil(u, out, wide, w), mpl::Error);
}

TEST(ApplyStencil, DistributedShiftMatchesOracle) {
  // A pure shift stencil after a halo exchange moves the global field by
  // one cell, across process boundaries.
  const std::vector<int> pdims{2, 2};
  const std::vector<int> periods{1, 1};
  mpl::run(4, [&](mpl::Comm& world) {
    mpl::CartComm topo = mpl::cart_create(world, pdims, periods);
    const auto my = topo.grid().coords_of(world.rank());
    const int nloc = 4;
    stencil::Decomposition dec({8, 8}, pdims);
    stencil::Field<double> u({nloc, nloc}, 1);
    stencil::Field<double> out({nloc, nloc}, 1);
    for (int i = 0; i < nloc; ++i) {
      for (int j = 0; j < nloc; ++j) {
        const auto g = dec.global_of(my, std::vector<int>{i, j});
        u.at(1 + i, 1 + j) = g[0] * 100 + g[1];
      }
    }
    stencil::HaloExchange hx(world, pdims, periods, u, HaloMode::combined);
    hx.exchange();
    const cartcomm::Neighborhood shift(2, {1, 1});  // read down-right
    const std::vector<double> w{1.0};
    stencil::apply_stencil(u, out, shift, w);
    for (int i = 0; i < nloc; ++i) {
      for (int j = 0; j < nloc; ++j) {
        const auto g = dec.global_of(my, std::vector<int>{i, j});
        const int gi = (g[0] + 1) % 8, gj = (g[1] + 1) % 8;
        EXPECT_DOUBLE_EQ(out.at(1 + i, 1 + j), gi * 100 + gj);
      }
    }
  });
}

TEST(Halo, JacobiConvergesToLinearProfile) {
  // 1-D heat equation posed on a 2-D grid (3x1 process column): fixed
  // boundary values 0 and 1; Jacobi iteration must approach the linear
  // steady state. Exercises repeated persistent exchanges.
  const std::vector<int> pdims{3, 1};
  const std::vector<int> periods{0, 0};
  mpl::run(3, [&](mpl::Comm& world) {
    const int nloc = 4;           // 12 interior rows globally
    const int N = 3 * nloc;       // global rows
    Field<double> u({nloc, 4}, 1);
    Field<double> v({nloc, 4}, 1);
    HaloExchange hu(world, pdims, periods, u, HaloMode::alltoallw);
    HaloExchange hv(world, pdims, periods, v, HaloMode::alltoallw);

    auto fix_boundaries = [&](Field<double>& f) {
      if (world.rank() == 0) {
        for (int j = 0; j < 6; ++j) f.at(0, j) = 0.0;  // top boundary row
      }
      if (world.rank() == 2) {
        for (int j = 0; j < 6; ++j) f.at(nloc + 1, j) = 1.0;
      }
    };

    for (int iter = 0; iter < 400; ++iter) {
      Field<double>& src = (iter % 2 == 0) ? u : v;
      Field<double>& dst = (iter % 2 == 0) ? v : u;
      const HaloExchange& hx = (iter % 2 == 0) ? hu : hv;
      hx.exchange();
      fix_boundaries(src);
      for (int i = 1; i <= nloc; ++i) {
        for (int j = 1; j <= 4; ++j) {
          dst.at(i, j) = 0.5 * (src.at(i - 1, j) + src.at(i + 1, j));
        }
      }
    }
    // Steady state: u(row) = (global_row + 1) / (N + 1).
    for (int i = 1; i <= nloc; ++i) {
      const int grow = world.rank() * nloc + (i - 1);
      const double expect = static_cast<double>(grow + 1) / (N + 1);
      EXPECT_NEAR(u.at(i, 2), expect, 1e-2) << "row " << grow;
    }
  });
}
