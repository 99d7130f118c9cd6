// heat2d — the 9-point stencil computation of Listing 3 in the paper,
// written against this library exactly as the paper sketches it: one
// matrix with a depth-1 ghost frame, per-neighbor ROW / COL / COR derived
// datatypes, a persistent Cart_alltoallw precomputed once with
// cart_alltoallw_init, and one execute() per Jacobi iteration.
//
// Solves the steady-state heat equation on the unit square with a hot top
// edge; prints the residual every few iterations and a coarse temperature
// map at the end.
#include <cmath>
#include <cstdio>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "mpl/reduce.hpp"

namespace {

constexpr int kProcRows = 2, kProcCols = 2;
constexpr int kN = 24;  // local interior size (kN x kN per process)

inline int idx(int i, int j) { return i * (kN + 2) + j; }

}  // namespace

int main() {
  const std::vector<int> dims{kProcRows, kProcCols};
  const std::vector<int> periods{0, 0};  // open mesh: physical boundaries

  mpl::run(kProcRows * kProcCols, [&](mpl::Comm& world) {
    // --- Listing 3: neighborhood setup -----------------------------------
    // 8 targets: the four sides, then the four corners.
    const cartcomm::Neighborhood nb(
        2, {0, 1, 0, -1, -1, 0, 1, 0, -1, 1, 1, 1, 1, -1, -1, -1});
    auto cart = cartcomm::cart_neighborhood_create(world, dims, periods, nb);

    std::vector<double> matrix(static_cast<std::size_t>((kN + 2) * (kN + 2)), 0.0);
    std::vector<double> next = matrix;

    // ROW, COL and COR datatypes over the (kN+2)^2 matrix.
    const mpl::Datatype kDouble = mpl::Datatype::of<double>();
    const mpl::Datatype ROW = mpl::Datatype::contiguous(kN, kDouble);
    const mpl::Datatype COL =
        mpl::Datatype::vector(kN, 1, kN + 2, kDouble);
    const mpl::Datatype COR = kDouble;

    // --- Listing 3: per-neighbor counts, displacements, types ------------
    std::vector<int> sendcount(8, 1), recvcount(8, 1);
    std::vector<std::ptrdiff_t> senddisp(8), recvdisp(8);
    std::vector<mpl::Datatype> sendtype(8), recvtype(8);

    auto disp = [](int i, int j) {
      return static_cast<std::ptrdiff_t>(idx(i, j)) *
             static_cast<std::ptrdiff_t>(sizeof(double));
    };
    // Target 0: (0,+1) right column out, left halo in ... laid out in the
    // same order as the neighborhood above.
    sendtype[0] = COL; senddisp[0] = disp(1, kN);     recvtype[0] = COL; recvdisp[0] = disp(1, 0);
    sendtype[1] = COL; senddisp[1] = disp(1, 1);      recvtype[1] = COL; recvdisp[1] = disp(1, kN + 1);
    sendtype[2] = ROW; senddisp[2] = disp(1, 1);      recvtype[2] = ROW; recvdisp[2] = disp(kN + 1, 1);
    sendtype[3] = ROW; senddisp[3] = disp(kN, 1);     recvtype[3] = ROW; recvdisp[3] = disp(0, 1);
    sendtype[4] = COR; senddisp[4] = disp(1, kN);     recvtype[4] = COR; recvdisp[4] = disp(kN + 1, 0);
    sendtype[5] = COR; senddisp[5] = disp(kN, kN);    recvtype[5] = COR; recvdisp[5] = disp(0, 0);
    sendtype[6] = COR; senddisp[6] = disp(kN, 1);     recvtype[6] = COR; recvdisp[6] = disp(0, kN + 1);
    sendtype[7] = COR; senddisp[7] = disp(1, 1);      recvtype[7] = COR; recvdisp[7] = disp(kN + 1, kN + 1);

    // --- Listing 3: persistent schedule, reused every iteration ----------
    auto exchange = cartcomm::alltoallw_init(
        matrix.data(), sendcount, senddisp, sendtype, matrix.data(), recvcount,
        recvdisp, recvtype, cart, cartcomm::Algorithm::combining);

    const auto coords = cart.coords();
    auto fix_boundary = [&](std::vector<double>& m) {
      if (coords[0] == 0) {  // hot top edge
        for (int j = 0; j <= kN + 1; ++j) m[static_cast<std::size_t>(idx(0, j))] = 1.0;
      }
    };

    double residual = 1.0;
    int iter = 0;
    for (; iter < 2000 && residual > 1e-7; ++iter) {
      exchange.execute();  // update (Listing 3's Cart_alltoallw)
      fix_boundary(matrix);
      double local = 0.0;
      for (int i = 1; i <= kN; ++i) {
        for (int j = 1; j <= kN; ++j) {
          const double v =
              0.25 * (matrix[static_cast<std::size_t>(idx(i - 1, j))] +
                      matrix[static_cast<std::size_t>(idx(i + 1, j))] +
                      matrix[static_cast<std::size_t>(idx(i, j - 1))] +
                      matrix[static_cast<std::size_t>(idx(i, j + 1))]);
          local = std::max(local, std::abs(v - matrix[static_cast<std::size_t>(idx(i, j))]));
          next[static_cast<std::size_t>(idx(i, j))] = v;
        }
      }
      for (int i = 1; i <= kN; ++i) {
        for (int j = 1; j <= kN; ++j) {
          matrix[static_cast<std::size_t>(idx(i, j))] = next[static_cast<std::size_t>(idx(i, j))];
        }
      }
      residual = mpl::allreduce(local, mpl::ReduceOp::max<double>(), world);
      if (world.rank() == 0 && iter % 200 == 0) {
        std::printf("iter %4d  residual %.3e\n", iter, residual);
      }
    }
    if (world.rank() == 0) {
      std::printf("stopped after %d iterations (residual %.3e)\n", iter,
                  residual);
    }

    // Coarse global map (gathered row-block averages).
    double avg = 0.0;
    for (int i = 1; i <= kN; ++i) {
      for (int j = 1; j <= kN; ++j) avg += matrix[static_cast<std::size_t>(idx(i, j))];
    }
    avg /= kN * kN;
    std::vector<double> all(static_cast<std::size_t>(world.size()));
    mpl::allgather(&avg, 1, mpl::Datatype::of<double>(), all.data(), 1,
                   mpl::Datatype::of<double>(), world);
    if (world.rank() == 0) {
      std::printf("block average temperatures:\n");
      for (int r = 0; r < kProcRows; ++r) {
        for (int c = 0; c < kProcCols; ++c) {
          std::printf("  %.4f", all[static_cast<std::size_t>(r * kProcCols + c)]);
        }
        std::printf("\n");
      }
    }
  });
  return 0;
}
