// game_of_life — Conway's Game of Life on a distributed periodic board.
//
// Each process owns a block of the board inside a stencil::Field; the
// Moore-neighborhood ghost frame is refreshed every generation with a
// HaloExchange in the Section 3.4 `combined` mode (corner-free face strips
// plus corner allgathers, fused into one schedule). A glider crosses the
// process boundaries; the global population is reported every few
// generations and the final pattern is printed.
#include <cstdio>
#include <vector>

#include "mpl/mpl.hpp"
#include "stencil/field.hpp"
#include "stencil/halo.hpp"

namespace {

constexpr int kProc = 2;     // 2x2 process grid
constexpr int kLocal = 12;   // local board size
constexpr int kGlobal = kProc * kLocal;
constexpr int kGenerations = 48;

}  // namespace

int main() {
  const std::vector<int> pdims{kProc, kProc};
  const std::vector<int> periods{1, 1};  // life on a torus

  mpl::run(kProc * kProc, [&](mpl::Comm& world) {
    mpl::CartComm topo = mpl::cart_create(world, pdims, periods);
    const auto my = topo.grid().coords_of(world.rank());

    stencil::Field<int> board({kLocal, kLocal}, 1);
    stencil::Field<int> scratch({kLocal, kLocal}, 1);
    stencil::HaloExchange halo(world, pdims, periods, board,
                               stencil::HaloMode::combined);

    // Seed a glider near the global origin (crosses process boundaries as
    // it travels down-right).
    auto set_global = [&](int gi, int gj) {
      const int li = gi - my[0] * kLocal;
      const int lj = gj - my[1] * kLocal;
      if (li >= 0 && li < kLocal && lj >= 0 && lj < kLocal) {
        board.at(1 + li, 1 + lj) = 1;
      }
    };
    set_global(1, 2);
    set_global(2, 3);
    set_global(3, 1);
    set_global(3, 2);
    set_global(3, 3);

    for (int gen = 0; gen <= kGenerations; ++gen) {
      // Global population check.
      int local_pop = 0;
      for (int i = 1; i <= kLocal; ++i) {
        for (int j = 1; j <= kLocal; ++j) local_pop += board.at(i, j);
      }
      const int pop =
          mpl::allreduce(local_pop, mpl::ReduceOp::sum<int>(), world);
      if (world.rank() == 0 && gen % 8 == 0) {
        std::printf("generation %2d: population %d\n", gen, pop);
      }
      if (gen == kGenerations) break;

      halo.exchange();
      for (int i = 1; i <= kLocal; ++i) {
        for (int j = 1; j <= kLocal; ++j) {
          int n = 0;
          for (int di = -1; di <= 1; ++di) {
            for (int dj = -1; dj <= 1; ++dj) {
              if (di == 0 && dj == 0) continue;
              n += board.at(i + di, j + dj);
            }
          }
          const int alive = board.at(i, j);
          scratch.at(i, j) = (n == 3 || (alive && n == 2)) ? 1 : 0;
        }
      }
      for (int i = 1; i <= kLocal; ++i) {
        for (int j = 1; j <= kLocal; ++j) board.at(i, j) = scratch.at(i, j);
      }
    }

    // Assemble and print the final global board on rank 0.
    std::vector<int> mine(static_cast<std::size_t>(kLocal * kLocal));
    for (int i = 0; i < kLocal; ++i) {
      for (int j = 0; j < kLocal; ++j) {
        mine[static_cast<std::size_t>(i * kLocal + j)] = board.at(1 + i, 1 + j);
      }
    }
    std::vector<int> all(static_cast<std::size_t>(kGlobal * kGlobal));
    mpl::gather(mine.data(), kLocal * kLocal, mpl::Datatype::of<int>(),
                all.data(), kLocal * kLocal, mpl::Datatype::of<int>(), 0, world);
    if (world.rank() == 0) {
      std::printf("final board (glider after %d generations, %d rounds/%lld "
                  "bytes per exchange):\n",
                  kGenerations, halo.rounds(), halo.send_bytes());
      for (int gi = 0; gi < kGlobal; ++gi) {
        for (int gj = 0; gj < kGlobal; ++gj) {
          const int pr = gi / kLocal, pc = gj / kLocal;
          const int li = gi % kLocal, lj = gj % kLocal;
          const int rank = pr * kProc + pc;
          const int v = all[static_cast<std::size_t>(
              rank * kLocal * kLocal + li * kLocal + lj)];
          std::putchar(v ? '#' : '.');
        }
        std::putchar('\n');
      }
    }
  });
  return 0;
}
