// advection3d — first-order upwind advection of a Gaussian blob on a 3-D
// periodic domain, decomposed over a 3-D process torus.
//
// The 27-point ghost frame is refreshed with a HaloExchange over the full
// Moore shell (Cart_alltoallw with the message-combining schedule: 3
// phases, 6 rounds instead of 26). The blob drifts diagonally and must
// return to its starting position after one full domain traversal — the
// example checks mass conservation and the final blob center.
#include <cmath>
#include <cstdio>
#include <vector>

#include "mpl/mpl.hpp"
#include "stencil/field.hpp"
#include "stencil/halo.hpp"

namespace {

constexpr int kP = 2;       // 2x2x2 process grid
constexpr int kL = 8;       // local cells per dimension
constexpr int kG = kP * kL; // global cells per dimension
constexpr double kCfl = 0.25;  // per-axis; total 3*kCfl < 1 keeps upwind stable

}  // namespace

int main() {
  const std::vector<int> pdims{kP, kP, kP};
  const std::vector<int> periods{1, 1, 1};

  mpl::run(kP * kP * kP, [&](mpl::Comm& world) {
    mpl::CartComm topo = mpl::cart_create(world, pdims, periods);
    const auto my = topo.grid().coords_of(world.rank());

    // Double buffering with one persistent halo plan per buffer (plans are
    // bound to the buffer addresses they were created with).
    stencil::Field<double> u({kL, kL, kL}, 1);
    stencil::Field<double> v({kL, kL, kL}, 1);
    stencil::HaloExchange halo_u(world, pdims, periods, u,
                                 stencil::HaloMode::alltoallw);
    stencil::HaloExchange halo_v(world, pdims, periods, v,
                                 stencil::HaloMode::alltoallw);
    const stencil::HaloExchange& halo = halo_u;

    // Gaussian blob centered at the domain center.
    for (int i = 0; i < kL; ++i) {
      for (int j = 0; j < kL; ++j) {
        for (int k = 0; k < kL; ++k) {
          const double x = my[0] * kL + i - kG / 2.0 + 0.5;
          const double y = my[1] * kL + j - kG / 2.0 + 0.5;
          const double z = my[2] * kL + k - kG / 2.0 + 0.5;
          const std::vector<int> idx{1 + i, 1 + j, 1 + k};
          u.at(idx) = std::exp(-(x * x + y * y + z * z) / 8.0);
        }
      }
    }

    auto mass = [&] {
      double local = 0.0;
      for (int i = 1; i <= kL; ++i) {
        for (int j = 1; j <= kL; ++j) {
          for (int k = 1; k <= kL; ++k) {
            const std::vector<int> idx{i, j, k};
            local += u.at(idx);
          }
        }
      }
      return mpl::allreduce(local, mpl::ReduceOp::sum<double>(), world);
    };

    const double mass0 = mass();
    if (world.rank() == 0) {
      std::printf("3-D upwind advection, %d^3 cells on a %d^3 torus\n", kG, kP);
      std::printf("halo plan: %d rounds, %lld bytes per process per exchange\n",
                  halo.rounds(), halo.send_bytes());
      std::printf("initial mass %.6f\n", mass0);
    }

    // One full traversal: kG steps of kCfl cells per step along each axis.
    const int steps = static_cast<int>(kG / kCfl);
    for (int s = 0; s < steps; ++s) {
      stencil::Field<double>& src = (s % 2 == 0) ? u : v;
      stencil::Field<double>& dst = (s % 2 == 0) ? v : u;
      ((s % 2 == 0) ? halo_u : halo_v).exchange();
      for (int i = 1; i <= kL; ++i) {
        for (int j = 1; j <= kL; ++j) {
          for (int k = 1; k <= kL; ++k) {
            const std::vector<int> c{i, j, k};
            const std::vector<int> xm{i - 1, j, k};
            const std::vector<int> ym{i, j - 1, k};
            const std::vector<int> zm{i, j, k - 1};
            // Dimension-split upwind update for velocity (1,1,1).
            dst.at(c) = src.at(c) - kCfl * (3.0 * src.at(c) - src.at(xm) -
                                            src.at(ym) - src.at(zm));
          }
        }
      }
      if (world.rank() == 0 && s % 8 == 0) {
        std::printf("step %3d\n", s);
      }
    }
    if (steps % 2 == 1) {
      // Final state ended in v: copy back so the diagnostics read u.
      std::copy(v.data(), v.data() + v.size(), u.data());
    }

    const double mass1 = mass();
    // Center of mass (modulo the torus this is approximate: report the max
    // cell instead, which must be back near the domain center).
    double local_max = 0.0;
    std::vector<int> local_arg{0, 0, 0};
    for (int i = 1; i <= kL; ++i) {
      for (int j = 1; j <= kL; ++j) {
        for (int k = 1; k <= kL; ++k) {
          const std::vector<int> idx{i, j, k};
          if (u.at(idx) > local_max) {
            local_max = u.at(idx);
            local_arg = {my[0] * kL + i - 1, my[1] * kL + j - 1,
                         my[2] * kL + k - 1};
          }
        }
      }
    }
    const double global_max =
        mpl::allreduce(local_max, mpl::ReduceOp::max<double>(), world);
    if (world.rank() == 0) {
      std::printf("final mass %.6f (drift %.2e)\n", mass1,
                  std::abs(mass1 - mass0));
    }
    // Report the lowest rank holding the peak, from rank 0 only, so the
    // output does not depend on thread scheduling.
    const int holder = mpl::allreduce(
        local_max == global_max ? world.rank() : world.size(),
        mpl::ReduceOp::min<int>(), world);
    mpl::bcast(local_arg.data(), 3, mpl::Datatype::of<int>(), holder, world);
    if (world.rank() == 0) {
      std::printf("peak %.4f at global cell (%d,%d,%d) on rank %d\n",
                  global_max, local_arg[0], local_arg[1], local_arg[2],
                  holder);
    }
  });
  return 0;
}
