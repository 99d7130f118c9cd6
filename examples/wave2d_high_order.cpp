// wave2d_high_order — second-order wave equation with a FOURTH-order
// spatial discretization: the "higher-order stencil" use case the paper
// cites as motivation for deeper ghost regions (its references [1], [12]).
//
// The 4th-order Laplacian reads two cells in each direction, so the field
// carries a depth-2 halo; one HaloExchange per step refreshes both layers
// (Moore-shell alltoallw with depth-2 strips — the "deeper ghost regions"
// variant of Listing 3). A standing wave on the periodic unit square is
// advanced one full period and compared against the analytic solution.
#include <cmath>
#include <cstdio>
#include <vector>

#include "cartcomm/neighborhood.hpp"
#include "mpl/mpl.hpp"
#include "stencil/apply.hpp"
#include "stencil/field.hpp"
#include "stencil/halo.hpp"

namespace {

constexpr int kProc = 2;
constexpr int kLocal = 24;
constexpr int kGlobal = kProc * kLocal;  // 48^2 cells
constexpr double kC = 1.0;               // wave speed
constexpr double kDx = 1.0 / kGlobal;

}  // namespace

int main() {
  const std::vector<int> pdims{kProc, kProc};
  const std::vector<int> periods{1, 1};

  mpl::run(kProc * kProc, [&](mpl::Comm& world) {
    mpl::CartComm topo = mpl::cart_create(world, pdims, periods);
    const auto my = topo.grid().coords_of(world.rank());

    stencil::Field<double> u({kLocal, kLocal}, 2);      // current step
    stencil::Field<double> uprev({kLocal, kLocal}, 2);  // previous step
    stencil::Field<double> lap({kLocal, kLocal}, 2);    // Laplacian scratch
    stencil::HaloExchange hu(world, pdims, periods, u);

    // 4th-order 9-point Laplacian (axis-aligned):
    //   (-u[i-2] + 16 u[i-1] - 30 u[i] + 16 u[i+1] - u[i+2]) / (12 dx^2)
    // per dimension, expressed as one Neighborhood + weight vector.
    std::vector<int> flat;
    std::vector<double> w;
    const double s = 1.0 / (12.0 * kDx * kDx);
    flat.insert(flat.end(), {0, 0});
    w.push_back(-60.0 * s);
    for (int k = 0; k < 2; ++k) {
      for (const auto& [off, wt] : {std::pair{-2, -1.0}, std::pair{-1, 16.0},
                                    std::pair{1, 16.0}, std::pair{2, -1.0}}) {
        std::vector<int> v{0, 0};
        v[static_cast<std::size_t>(k)] = off;
        flat.insert(flat.end(), v.begin(), v.end());
        w.push_back(wt * s);
      }
    }
    const cartcomm::Neighborhood laplacian(2, std::move(flat));

    // Standing wave u(x, y, t) = sin(2 pi x) sin(2 pi y) cos(omega t),
    // omega = c * |k| = c * 2 pi sqrt(2).
    const double omega = kC * 2.0 * M_PI * std::sqrt(2.0);
    auto analytic = [&](int gi, int gj, double tt) {
      const double x = (gi + 0.5) * kDx, y = (gj + 0.5) * kDx;
      return std::sin(2.0 * M_PI * x) * std::sin(2.0 * M_PI * y) *
             std::cos(omega * tt);
    };

    const double dt = 0.2 * kDx / kC;  // comfortably inside the CFL limit
    const int steps = static_cast<int>(std::lround(2.0 * M_PI / omega / dt));

    for (int i = 0; i < kLocal; ++i) {
      for (int j = 0; j < kLocal; ++j) {
        const int gi = my[0] * kLocal + i, gj = my[1] * kLocal + j;
        u.at(2 + i, 2 + j) = analytic(gi, gj, 0.0);
        uprev.at(2 + i, 2 + j) = analytic(gi, gj, -dt);
      }
    }

    if (world.rank() == 0) {
      std::printf("4th-order wave equation, %dx%d cells, depth-2 halo, "
                  "%d steps for one period\n",
                  kGlobal, kGlobal, steps);
    }

    for (int step = 0; step < steps; ++step) {
      hu.exchange();
      stencil::apply_stencil(u, lap, laplacian, w);
      // Leapfrog: u_next = 2u - u_prev + (c dt)^2 lap; reuse uprev storage.
      for (int i = 2; i < kLocal + 2; ++i) {
        for (int j = 2; j < kLocal + 2; ++j) {
          const double next = 2.0 * u.at(i, j) - uprev.at(i, j) +
                              kC * kC * dt * dt * lap.at(i, j);
          uprev.at(i, j) = u.at(i, j);
          u.at(i, j) = next;
        }
      }
    }

    // Error against the analytic solution after one period.
    const double tend = steps * dt;
    double local_err = 0.0, local_norm = 0.0;
    for (int i = 0; i < kLocal; ++i) {
      for (int j = 0; j < kLocal; ++j) {
        const int gi = my[0] * kLocal + i, gj = my[1] * kLocal + j;
        const double e = u.at(2 + i, 2 + j) - analytic(gi, gj, tend);
        local_err += e * e;
        local_norm += analytic(gi, gj, tend) * analytic(gi, gj, tend);
      }
    }
    const mpl::ReduceOp sum = mpl::ReduceOp::sum<double>();
    const double err = mpl::allreduce(local_err, sum, world);
    const double norm = mpl::allreduce(local_norm, sum, world);
    if (world.rank() == 0) {
      std::printf("relative L2 error after one period: %.3e\n",
                  std::sqrt(err / norm));
    }
  });
  return 0;
}
