// lattice_boltzmann — D2Q9 lattice-Boltzmann flow (lid-driven-style shear
// decay on a periodic domain), the kind of production stencil code the
// paper's interface targets: nine distribution functions per cell, a
// Moore-shaped communication pattern, and a persistent halo plan executed
// every time step.
//
// Each distribution function f_q streams along its own lattice velocity,
// so the halo exchange moves a different field component in each
// direction — exercised here through one combined HaloExchange per
// component field. The example initializes a sinusoidal shear wave and
// verifies the analytic viscous decay rate, plus exact mass conservation.
#include <cmath>
#include <cstdio>
#include <vector>

#include "mpl/mpl.hpp"
#include "stencil/field.hpp"
#include "stencil/halo.hpp"

namespace {

constexpr int kProc = 2;    // 2x2 process grid
constexpr int kLocal = 16;  // local lattice size
constexpr int kGlobal = kProc * kLocal;
constexpr double kTau = 0.8;  // relaxation time; nu = (tau - 0.5)/3
constexpr int kSteps = 120;

// D2Q9 velocities and weights.
constexpr int kQ = 9;
constexpr int cx[kQ] = {0, 1, 0, -1, 0, 1, -1, -1, 1};
constexpr int cy[kQ] = {0, 0, 1, 0, -1, 1, 1, -1, -1};
constexpr double w[kQ] = {4.0 / 9,  1.0 / 9,  1.0 / 9,  1.0 / 9, 1.0 / 9,
                          1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36};

double feq(int q, double rho, double ux, double uy) {
  const double cu = 3.0 * (cx[q] * ux + cy[q] * uy);
  const double uu = 1.5 * (ux * ux + uy * uy);
  return w[q] * rho * (1.0 + cu + 0.5 * cu * cu - uu);
}

}  // namespace

int main() {
  const std::vector<int> pdims{kProc, kProc};
  const std::vector<int> periods{1, 1};

  mpl::run(kProc * kProc, [&](mpl::Comm& world) {
    mpl::CartComm topo = mpl::cart_create(world, pdims, periods);
    const auto my = topo.grid().coords_of(world.rank());

    // One padded field per distribution function, each with its own
    // persistent combined halo plan.
    std::vector<stencil::Field<double>> f;
    std::vector<stencil::HaloExchange> halo;
    f.reserve(kQ);
    for (int q = 0; q < kQ; ++q) f.emplace_back(std::vector<int>{kLocal, kLocal}, 1);
    halo.reserve(kQ);
    for (int q = 0; q < kQ; ++q) {
      halo.emplace_back(world, pdims, periods, f[static_cast<std::size_t>(q)],
                        stencil::HaloMode::combined);
    }
    std::vector<stencil::Field<double>> fnew = f;  // post-streaming buffers

    // Initial condition: shear wave u_x(y) = U sin(2 pi y / N), rho = 1.
    constexpr double U = 0.05;
    for (int i = 0; i < kLocal; ++i) {
      for (int j = 0; j < kLocal; ++j) {
        const int gy = my[0] * kLocal + i;
        const double ux = U * std::sin(2.0 * M_PI * gy / kGlobal);
        for (int q = 0; q < kQ; ++q) {
          f[static_cast<std::size_t>(q)].at(1 + i, 1 + j) = feq(q, 1.0, ux, 0.0);
        }
      }
    }

    auto moments = [&](double& mass, double& umax) {
      double local_mass = 0.0, local_umax = 0.0;
      for (int i = 1; i <= kLocal; ++i) {
        for (int j = 1; j <= kLocal; ++j) {
          double rho = 0.0, mx = 0.0;
          for (int q = 0; q < kQ; ++q) {
            const double v = f[static_cast<std::size_t>(q)].at(i, j);
            rho += v;
            mx += v * cx[q];
          }
          local_mass += rho;
          local_umax = std::max(local_umax, std::abs(mx / rho));
        }
      }
      mass = mpl::allreduce(local_mass, mpl::ReduceOp::sum<double>(), world);
      umax = mpl::allreduce(local_umax, mpl::ReduceOp::max<double>(), world);
    };

    double mass0, u0;
    moments(mass0, u0);
    if (world.rank() == 0) {
      std::printf("D2Q9 lattice-Boltzmann shear decay, %dx%d lattice on "
                  "%dx%d processes\n",
                  kGlobal, kGlobal, kProc, kProc);
      std::printf("halo plan per component: %d rounds\n", halo[1].rounds());
      std::printf("step %4d: mass %.6f, max |u_x| %.6f\n", 0, mass0, u0);
    }

    for (int s = 1; s <= kSteps; ++s) {
      // Collide (BGK relaxation toward equilibrium).
      for (int i = 1; i <= kLocal; ++i) {
        for (int j = 1; j <= kLocal; ++j) {
          double rho = 0.0, mx = 0.0, my_ = 0.0;
          for (int q = 0; q < kQ; ++q) {
            const double v = f[static_cast<std::size_t>(q)].at(i, j);
            rho += v;
            mx += v * cx[q];
            my_ += v * cy[q];
          }
          const double ux = mx / rho, uy = my_ / rho;
          for (int q = 0; q < kQ; ++q) {
            double& v = f[static_cast<std::size_t>(q)].at(i, j);
            v += (feq(q, rho, ux, uy) - v) / kTau;
          }
        }
      }
      // Exchange ghosts, then stream: f_q(x) <- f_q(x - c_q).
      for (int q = 1; q < kQ; ++q) halo[static_cast<std::size_t>(q)].exchange();
      for (int q = 1; q < kQ; ++q) {
        auto& src = f[static_cast<std::size_t>(q)];
        auto& dst = fnew[static_cast<std::size_t>(q)];
        for (int i = 1; i <= kLocal; ++i) {
          for (int j = 1; j <= kLocal; ++j) {
            dst.at(i, j) = src.at(i - cy[q], j - cx[q]);
          }
        }
        for (int i = 1; i <= kLocal; ++i) {
          for (int j = 1; j <= kLocal; ++j) src.at(i, j) = dst.at(i, j);
        }
      }
      if (s % 40 == 0) {
        double mass, umax;
        moments(mass, umax);
        if (world.rank() == 0) {
          std::printf("step %4d: mass %.6f, max |u_x| %.6f\n", s, mass, umax);
        }
      }
    }

    double mass1, u1;
    moments(mass1, u1);
    // Analytic viscous decay: u(t) = U exp(-nu k^2 t), nu = (tau-0.5)/3.
    const double nu = (kTau - 0.5) / 3.0;
    const double k2 = std::pow(2.0 * M_PI / kGlobal, 2);
    const double expect = U * std::exp(-nu * k2 * kSteps);
    if (world.rank() == 0) {
      std::printf("mass drift %.2e; final max |u_x| %.6f vs analytic %.6f "
                  "(%.1f%% off)\n",
                  std::abs(mass1 - mass0), u1, expect,
                  100.0 * std::abs(u1 - expect) / expect);
    }
  });
  return 0;
}
