// Ablation (Section 2): value of the persistent *_init operations and of
// the compiled-plan cache. Compares per-iteration cost of (a) the
// persistent precomputed schedule, (b) the non-persistent collective with
// the plan cache warm (compile and bind once: a repeated call with the same
// buffers runs the schedule its communicator's one-shot slot bound), (c)
// the non-persistent collective with the cache disabled (full schedule
// recomputation every call, the behaviour an MPI library without
// persistence would exhibit), measured in wall-clock time (schedule
// construction is host CPU work, invisible to the virtual clocks).
//
// Measurement notes. Every timed loop is preceded by a warm-up iteration
// (the first call pays one-time pool and scratch growth that steady-state
// iterations never see), each rank times its own loop and the reported
// figure is the per-rank maximum (a collective completes when its slowest
// rank does; rank 0's clock alone understates the cost), and the one-time
// *_init construction cost is reported in its own column instead of being
// silently amortized into — or excluded from — the loop. The other
// bench_ablate_* tools measure through harness::time_collective, which
// already takes the cross-rank maximum of virtual clocks and runs a
// warm-up repetition; this file and bench_transport are the only
// wall-clock loops in bench/.
#include <chrono>

#include "bench/harness.hpp"
#include "cartcomm/cartcomm.hpp"
#include "cartcomm/plan.hpp"

namespace {

/// Per-iteration wall time of `op` on this rank, with `warmups` untimed
/// iterations first; returns the maximum across ranks.
double wall_per_iter_max(const mpl::Comm& world, int iters, int warmups,
                         const std::function<void()>& op) {
  for (int i = 0; i < warmups; ++i) op();
  world.hard_sync();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  const auto t1 = std::chrono::steady_clock::now();
  const double local =
      std::chrono::duration<double>(t1 - t0).count() / iters;
  return mpl::allreduce(local, mpl::ReduceOp::max<double>(), world);
}

void run_case(int d, int n, int m) {
  std::vector<int> dims(static_cast<std::size_t>(d), 2);
  int p = 1;
  for (int x : dims) p *= x;
  const auto nb = cartcomm::Neighborhood::stencil(d, n, -1);
  const int t = nb.count();

  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const mpl::Datatype kInt = mpl::Datatype::of<int>();
    std::vector<int> sb(static_cast<std::size_t>(t) * m, 1);
    std::vector<int> rb(static_cast<std::size_t>(t) * m);
    const int iters = t > 1000 ? 20 : 100;

    // One-time setup cost of the persistent handle, in its own column
    // (per-rank max; the cache is cold so this includes one compile).
    cartcomm::plan_cache_set_enabled(true);
    cartcomm::plan_cache_clear();
    world.hard_sync();
    const auto i0 = std::chrono::steady_clock::now();
    auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                      cc, cartcomm::Algorithm::combining);
    const auto i1 = std::chrono::steady_clock::now();
    const double init_cost =
        mpl::allreduce(std::chrono::duration<double>(i1 - i0).count(),
                       mpl::ReduceOp::max<double>(), world);

    const double persistent =
        wall_per_iter_max(world, iters, 1, [&] { op.execute(); });

    // Non-persistent, plan cache warm: after the warm-up call binds the
    // schedule, every call with these buffers builds its block descriptors
    // and plan key, matches them against the alltoall slot and runs the
    // bound schedule — no lookup, no bind, no Algorithm 1. The gap to
    // `persistent` is that per-call work.
    const double cached = wall_per_iter_max(world, iters, 1, [&] {
      cartcomm::alltoall(sb.data(), m, kInt, rb.data(), m, kInt, cc,
                         cartcomm::Algorithm::combining);
    });

    cartcomm::plan_cache_set_enabled(false);
    const double rebuilt = wall_per_iter_max(world, iters, 1, [&] {
      cartcomm::alltoall(sb.data(), m, kInt, rb.data(), m, kInt, cc,
                         cartcomm::Algorithm::combining);
    });
    cartcomm::plan_cache_set_enabled(true);

    if (world.rank() == 0) {
      std::printf(
          "d=%d n=%d (t=%4d) m=%3d | init %8.3f ms | persistent %8.3f "
          "ms/iter | cached %8.3f ms/iter (%4.2fx) | rebuilt %8.3f ms/iter "
          "(%4.1fx)\n",
          d, n, t, m, harness::ms(init_cost), harness::ms(persistent),
          harness::ms(cached), cached / persistent, harness::ms(rebuilt),
          rebuilt / persistent);
    }
  });
}

}  // namespace

int main() {
  std::printf("Ablation: persistent schedules (Cart_*_init) vs plan-cached "
              "and fully recomputed per-call schedules (wall-clock, %s)\n\n",
              "no network model");
  run_case(3, 3, 1);
  run_case(4, 3, 1);
  run_case(5, 3, 1);
  run_case(5, 5, 1);
  run_case(5, 5, 100);
  return 0;
}
