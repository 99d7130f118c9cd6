// Proposition 3.1 ablation: schedule computation is O(td), local only.
// google-benchmark over the stencil family; time per neighbor should stay
// roughly constant as t grows. BM_*Schedule time the cached build (plan
// lookup plus bind); BM_Compile* and BM_Analyze time the uncached steps a
// cold communicator runs: the alltoall and combining-reduce compiles and
// the creation-time analyze(). `s_per_nb` is seconds per neighbor.
#include <benchmark/benchmark.h>

#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/mpl.hpp"

namespace {

void per_neighbor(benchmark::State& state, int t) {
  state.SetItemsProcessed(state.iterations() * t);
  state.counters["t"] = t;
  state.counters["s_per_nb"] = benchmark::Counter(
      t, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
}

// Build one CartNeighborComm per (d, n) outside the timed region. The
// builders are purely local (Proposition 3.1), so a single-process torus
// is sufficient.
void run_builder_bench(benchmark::State& state, bool allgather) {
  const int d = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto nb = cartcomm::Neighborhood::stencil(d, n, -1);
  const int t = nb.count();
  const std::vector<int> dims(static_cast<std::size_t>(d), 1);

  mpl::run(1, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t));
    std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
    std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
    const mpl::Datatype kInt = mpl::Datatype::of<int>();
    for (int i = 0; i < t; ++i) {
      sends[static_cast<std::size_t>(i)] = {&sb[static_cast<std::size_t>(i)], 1, kInt};
      recvs[static_cast<std::size_t>(i)] = {&rb[static_cast<std::size_t>(i)], 1, kInt};
    }
    for (auto _ : state) {
      if (allgather) {
        benchmark::DoNotOptimize(
            cartcomm::build_allgather_schedule(cc, sends.front(), recvs));
      } else {
        // Algorithm 1 over the offsets as given: on this 1x..x1 torus the
        // automatic routing would fold every offset away.
        benchmark::DoNotOptimize(cartcomm::build_alltoall_schedule(
            cc, sends, recvs, cartcomm::Algorithm::combining));
      }
    }
    // items/s should scale ~linearly with t if construction is O(td).
    per_neighbor(state, t);
  });
}

enum class Step { analyze, compile_alltoall, compile_reduce };

// The uncached steps, on a single-process torus like the builders above.
void run_step_bench(benchmark::State& state, Step step) {
  const int d = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto nb = cartcomm::Neighborhood::stencil(d, n, -1);
  const int t = nb.count();
  const std::vector<int> dims(static_cast<std::size_t>(d), 1);

  mpl::run(1, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const std::vector<std::size_t> bytes(static_cast<std::size_t>(t),
                                         sizeof(int));
    for (auto _ : state) {
      switch (step) {
        case Step::analyze:
          benchmark::DoNotOptimize(cartcomm::analyze(nb));
          break;
        case Step::compile_alltoall:
          benchmark::DoNotOptimize(cartcomm::compile_alltoall_plan(cc, bytes));
          break;
        case Step::compile_reduce:
          benchmark::DoNotOptimize(cartcomm::compile_reduce_plan(
              cc, cartcomm::ReduceVariant::reduce, /*combining=*/true,
              cartcomm::DimOrder::increasing_ck, sizeof(int), 1));
          break;
      }
    }
    per_neighbor(state, t);
  });
}

void BM_AlltoallSchedule(benchmark::State& state) {
  run_builder_bench(state, false);
}
void BM_AllgatherSchedule(benchmark::State& state) {
  run_builder_bench(state, true);
}
void BM_Analyze(benchmark::State& state) {
  run_step_bench(state, Step::analyze);
}
void BM_CompileAlltoall(benchmark::State& state) {
  run_step_bench(state, Step::compile_alltoall);
}
void BM_CompileReduce(benchmark::State& state) {
  run_step_bench(state, Step::compile_reduce);
}

}  // namespace

BENCHMARK(BM_AlltoallSchedule)
    ->Args({2, 3})
    ->Args({3, 3})
    ->Args({4, 3})
    ->Args({5, 3})
    ->Args({5, 5})
    ->Args({6, 5});
BENCHMARK(BM_AllgatherSchedule)
    ->Args({2, 3})
    ->Args({3, 3})
    ->Args({4, 3})
    ->Args({5, 3})
    ->Args({5, 5})
    ->Args({6, 5});

BENCHMARK(BM_Analyze)->Args({5, 3})->Args({5, 5});
BENCHMARK(BM_CompileAlltoall)->Args({5, 3})->Args({5, 5});
BENCHMARK(BM_CompileReduce)->Args({5, 3})->Args({5, 5});

BENCHMARK_MAIN();
