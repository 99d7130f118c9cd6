// Ablation: trivial vs combining Cart_neighbor_reduce and the crossover
// between them. The trivial reduction posts one round per neighbor (t
// rounds, t blocks of m elements); the combining reduction runs the
// allgather tree in reverse with combine-on-unpack and shares equal
// subtrees (C = sum C_k rounds, one partial aggregate of m elements per
// distinct (level, coordinate, class) — C blocks on these stencil boxes).
// Both the round count and the byte volume shrink, so combining wins as
// soon as C < t — the sweep below walks the stencil radius across that
// boundary and also records the "automatic" algorithm, which must track
// the winner (it picks combining exactly when C < t).
//
// Timed on virtual clocks under the Hydra/OmniPath model (deterministic:
// the dump doubles as a perf-gate baseline, see tools/perf_diff.py).
#include "bench/harness.hpp"
#include "cartcomm/cartcomm.hpp"

namespace {

void run_case(const mpl::Comm& world, const cartcomm::CartNeighborComm& cc,
              int d, int n, int m) {
  const mpl::Datatype kInt = mpl::Datatype::of<int>();
  const mpl::ReduceOp op = mpl::ReduceOp::sum<int>();
  std::vector<int> sb(static_cast<std::size_t>(m), world.rank() + 1);
  std::vector<int> rb(static_cast<std::size_t>(m));
  auto time = [&](cartcomm::Algorithm alg) {
    return harness::time_collective(world, 5, [&] {
      cartcomm::cart_neighbor_reduce(sb.data(), rb.data(), m, kInt, op, cc,
                                     alg);
    });
  };
  const std::vector<double> triv_s = time(cartcomm::Algorithm::trivial);
  const std::vector<double> comb_s = time(cartcomm::Algorithm::combining);
  const std::vector<double> auto_s = time(cartcomm::Algorithm::automatic);
  const double triv = harness::stats(triv_s).mean;
  const double comb = harness::stats(comb_s).mean;
  const double aut = harness::stats(auto_s).mean;
  harness::bench_record(world, "ablate_reduce", d, n, m, "trivial", triv,
                        triv_s);
  harness::bench_record(world, "ablate_reduce", d, n, m, "combining", comb,
                        comb_s);
  harness::bench_record(world, "ablate_reduce", d, n, m, "automatic", aut,
                        auto_s);
  if (world.rank() == 0) {
    const int t = cc.neighborhood().count();
    std::printf(
        "d=%d n=%d (t=%4d) m=%4d | trivial %9.4f ms | combining %9.4f ms "
        "(%5.2fx) | automatic %9.4f ms\n",
        d, n, t, m, harness::ms(triv), harness::ms(comb), triv / comb,
        harness::ms(aut));
  }
}

void sweep(int d, int n, const harness::Options& bopts) {
  const std::vector<int> dims(static_cast<std::size_t>(d), 2);
  int p = 1;
  for (int x : dims) p *= x;
  const auto nb = cartcomm::Neighborhood::stencil(d, n, -1);
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  bopts.apply(opts);
  mpl::run(
      p,
      [&](mpl::Comm& world) {
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        for (const int m : {1, 10, 100}) run_case(world, cc, d, n, m);
      },
      opts);
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Options bopts = harness::Options::parse(argc, argv);
  std::printf("Ablation: Cart_neighbor_reduce trivial vs combining "
              "(Hydra/OmniPath model, virtual clocks)\n\n");
  // Small stencils sit below the crossover (the reduction tree has as many
  // edges as the neighborhood has members); large ones sit far above it.
  sweep(2, 1, bopts);
  sweep(2, 3, bopts);
  sweep(2, 5, bopts);
  sweep(3, 3, bopts);
  sweep(4, 3, bopts);
  return harness::write_bench_json(bopts.schedule_json, "ablate_reduce") ? 0
                                                                         : 1;
}
