// schedule_explorer — inspect the message-combining machinery without any
// application code: for a chosen stencil family member, print the Table 1
// statistics, the per-phase round structure of the alltoall and allgather
// schedules, the allgather tree volume under the three dimension orders,
// and the predicted trivial/combining cut-off block size for the two
// modeled fabrics.
//
// Usage: schedule_explorer [d] [n] [f]     (defaults: 3 3 -1)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"

int main(int argc, char** argv) {
  const int d = argc > 1 ? std::atoi(argv[1]) : 3;
  const int n = argc > 2 ? std::atoi(argv[2]) : 3;
  const int f = argc > 3 ? std::atoi(argv[3]) : -1;

  const cartcomm::Neighborhood nb = cartcomm::Neighborhood::stencil(d, n, f);
  const cartcomm::NeighborhoodStats s = cartcomm::analyze(nb);

  std::printf("stencil family d=%d n=%d f=%d: t = %d neighbors\n", d, n, f, s.t);
  std::printf("  trivial rounds     : %d\n", s.trivial_rounds);
  std::printf("  combining rounds C : %d\n", s.combining_rounds);
  std::printf("  alltoall volume V  : %lld blocks\n", s.alltoall_volume);
  std::printf("  allgather volume   : %lld blocks\n", s.allgather_volume);
  std::printf("  cut-off ratio      : %.3f\n", s.cutoff_ratio);
  for (auto [name, cfg] : {std::pair{"omnipath", mpl::NetConfig::omnipath()},
                           std::pair{"gemini", mpl::NetConfig::gemini()}}) {
    std::printf("  predicted cut-off on %-8s: %.0f bytes/block\n", name,
                cartcomm::predicted_cutoff_bytes(s, cfg));
  }

  std::printf("allgather tree volume by dimension order: natural %lld, "
              "increasing-Ck %lld, decreasing-Ck %lld\n",
              cartcomm::allgather_volume(nb, cartcomm::DimOrder::natural),
              cartcomm::allgather_volume(nb, cartcomm::DimOrder::increasing_ck),
              cartcomm::allgather_volume(nb, cartcomm::DimOrder::decreasing_ck));

  // Build the real schedules on a small torus and show their structure.
  std::vector<int> dims(static_cast<std::size_t>(d), 2);
  int p = 1;
  for (int x : dims) p *= x;
  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    std::vector<int> sb(static_cast<std::size_t>(t)), rb(static_cast<std::size_t>(t));
    auto a2a = cartcomm::alltoall_init(sb.data(), 1, mpl::Datatype::of<int>(),
                                       rb.data(), 1, mpl::Datatype::of<int>(),
                                       cc, cartcomm::Algorithm::combining);
    auto ag = cartcomm::allgather_init(sb.data(), 1, mpl::Datatype::of<int>(),
                                       rb.data(), 1, mpl::Datatype::of<int>(),
                                       cc, cartcomm::Algorithm::combining);
    if (world.rank() == 0) {
      std::printf("alltoall schedule on a %d-process torus:\n", p);
      std::printf("  phases %d, rounds %d, blocks sent %lld, temp %zu bytes, "
                  "local copies %d\n",
                  a2a.schedule().phases(), a2a.schedule().rounds(),
                  a2a.schedule().send_block_count(), a2a.schedule().temp_bytes(),
                  a2a.schedule().copy_count());
      std::printf("  rounds per phase:");
      for (int r : a2a.schedule().phase_rounds()) std::printf(" %d", r);
      std::printf("\nallgather schedule:\n");
      std::printf("  phases %d, rounds %d, blocks sent %lld, temp %zu bytes, "
                  "local copies %d\n",
                  ag.schedule().phases(), ag.schedule().rounds(),
                  ag.schedule().send_block_count(), ag.schedule().temp_bytes(),
                  ag.schedule().copy_count());
      if (nb.count() <= 32) {
        std::printf("\nalltoall schedule detail (rank 0):\n%s",
                    a2a.schedule().dump().c_str());
      }
    }
  });
  return 0;
}
