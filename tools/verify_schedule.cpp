// Sweep a family of grids and neighborhoods, build the message-combining
// alltoall, allgather and neighbor allreduce schedules and the trivial
// (Listing 4) schedule on every rank, plus the automatic alltoall on small
// tori whose offsets fold (checked against the routing neighborhood it
// combines over), and statically verify them —
// single-rank structural checks (verify_schedule) plus the cross-rank
// deadlock-freedom/pairing proof (verify_global) — without moving any
// payload. The trivial schedule pre-posts its receives, so its memory
// check covers the whole schedule and its pairing check the whole
// execution. Exits non-zero when any invariant fails.
//
//   verify_schedule [--verbose]
//
// --verbose additionally prints rank 0's schedule structure per case.
#include <algorithm>
#include <array>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "verify/verify.hpp"

namespace {

struct Case {
  std::string name;
  std::vector<int> dims;
  std::vector<int> periods;
  cartcomm::Neighborhood nb;
};

std::vector<Case> sweep_cases() {
  using cartcomm::Neighborhood;
  std::vector<Case> cases;
  cases.push_back({"1d ring, von Neumann", {8}, {1}, Neighborhood::von_neumann(1)});
  cases.push_back({"1d path (non-periodic), von Neumann+self",
                   {8}, {0}, Neighborhood::von_neumann(1, true)});
  cases.push_back({"2d torus 4x3, Moore r=1", {4, 3}, {1, 1}, Neighborhood::moore(2)});
  cases.push_back({"2d mesh 4x4 (non-periodic), Moore r=1",
                   {4, 4}, {0, 0}, Neighborhood::moore(2)});
  cases.push_back({"2d mixed 5x3 (periodic x only), stencil n=3 f=-1",
                   {5, 3}, {1, 0}, Neighborhood::stencil(2, 3, -1)});
  cases.push_back({"2d torus 6x4, asymmetric stencil n=2 f=0",
                   {6, 4}, {1, 1}, Neighborhood::stencil(2, 2, 0)});
  cases.push_back({"3d torus 3x2x2, von Neumann",
                   {3, 2, 2}, {1, 1, 1}, Neighborhood::von_neumann(3)});
  cases.push_back({"3d mesh 3x3x2 (non-periodic), Moore r=1",
                   {3, 3, 2}, {0, 0, 0}, Neighborhood::moore(3)});
  // Irregular neighborhood: long hops, a repeated offset, no symmetry.
  cases.push_back({"2d torus 5x4, irregular {(2,0),(0,1),(-1,-1),(0,0),(2,0),(1,2)}",
                   {5, 4}, {1, 1},
                   Neighborhood(2, {2, 0, 0, 1, -1, -1, 0, 0, 2, 0, 1, 2})});
  cases.push_back({"2d mesh 5x4 (non-periodic), irregular {(2,1),(-1,0),(0,-2),(0,0)}",
                   {5, 4}, {0, 0},
                   Neighborhood(2, {2, 1, -1, 0, 0, -2, 0, 0})});
  return cases;
}

/// Small tori whose offsets alias: the automatic alltoall combines over
/// their routing neighborhood (CartNeighborComm::routing).
std::vector<Case> folding_cases() {
  using cartcomm::Neighborhood;
  return {
      {"3d torus 1x2x2, Moore r=1", {1, 2, 2}, {1, 1, 1}, Neighborhood::moore(3)},
      {"5d torus 1x1x1x2x2, stencil n=3 f=-1",
       {1, 1, 1, 2, 2}, {1, 1, 1, 1, 1}, Neighborhood::stencil(5, 3, -1)},
      {"2d torus 3x3, stencil n=5 f=-2", {3, 3}, {1, 1}, Neighborhood::stencil(2, 5, -2)},
  };
}

int product(std::span<const int> v) {
  int p = 1;
  for (int x : v) p *= x;
  return p;
}

// Build + verify one collective kind on every rank of one case, an
// alltoall as `alg` requests it, with blocks of `ints` ints (at most 3).
// Returns the number of issues found (and prints them).
int run_case(const Case& c, cartcomm::ScheduleKind kind, bool verbose,
             cartcomm::Algorithm alg = cartcomm::Algorithm::combining,
             int ints = 3) {
  const int p = product(c.dims);
  const int t = c.nb.count();
  constexpr int m = 3;  // ints per block: arbitrary, structure is size-agnostic
  using Block = std::array<int, m>;
  std::vector<cartcomm::ScheduleSummary> summaries(static_cast<std::size_t>(p));
  std::vector<cartcomm::VerifyReport> local(static_cast<std::size_t>(p));
  std::mutex describe_mtx;
  std::string description;

  mpl::run(p, [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, c.dims, c.periods, c.nb);
    // One array per block, so no block address is an offset into another
    // allocation.
    std::vector<Block> sendbuf(static_cast<std::size_t>(t), Block{1, 1, 1});
    std::vector<Block> recvbuf(static_cast<std::size_t>(t), Block{});
    const mpl::Datatype block =
        mpl::Datatype::contiguous(ints, mpl::Datatype::of<int>());
    std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
    std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
    for (std::size_t i = 0; i < sends.size(); ++i) {
      sends[i] = {sendbuf[i].data(), 1, block};
      recvs[i] = {recvbuf[i].data(), 1, block};
    }
    // The allreduce is the neighbor reduce over the neighborhood with the
    // zero vector appended when absent.
    cartcomm::CartNeighborComm vcc = cc;
    if (kind == cartcomm::ScheduleKind::alltoall) {
      vcc = cc.alltoall_routing(alg, sizeof(int) * static_cast<std::size_t>(ints));
    }
    if (kind == cartcomm::ScheduleKind::reduce &&
        !c.nb.contains_zero_vector()) {
      std::vector<int> flat(c.nb.flat().size() + c.dims.size(), 0);
      std::copy(c.nb.flat().begin(), c.nb.flat().end(), flat.begin());
      vcc = cc.with_neighborhood(
          cartcomm::Neighborhood(c.nb.ndims(), std::move(flat)));
    }
    cartcomm::Schedule sched;
    switch (kind) {
      case cartcomm::ScheduleKind::alltoall:
        sched = cartcomm::build_alltoall_schedule(cc, sends, recvs, alg);
        break;
      case cartcomm::ScheduleKind::allgather:
        sched = cartcomm::build_allgather_schedule(cc, sends.front(), recvs);
        break;
      case cartcomm::ScheduleKind::reduce:
        sched = cartcomm::build_reduce_schedule(
            vcc, std::span(sends).first(1), recvs.front(),
            mpl::ReduceOp::sum<int>(), cartcomm::ReduceVariant::reduce,
            /*combining=*/true);
        break;
      default:
        sched = cartcomm::build_trivial_schedule(cc, sends, recvs);
        break;
    }
    const int r = world.rank();
    local[static_cast<std::size_t>(r)] = cartcomm::verify_schedule(sched, vcc, kind);
    summaries[static_cast<std::size_t>(r)] = cartcomm::summarize(sched, vcc);
    if (verbose && r == 0) {
      std::lock_guard lk(describe_mtx);
      description = sched.dump();
    }
  });

  int issues = 0;
  for (int r = 0; r < p; ++r) {
    const cartcomm::VerifyReport& rep = local[static_cast<std::size_t>(r)];
    issues += static_cast<int>(rep.issues.size());
    for (const auto& i : rep.issues) {
      std::cout << "    local  " << i.to_string() << '\n';
    }
  }
  const mpl::CartGrid grid(c.dims, c.periods);
  const cartcomm::VerifyReport global = cartcomm::verify_global(summaries, grid);
  issues += static_cast<int>(global.issues.size());
  for (const auto& i : global.issues) {
    std::cout << "    global " << i.to_string() << '\n';
  }
  if (verbose && !description.empty()) std::cout << description;
  return issues;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      std::cerr << "usage: verify_schedule [--verbose]\n";
      return 2;
    }
  }

  int total_issues = 0;
  int checked = 0;
  for (const Case& c : sweep_cases()) {
    for (const auto kind : {cartcomm::ScheduleKind::alltoall,
                            cartcomm::ScheduleKind::allgather,
                            cartcomm::ScheduleKind::reduce,
                            cartcomm::ScheduleKind::trivial}) {
      const char* kname =
          kind == cartcomm::ScheduleKind::alltoall    ? "alltoall "
          : kind == cartcomm::ScheduleKind::allgather ? "allgather"
          : kind == cartcomm::ScheduleKind::reduce    ? "allreduce"
                                                      : "trivial  ";
      std::cout << "  " << kname << "  " << c.name << " ... " << std::flush;
      const int before = total_issues;
      std::cout << '\n';
      total_issues += run_case(c, kind, verbose);
      ++checked;
      if (total_issues == before) std::cout << "    ok\n";
    }
  }
  for (const Case& c : folding_cases()) {
    for (const int ints : {1, 3}) {
      std::cout << "  automatic  " << c.name << ", " << ints
                << " int(s) per block ... \n";
      const int before = total_issues;
      total_issues += run_case(c, cartcomm::ScheduleKind::alltoall, verbose,
                               cartcomm::Algorithm::automatic, ints);
      ++checked;
      if (total_issues == before) std::cout << "    ok\n";
    }
  }
  std::cout << checked << " schedule(s) checked, " << total_issues
            << " issue(s)\n";
  return total_issues == 0 ? 0 : 1;
}
