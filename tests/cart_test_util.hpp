// Shared helpers for the Cartesian collective correctness tests: build a
// communicator, fill send buffers with an analytically checkable pattern,
// and verify receive buffers against the oracle.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"

namespace carttest {

/// Deterministic element value for block `idx` sent by `origin_rank`.
/// Computed modulo 2^32 (unsigned), so large indices wrap instead of
/// overflowing a signed int.
inline int pattern(int origin_rank, int idx, int elem) {
  return static_cast<int>(static_cast<unsigned>(origin_rank) * 73856093u +
                          static_cast<unsigned>(idx) * 19349663u +
                          static_cast<unsigned>(elem) * 83492791u);
}

/// Pattern for allgather (one block per origin, independent of target idx).
inline int ag_pattern(int origin_rank, int elem) {
  return origin_rank * 2654435761u % 1000003 + elem * 97;
}

inline int product(std::span<const int> dims) {
  int p = 1;
  for (int d : dims) p *= d;
  return p;
}

/// Empty when every temp byte of `s` is received at most once per
/// execution and sent only in a phase after the one that received it;
/// otherwise the first violation found.
inline std::string temp_write_once_issue(const cartcomm::Schedule& s) {
  const std::vector<std::span<const std::byte>> pools = s.temp_pools();
  std::vector<std::size_t> pool_base;
  std::size_t total = 0;
  for (const std::span<const std::byte> p : pools) {
    pool_base.push_back(total);
    total += p.size();
  }
  // Phase that received each temp byte (-1: not yet received).
  std::vector<int> received(total, -1);
  // Calls f(first temp byte, length) for the temp part of one direction.
  auto for_temp = [&](const void* buf, int count, const mpl::Datatype& t,
                      auto&& f) {
    if (!t.valid()) return;
    std::vector<mpl::TypeBlock> blocks;
    t.flatten(reinterpret_cast<std::ptrdiff_t>(buf), count, blocks);
    for (const mpl::TypeBlock& b : blocks) {
      const auto lo = static_cast<std::uintptr_t>(b.disp);
      for (std::size_t q = 0; q < pools.size(); ++q) {
        const auto begin = reinterpret_cast<std::uintptr_t>(pools[q].data());
        if (lo >= begin && lo < begin + pools[q].size()) {
          f(pool_base[q] + (lo - begin), b.len);
        }
      }
    }
  };
  std::string issue;
  std::size_t r = 0;
  for (int ph = 0; ph < s.phases() && issue.empty(); ++ph) {
    const int n = s.phase_rounds()[static_cast<std::size_t>(ph)];
    const auto rounds =
        s.round_list().subspan(r, static_cast<std::size_t>(n));
    r += rounds.size();
    for (const cartcomm::ScheduleRound& rd : rounds) {
      for_temp(rd.sendbuf, rd.sendcount, rd.sendtype,
               [&](std::size_t at, std::size_t len) {
                 for (std::size_t b = at; b < at + len && issue.empty(); ++b) {
                   if (received[b] < 0 || received[b] >= ph) {
                     issue = "phase " + std::to_string(ph) +
                             " sends temp byte " + std::to_string(b) +
                             " not received in an earlier phase";
                   }
                 }
               });
    }
    for (const cartcomm::ScheduleRound& rd : rounds) {
      for_temp(rd.recvbuf, rd.recvcount, rd.recvtype,
               [&](std::size_t at, std::size_t len) {
                 for (std::size_t b = at; b < at + len && issue.empty(); ++b) {
                   if (received[b] >= 0) {
                     issue = "temp byte " + std::to_string(b) +
                             " received in phase " +
                             std::to_string(received[b]) + " and again in " +
                             std::to_string(ph);
                   }
                   received[b] = ph;
                 }
               });
    }
  }
  return issue;
}

/// Run a regular Cartesian alltoall for every process of the torus/mesh
/// and verify each received block against the oracle (untouched slots —
/// PROC_NULL sources on meshes — must keep their sentinel).
inline void check_alltoall(const std::vector<int>& dims,
                           const std::vector<int>& periods,
                           const cartcomm::Neighborhood& nb, int m,
                           cartcomm::Algorithm alg) {
  mpl::run(product(dims), [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
    const int t = nb.count();
    std::vector<int> sendbuf(static_cast<std::size_t>(t) * m);
    std::vector<int> recvbuf(static_cast<std::size_t>(t) * m, -777);
    for (int i = 0; i < t; ++i) {
      for (int e = 0; e < m; ++e) {
        sendbuf[static_cast<std::size_t>(i) * m + e] = pattern(world.rank(), i, e);
      }
    }
    cartcomm::alltoall(sendbuf.data(), m, mpl::Datatype::of<int>(),
                       recvbuf.data(), m, mpl::Datatype::of<int>(), cc, alg);
    for (int i = 0; i < t; ++i) {
      const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
      for (int e = 0; e < m; ++e) {
        const int got = recvbuf[static_cast<std::size_t>(i) * m + e];
        if (src == mpl::PROC_NULL) {
          ASSERT_EQ(got, -777) << "rank " << world.rank() << " block " << i
                               << " elem " << e << " (PROC_NULL source)";
        } else {
          ASSERT_EQ(got, pattern(src, i, e))
              << "rank " << world.rank() << " block " << i << " elem " << e;
        }
      }
    }
  });
}

/// Same for the regular Cartesian allgather.
inline void check_allgather(const std::vector<int>& dims,
                            const std::vector<int>& periods,
                            const cartcomm::Neighborhood& nb, int m,
                            cartcomm::Algorithm alg,
                            const cartcomm::Info& info = {}) {
  mpl::run(product(dims), [&](mpl::Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb, {},
                                                 info);
    const int t = nb.count();
    std::vector<int> sendbuf(static_cast<std::size_t>(m));
    std::vector<int> recvbuf(static_cast<std::size_t>(t) * m, -777);
    for (int e = 0; e < m; ++e) sendbuf[static_cast<std::size_t>(e)] =
        ag_pattern(world.rank(), e);
    cartcomm::allgather(sendbuf.data(), m, mpl::Datatype::of<int>(),
                        recvbuf.data(), m, mpl::Datatype::of<int>(), cc, alg);
    for (int i = 0; i < t; ++i) {
      const int src = cc.source_ranks()[static_cast<std::size_t>(i)];
      for (int e = 0; e < m; ++e) {
        const int got = recvbuf[static_cast<std::size_t>(i) * m + e];
        if (src == mpl::PROC_NULL) {
          ASSERT_EQ(got, -777) << "rank " << world.rank() << " block " << i
                               << " elem " << e << " (PROC_NULL source)";
        } else {
          ASSERT_EQ(got, ag_pattern(src, e))
              << "rank " << world.rank() << " block " << i << " elem " << e;
        }
      }
    }
  });
}

}  // namespace carttest
