// Shared helpers for the Cartesian collective correctness tests: build a
// communicator, fill send buffers with an analytically checkable pattern,
// and verify receive buffers against the oracle.
#pragma once

#include <gtest/gtest.h>

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
