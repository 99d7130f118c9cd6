// Baseline (global) collective operations, built on point-to-point.
//
// These follow MPI argument conventions: per-destination/source counts,
// displacements in units of the receive-type extent for the v-variants,
// and identical call sequences on all processes of the communicator. They
// are used internally (communicator bring-up, benchmark harness) and as
// reference implementations in tests; the paper's baselines are the
// *neighborhood* collectives in neighborhood.hpp.
#pragma once

#include <span>

#include "mpl/comm.hpp"

namespace mpl {

/// Copy `scount` elements of `stype` at `src` to `rcount` elements of
/// `rtype` at `dst` in one pass, with no intermediate buffer (sizes must
/// match; see Datatype::copy_to).
void copy_typed(const void* src, int scount, const Datatype& stype, void* dst,
                int rcount, const Datatype& rtype);

/// Dissemination barrier (ceil(log2 p) rounds).
void barrier(const Comm& comm);

/// Binomial-tree broadcast.
void bcast(void* buf, int count, const Datatype& type, int root,
           const Comm& comm);

/// Direct gather to root; receive block i at recvbuf + i*recvcount*extent.
void gather(const void* sendbuf, int sendcount, const Datatype& sendtype,
            void* recvbuf, int recvcount, const Datatype& recvtype, int root,
            const Comm& comm);

/// Irregular gather; displs in units of the receive-type extent.
void gatherv(const void* sendbuf, int sendcount, const Datatype& sendtype,
             void* recvbuf, std::span<const int> recvcounts,
             std::span<const int> displs, const Datatype& recvtype, int root,
             const Comm& comm);

/// Direct scatter from root.
void scatter(const void* sendbuf, int sendcount, const Datatype& sendtype,
             void* recvbuf, int recvcount, const Datatype& recvtype, int root,
             const Comm& comm);

/// Ring allgather (p-1 rounds).
void allgather(const void* sendbuf, int sendcount, const Datatype& sendtype,
               void* recvbuf, int recvcount, const Datatype& recvtype,
               const Comm& comm);

/// Irregular ring allgather; displs in units of the receive-type extent.
void allgatherv(const void* sendbuf, int sendcount, const Datatype& sendtype,
                void* recvbuf, std::span<const int> recvcounts,
                std::span<const int> displs, const Datatype& recvtype,
                const Comm& comm);

/// Direct-delivery alltoall.
void alltoall(const void* sendbuf, int sendcount, const Datatype& sendtype,
              void* recvbuf, int recvcount, const Datatype& recvtype,
              const Comm& comm);

/// Irregular direct-delivery alltoall; displs in type-extent units.
void alltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, const Datatype& sendtype,
               void* recvbuf, std::span<const int> recvcounts,
               std::span<const int> rdispls, const Datatype& recvtype,
               const Comm& comm);

}  // namespace mpl
