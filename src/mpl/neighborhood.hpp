// Neighborhood collective operations on distributed-graph communicators —
// the analogues of MPI_Neighbor_* / MPI_Ineighbor_*, which the paper uses
// as baselines. Block i of the receive buffer is filled from sources()[i];
// block i of the send buffer goes to targets()[i]. The `w` variants take
// per-neighbor byte displacements and datatypes; neighbor_allgatherw is the
// operation the paper proposes as missing from MPI.
//
// Two algorithms are provided:
//  * direct: post all receives, post all sends, wait (the canonical
//    implementation; what a good MPI library does). It runs as a one-phase
//    pre-posting Schedule on the shared executor (schedule.hpp), on the
//    collective channel, so it is traced, timed and flight-recorded like
//    every Cartesian collective. The non-blocking calls use it too.
//  * serialized_rendezvous: processes neighbors one at a time with a
//    rendezvous handshake and segmented data transfer. This deliberately
//    models the pathological behaviour the paper measured in Open MPI /
//    Intel MPI for large neighborhoods (Figures 3 and 4), where
//    MPI_Neighbor_alltoall is orders of magnitude slower than direct
//    delivery.
#pragma once

#include <memory>
#include <span>

#include "mpl/schedule.hpp"
#include "mpl/topology.hpp"

namespace mpl {

enum class NeighborAlgorithm { direct, serialized_rendezvous };

/// Handle on a running non-blocking neighborhood collective.
class NeighborRequest {
 public:
  /// The schedule, its working set and its execution (which points at
  /// both, hence one heap object that never moves).
  struct Op {
    Schedule sched;
    ExecutionScratch scratch;
    Schedule::Execution exec;
  };

  NeighborRequest() = default;
  explicit NeighborRequest(std::unique_ptr<Op> op) : op_(std::move(op)) {}
  /// Drive the execution to completion (no-op on an empty request).
  void wait();

 private:
  std::unique_ptr<Op> op_;
};

// -- alltoall family ---------------------------------------------------------

void neighbor_alltoall(const void* sendbuf, int sendcount,
                       const Datatype& sendtype, void* recvbuf, int recvcount,
                       const Datatype& recvtype, const DistGraphComm& g,
                       NeighborAlgorithm alg = NeighborAlgorithm::direct);

void neighbor_alltoallv(const void* sendbuf, std::span<const int> sendcounts,
                        std::span<const int> sdispls, const Datatype& sendtype,
                        void* recvbuf, std::span<const int> recvcounts,
                        std::span<const int> rdispls, const Datatype& recvtype,
                        const DistGraphComm& g,
                        NeighborAlgorithm alg = NeighborAlgorithm::direct);

void neighbor_alltoallw(const void* sendbuf, std::span<const int> sendcounts,
                        std::span<const std::ptrdiff_t> sdispls_bytes,
                        std::span<const Datatype> sendtypes, void* recvbuf,
                        std::span<const int> recvcounts,
                        std::span<const std::ptrdiff_t> rdispls_bytes,
                        std::span<const Datatype> recvtypes,
                        const DistGraphComm& g,
                        NeighborAlgorithm alg = NeighborAlgorithm::direct);

NeighborRequest ineighbor_alltoall(const void* sendbuf, int sendcount,
                                   const Datatype& sendtype, void* recvbuf,
                                   int recvcount, const Datatype& recvtype,
                                   const DistGraphComm& g);

NeighborRequest ineighbor_alltoallv(const void* sendbuf,
                                    std::span<const int> sendcounts,
                                    std::span<const int> sdispls,
                                    const Datatype& sendtype, void* recvbuf,
                                    std::span<const int> recvcounts,
                                    std::span<const int> rdispls,
                                    const Datatype& recvtype,
                                    const DistGraphComm& g);

// -- allgather family --------------------------------------------------------

void neighbor_allgather(const void* sendbuf, int sendcount,
                        const Datatype& sendtype, void* recvbuf, int recvcount,
                        const Datatype& recvtype, const DistGraphComm& g,
                        NeighborAlgorithm alg = NeighborAlgorithm::direct);

void neighbor_allgatherv(const void* sendbuf, int sendcount,
                         const Datatype& sendtype, void* recvbuf,
                         std::span<const int> recvcounts,
                         std::span<const int> displs, const Datatype& recvtype,
                         const DistGraphComm& g,
                         NeighborAlgorithm alg = NeighborAlgorithm::direct);

/// Allgather with a distinct datatype/displacement per source block — the
/// interface addition argued for in Section 2.1 of the paper.
void neighbor_allgatherw(const void* sendbuf, int sendcount,
                         const Datatype& sendtype, void* recvbuf,
                         std::span<const int> recvcounts,
                         std::span<const std::ptrdiff_t> rdispls_bytes,
                         std::span<const Datatype> recvtypes,
                         const DistGraphComm& g,
                         NeighborAlgorithm alg = NeighborAlgorithm::direct);

NeighborRequest ineighbor_allgather(const void* sendbuf, int sendcount,
                                    const Datatype& sendtype, void* recvbuf,
                                    int recvcount, const Datatype& recvtype,
                                    const DistGraphComm& g);

}  // namespace mpl
