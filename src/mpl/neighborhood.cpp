#include "mpl/neighborhood.hpp"

#include <algorithm>
#include <vector>

#include "mpl/blocks.hpp"
#include "mpl/error.hpp"

namespace mpl {

namespace {

constexpr int kNeighborTag = 11;
constexpr int kRendezvousTag = 12;

// Eager-buffer segment size for the serialized_rendezvous pathology model:
// data is shipped in small chunks, each paying a full message overhead.
constexpr std::size_t kSegmentBytes = 128;

void require_degrees(const DistGraphComm& g, std::span<const SendBlock> sends,
                     std::span<const RecvBlock> recvs) {
  MPL_REQUIRE(sends.size() == static_cast<std::size_t>(g.outdegree()),
              "neighborhood: one send block per target required");
  MPL_REQUIRE(recvs.size() == static_cast<std::size_t>(g.indegree()),
              "neighborhood: one receive block per source required");
}

// The direct algorithm as a schedule: one pre-posting phase whose round i
// pairs targets()[i] with sources()[i] (a send-only or receive-only round
// where the degrees differ). The executor posts every receive in source
// order, then every send in target order, and completes the receives in
// posting order. Duplicate neighbor ranks are disambiguated by FIFO
// matching (both sides list them in the same relative order, which MPI
// also relies upon).
Schedule direct_schedule(const DistGraphComm& g, std::vector<SendBlock> sends,
                         std::vector<RecvBlock> recvs) {
  require_degrees(g, sends, recvs);
  const std::size_t rounds = std::max(sends.size(), recvs.size());
  ScheduleBuilder builder;
  builder.set_prepost_receives();
  builder.reserve(1, rounds, 0);
  for (std::size_t i = 0; i < rounds; ++i) {
    const bool send = i < sends.size();
    const bool recv = i < recvs.size();
    builder.add_block_round(send ? g.targets()[i] : PROC_NULL,
                            send ? std::move(sends[i]) : SendBlock{},
                            recv ? g.sources()[i] : PROC_NULL,
                            recv ? std::move(recvs[i]) : RecvBlock{});
  }
  return builder.finish();
}

// Pathology model: per neighbor, a request-to-send/clear-to-send
// handshake followed by the payload in kSegmentBytes chunks, all
// serialized. Deadlock-free because sends are eager.
void serialized(const DistGraphComm& g, std::span<const SendBlock> sends,
                std::span<const RecvBlock> recvs) {
  const Comm& c = g.comm();
  const std::size_t rounds = std::max(sends.size(), recvs.size());
  std::vector<std::byte> sendstage, recvstage;
  for (std::size_t i = 0; i < rounds; ++i) {
    const bool do_send = i < sends.size();
    const bool do_recv = i < recvs.size();
    // Handshake (two latencies per neighbor).
    if (do_send)
      c.isend_on(Comm::Channel::coll, nullptr, 0, Datatype::bytes(0),
                 g.targets()[i], kRendezvousTag);
    if (do_recv) {
      c.irecv_on(Comm::Channel::coll, nullptr, 0, Datatype::bytes(0),
                 g.sources()[i], kRendezvousTag)
          .wait();
      c.isend_on(Comm::Channel::coll, nullptr, 0, Datatype::bytes(0),
                 g.sources()[i], kRendezvousTag);
    }
    if (do_send)
      c.irecv_on(Comm::Channel::coll, nullptr, 0, Datatype::bytes(0),
                 g.targets()[i], kRendezvousTag)
          .wait();

    // Segmented payload through staging copies (models pack + eager
    // chunking: each chunk pays a full per-message cost).
    std::size_t sbytes = 0, rbytes = 0;
    if (do_send) {
      sbytes = sends[i].type.pack_size(sends[i].count);
      sendstage.resize(sbytes);
      sends[i].type.pack(sends[i].addr, sends[i].count, sendstage.data());
    }
    if (do_recv) {
      rbytes = recvs[i].type.pack_size(recvs[i].count);
      recvstage.resize(rbytes);
    }
    const std::size_t nseg =
        (std::max(sbytes, rbytes) + kSegmentBytes - 1) / kSegmentBytes;
    for (std::size_t s = 0; s < nseg; ++s) {
      const std::size_t soff = std::min(s * kSegmentBytes, sbytes);
      const std::size_t slen = std::min(kSegmentBytes, sbytes - soff);
      const std::size_t roff = std::min(s * kSegmentBytes, rbytes);
      const std::size_t rlen = std::min(kSegmentBytes, rbytes - roff);
      Request rr;
      if (do_recv && rlen > 0) {
        rr = c.irecv_on(Comm::Channel::coll, recvstage.data() + roff, 1,
                        Datatype::bytes(rlen), g.sources()[i], kRendezvousTag);
      }
      if (do_send && slen > 0) {
        c.isend_on(Comm::Channel::coll, sendstage.data() + soff, 1,
                   Datatype::bytes(slen), g.targets()[i], kRendezvousTag);
      }
      if (rr.valid()) rr.wait();
    }
    if (do_recv && rbytes > 0) {
      recvs[i].type.unpack(recvstage.data(), recvs[i].addr, recvs[i].count);
    }
  }
}

void blocking(const DistGraphComm& g, std::vector<SendBlock> sends,
              std::vector<RecvBlock> recvs, NeighborAlgorithm alg) {
  if (alg == NeighborAlgorithm::direct) {
    direct_schedule(g, std::move(sends), std::move(recvs))
        .execute(g.comm(), kNeighborTag);
  } else {
    require_degrees(g, sends, recvs);
    serialized(g, sends, recvs);
  }
}

NeighborRequest nonblocking(const DistGraphComm& g,
                            std::vector<SendBlock> sends,
                            std::vector<RecvBlock> recvs) {
  auto op = std::make_unique<NeighborRequest::Op>();
  op->sched = direct_schedule(g, std::move(sends), std::move(recvs));
  op->exec = op->sched.start(g.comm(), op->scratch, kNeighborTag);
  return NeighborRequest(std::move(op));
}

}  // namespace

void NeighborRequest::wait() {
  if (!op_) return;
  op_->exec.wait();
  op_.reset();
}

// -- alltoall family ---------------------------------------------------------

void neighbor_alltoall(const void* sendbuf, int sendcount,
                       const Datatype& sendtype, void* recvbuf, int recvcount,
                       const Datatype& recvtype, const DistGraphComm& g,
                       NeighborAlgorithm alg) {
  blocking(g,
           blocks_regular<SendBlock>(sendbuf, sendcount, sendtype,
                                     g.outdegree()),
           blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype,
                                     g.indegree()),
           alg);
}

void neighbor_alltoallv(const void* sendbuf, std::span<const int> sendcounts,
                        std::span<const int> sdispls, const Datatype& sendtype,
                        void* recvbuf, std::span<const int> recvcounts,
                        std::span<const int> rdispls, const Datatype& recvtype,
                        const DistGraphComm& g, NeighborAlgorithm alg) {
  blocking(g, blocks_v<SendBlock>(sendbuf, sendcounts, sdispls, sendtype),
           blocks_v<RecvBlock>(recvbuf, recvcounts, rdispls, recvtype), alg);
}

void neighbor_alltoallw(const void* sendbuf, std::span<const int> sendcounts,
                        std::span<const std::ptrdiff_t> sdispls_bytes,
                        std::span<const Datatype> sendtypes, void* recvbuf,
                        std::span<const int> recvcounts,
                        std::span<const std::ptrdiff_t> rdispls_bytes,
                        std::span<const Datatype> recvtypes,
                        const DistGraphComm& g, NeighborAlgorithm alg) {
  blocking(g,
           blocks_w<SendBlock>(sendbuf, sendcounts, sdispls_bytes, sendtypes),
           blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes),
           alg);
}

NeighborRequest ineighbor_alltoall(const void* sendbuf, int sendcount,
                                   const Datatype& sendtype, void* recvbuf,
                                   int recvcount, const Datatype& recvtype,
                                   const DistGraphComm& g) {
  return nonblocking(
      g, blocks_regular<SendBlock>(sendbuf, sendcount, sendtype, g.outdegree()),
      blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype, g.indegree()));
}

NeighborRequest ineighbor_alltoallv(const void* sendbuf,
                                    std::span<const int> sendcounts,
                                    std::span<const int> sdispls,
                                    const Datatype& sendtype, void* recvbuf,
                                    std::span<const int> recvcounts,
                                    std::span<const int> rdispls,
                                    const Datatype& recvtype,
                                    const DistGraphComm& g) {
  return nonblocking(
      g, blocks_v<SendBlock>(sendbuf, sendcounts, sdispls, sendtype),
      blocks_v<RecvBlock>(recvbuf, recvcounts, rdispls, recvtype));
}

// -- allgather family --------------------------------------------------------

void neighbor_allgather(const void* sendbuf, int sendcount,
                        const Datatype& sendtype, void* recvbuf, int recvcount,
                        const Datatype& recvtype, const DistGraphComm& g,
                        NeighborAlgorithm alg) {
  blocking(g,
           blocks_regular<SendBlock>(sendbuf, sendcount, sendtype,
                                     g.outdegree(), true),
           blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype,
                                     g.indegree()),
           alg);
}

void neighbor_allgatherv(const void* sendbuf, int sendcount,
                         const Datatype& sendtype, void* recvbuf,
                         std::span<const int> recvcounts,
                         std::span<const int> displs, const Datatype& recvtype,
                         const DistGraphComm& g, NeighborAlgorithm alg) {
  blocking(g,
           blocks_regular<SendBlock>(sendbuf, sendcount, sendtype,
                                     g.outdegree(), true),
           blocks_v<RecvBlock>(recvbuf, recvcounts, displs, recvtype), alg);
}

void neighbor_allgatherw(const void* sendbuf, int sendcount,
                         const Datatype& sendtype, void* recvbuf,
                         std::span<const int> recvcounts,
                         std::span<const std::ptrdiff_t> rdispls_bytes,
                         std::span<const Datatype> recvtypes,
                         const DistGraphComm& g, NeighborAlgorithm alg) {
  blocking(g,
           blocks_regular<SendBlock>(sendbuf, sendcount, sendtype,
                                     g.outdegree(), true),
           blocks_w<RecvBlock>(recvbuf, recvcounts, rdispls_bytes, recvtypes),
           alg);
}

NeighborRequest ineighbor_allgather(const void* sendbuf, int sendcount,
                                    const Datatype& sendtype, void* recvbuf,
                                    int recvcount, const Datatype& recvtype,
                                    const DistGraphComm& g) {
  return nonblocking(g,
                     blocks_regular<SendBlock>(sendbuf, sendcount, sendtype,
                                               g.outdegree(), true),
                     blocks_regular<RecvBlock>(recvbuf, recvcount, recvtype,
                                               g.indegree()));
}

}  // namespace mpl
