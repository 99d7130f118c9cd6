#include "mpl/collectives.hpp"

#include <vector>

#include "mpl/error.hpp"

namespace mpl {

namespace {

constexpr int kBarrierTag = 1;
constexpr int kBcastTag = 2;
constexpr int kGatherTag = 3;
constexpr int kScatterTag = 4;
constexpr int kRingTag = 5;
constexpr int kAlltoallTag = 6;

char* block_at(void* base, std::ptrdiff_t index_elems, const Datatype& type) {
  return static_cast<char*>(base) + index_elems * type.extent();
}

const char* block_at(const void* base, std::ptrdiff_t index_elems,
                     const Datatype& type) {
  return static_cast<const char*>(base) + index_elems * type.extent();
}

}  // namespace

void copy_typed(const void* src, int scount, const Datatype& stype, void* dst,
                int rcount, const Datatype& rtype) {
  const std::size_t nbytes = stype.pack_size(scount);
  MPL_REQUIRE(nbytes == rtype.pack_size(rcount),
              "copy_typed: size mismatch between source and destination types");
  stype.copy_to(src, scount, dst, rcount, rtype);
}

void barrier(const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  for (int k = 1; k < p; k <<= 1) {
    const int to = (r + k) % p;
    const int from = (r - k % p + p) % p;
    comm.sendrecv_on(Comm::Channel::coll, nullptr, 0, Datatype::bytes(0), to,
                     kBarrierTag, nullptr, 0, Datatype::bytes(0), from,
                     kBarrierTag);
  }
}

void bcast(void* buf, int count, const Datatype& type, int root,
           const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  MPL_REQUIRE(root >= 0 && root < p, "bcast: root out of range");
  const int v = (r - root + p) % p;  // virtual rank, root at 0

  // Receive once from the parent, then forward down the binomial tree.
  int recv_mask = 0;
  for (int mask = 1; mask < p; mask <<= 1) {
    if (v & mask) {
      recv_mask = mask;
      break;
    }
  }
  if (v != 0) {
    const int parent = ((v & ~recv_mask) + root) % p;
    comm.irecv_on(Comm::Channel::coll, buf, count, type, parent, kBcastTag)
        .wait();
  }
  int top = 1;  // first power of two >= p
  while (top < p) top <<= 1;
  const int lowbit = (v == 0) ? top : recv_mask;
  for (int mask = lowbit >> 1; mask >= 1; mask >>= 1) {
    const int child = v | mask;
    if (child < p && child != v) {
      comm.isend_on(Comm::Channel::coll, buf, count, type, (child + root) % p,
                    kBcastTag);
    }
  }
}

void gather(const void* sendbuf, int sendcount, const Datatype& sendtype,
            void* recvbuf, int recvcount, const Datatype& recvtype, int root,
            const Comm& comm) {
  const int p = comm.size();
  std::vector<int> counts(static_cast<std::size_t>(p), recvcount);
  std::vector<int> displs(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i)
    displs[static_cast<std::size_t>(i)] = i * recvcount;
  gatherv(sendbuf, sendcount, sendtype, recvbuf, counts, displs, recvtype, root,
          comm);
}

void gatherv(const void* sendbuf, int sendcount, const Datatype& sendtype,
             void* recvbuf, std::span<const int> recvcounts,
             std::span<const int> displs, const Datatype& recvtype, int root,
             const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  if (r == root) {
    MPL_REQUIRE(recvcounts.size() == static_cast<std::size_t>(p) &&
                    displs.size() == static_cast<std::size_t>(p),
                "gatherv: counts/displs must have one entry per process");
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(p - 1));
    for (int i = 0; i < p; ++i) {
      if (i == r) continue;
      reqs.push_back(comm.irecv_on(
          Comm::Channel::coll,
          block_at(recvbuf, displs[static_cast<std::size_t>(i)], recvtype),
          recvcounts[static_cast<std::size_t>(i)], recvtype, i, kGatherTag));
    }
    copy_typed(sendbuf, sendcount, sendtype,
               block_at(recvbuf, displs[static_cast<std::size_t>(r)], recvtype),
               recvcounts[static_cast<std::size_t>(r)], recvtype);
    wait_all(reqs);
  } else {
    comm.isend_on(Comm::Channel::coll, sendbuf, sendcount, sendtype, root,
                  kGatherTag);
  }
}

void scatter(const void* sendbuf, int sendcount, const Datatype& sendtype,
             void* recvbuf, int recvcount, const Datatype& recvtype, int root,
             const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  if (r == root) {
    for (int i = 0; i < p; ++i) {
      if (i == r) continue;
      comm.isend_on(Comm::Channel::coll, block_at(sendbuf, i * sendcount, sendtype),
                    sendcount, sendtype, i, kScatterTag);
    }
    copy_typed(block_at(sendbuf, r * sendcount, sendtype), sendcount, sendtype,
               recvbuf, recvcount, recvtype);
  } else {
    comm.irecv_on(Comm::Channel::coll, recvbuf, recvcount, recvtype, root,
                  kScatterTag)
        .wait();
  }
}

void allgather(const void* sendbuf, int sendcount, const Datatype& sendtype,
               void* recvbuf, int recvcount, const Datatype& recvtype,
               const Comm& comm) {
  const int p = comm.size();
  std::vector<int> counts(static_cast<std::size_t>(p), recvcount);
  std::vector<int> displs(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i)
    displs[static_cast<std::size_t>(i)] = i * recvcount;
  allgatherv(sendbuf, sendcount, sendtype, recvbuf, counts, displs, recvtype,
             comm);
}

void allgatherv(const void* sendbuf, int sendcount, const Datatype& sendtype,
                void* recvbuf, std::span<const int> recvcounts,
                std::span<const int> displs, const Datatype& recvtype,
                const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  MPL_REQUIRE(recvcounts.size() == static_cast<std::size_t>(p) &&
                  displs.size() == static_cast<std::size_t>(p),
              "allgatherv: counts/displs must have one entry per process");

  // Place the local contribution, then circulate blocks around the ring.
  copy_typed(sendbuf, sendcount, sendtype,
             block_at(recvbuf, displs[static_cast<std::size_t>(r)], recvtype),
             recvcounts[static_cast<std::size_t>(r)], recvtype);
  if (p == 1) return;
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int send_idx = (r - step + p) % p;
    const int recv_idx = (r - step - 1 + p) % p;
    comm.sendrecv_on(
        Comm::Channel::coll,
        block_at(recvbuf, displs[static_cast<std::size_t>(send_idx)], recvtype),
        recvcounts[static_cast<std::size_t>(send_idx)], recvtype, right,
        kRingTag,
        block_at(recvbuf, displs[static_cast<std::size_t>(recv_idx)], recvtype),
        recvcounts[static_cast<std::size_t>(recv_idx)], recvtype, left,
        kRingTag);
  }
}

void alltoall(const void* sendbuf, int sendcount, const Datatype& sendtype,
              void* recvbuf, int recvcount, const Datatype& recvtype,
              const Comm& comm) {
  const int p = comm.size();
  std::vector<int> scounts(static_cast<std::size_t>(p), sendcount);
  std::vector<int> rcounts(static_cast<std::size_t>(p), recvcount);
  std::vector<int> sdispls(static_cast<std::size_t>(p));
  std::vector<int> rdispls(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    sdispls[static_cast<std::size_t>(i)] = i * sendcount;
    rdispls[static_cast<std::size_t>(i)] = i * recvcount;
  }
  alltoallv(sendbuf, scounts, sdispls, sendtype, recvbuf, rcounts, rdispls,
            recvtype, comm);
}

void alltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, const Datatype& sendtype,
               void* recvbuf, std::span<const int> recvcounts,
               std::span<const int> rdispls, const Datatype& recvtype,
               const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<Request> reqs;
  reqs.reserve(2 * static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    if (i == r) continue;
    reqs.push_back(comm.irecv_on(
        Comm::Channel::coll,
        block_at(recvbuf, rdispls[static_cast<std::size_t>(i)], recvtype),
        recvcounts[static_cast<std::size_t>(i)], recvtype, i, kAlltoallTag));
  }
  for (int i = 0; i < p; ++i) {
    if (i == r) continue;
    reqs.push_back(comm.isend_on(
        Comm::Channel::coll,
        block_at(sendbuf, sdispls[static_cast<std::size_t>(i)], sendtype),
        sendcounts[static_cast<std::size_t>(i)], sendtype, i, kAlltoallTag));
  }
  copy_typed(block_at(sendbuf, sdispls[static_cast<std::size_t>(r)], sendtype),
             sendcounts[static_cast<std::size_t>(r)], sendtype,
             block_at(recvbuf, rdispls[static_cast<std::size_t>(r)], recvtype),
             recvcounts[static_cast<std::size_t>(r)], recvtype);
  wait_all(reqs);
}

}  // namespace mpl
