#include "mpl/reduce.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "mpl/collectives.hpp"
#include "mpl/error.hpp"

namespace mpl {

namespace {

constexpr int kReduceTag = 7;  // scan uses +1, exscan's shift +2

/// Bytes of `count` elements, after checking that `type` puts element j at
/// byte j * op.elem_size(), the array that ReduceOp::fold walks.
std::size_t reduce_bytes(const char* what, int count, const Datatype& type,
                         const ReduceOp& op) {
  MPL_REQUIRE(count >= 0, std::string(what) + ": negative count");
  MPL_REQUIRE(op.valid() && type.dense() && type.lb() == 0 &&
                  type.size() == op.elem_size(),
              std::string(what) + ": op '" + op.name() + "' needs one " +
                  std::to_string(op.elem_size()) +
                  "-byte block at displacement 0 spanning the extent");
  return static_cast<std::size_t>(count) * type.size();
}

}  // namespace

void reduce(const void* in, void* out, int count, const Datatype& type,
            const ReduceOp& op, int root, const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  MPL_REQUIRE(root >= 0 && root < p, "reduce: root out of range");
  const std::size_t bytes = reduce_bytes("reduce", count, type, op);

  const int v = (r - root + p) % p;
  const auto* src = static_cast<const std::byte*>(in);
  std::vector<std::byte> acc(src, src + bytes);
  std::vector<std::byte> tmp(bytes);

  int mask = 1;
  for (; mask < p; mask <<= 1) {
    if (v & mask) break;  // this process sends and is done
    const int child = v | mask;
    if (child < p) {
      comm.irecv_on(Comm::Channel::coll, tmp.data(), count, type,
                    (child + root) % p, kReduceTag)
          .wait();
      op.fold(acc.data(), tmp.data(), count);
    }
  }
  if (v != 0) {
    comm.isend_on(Comm::Channel::coll, acc.data(), count, type,
                  ((v & ~mask) + root) % p, kReduceTag);
  } else {
    MPL_REQUIRE(out != nullptr, "reduce: root needs an output buffer");
    std::copy(acc.begin(), acc.end(), static_cast<std::byte*>(out));
  }
}

void allreduce(const void* in, void* out, int count, const Datatype& type,
               const ReduceOp& op, const Comm& comm) {
  reduce(in, out, count, type, op, 0, comm);
  bcast(out, count, type, 0, comm);
}

void scan(const void* in, void* out, int count, const Datatype& type,
          const ReduceOp& op, const Comm& comm) {
  const std::size_t bytes = reduce_bytes("scan", count, type, op);
  const int p = comm.size();
  const int r = comm.rank();
  const auto* src = static_cast<const std::byte*>(in);
  std::vector<std::byte> acc(src, src + bytes);
  std::vector<std::byte> tmp(bytes);
  for (int k = 1; k < p; k <<= 1) {
    Request req;
    if (r - k >= 0) {
      req = comm.irecv_on(Comm::Channel::coll, tmp.data(), count, type, r - k,
                          kReduceTag + 1);
    }
    if (r + k < p) {
      comm.isend_on(Comm::Channel::coll, acc.data(), count, type, r + k,
                    kReduceTag + 1);
    }
    if (req.valid()) {
      req.wait();
      // Left operand is the lower-rank partial: order matters for
      // non-commutative operators.
      op.fold(tmp.data(), acc.data(), count);
      acc.swap(tmp);
    }
  }
  std::copy(acc.begin(), acc.end(), static_cast<std::byte*>(out));
}

void exscan(const void* in, void* out, int count, const Datatype& type,
            const ReduceOp& op, const Comm& comm) {
  const std::size_t bytes = reduce_bytes("exscan", count, type, op);
  std::vector<std::byte> incl(bytes);
  scan(in, incl.data(), count, type, op, comm);
  // Shift the inclusive result down by one rank.
  const int r = comm.rank();
  Request req;
  if (r > 0) {
    req = comm.irecv_on(Comm::Channel::coll, out, count, type, r - 1,
                        kReduceTag + 2);
  }
  if (r + 1 < comm.size()) {
    comm.isend_on(Comm::Channel::coll, incl.data(), count, type, r + 1,
                  kReduceTag + 2);
  }
  if (req.valid()) {
    req.wait();
  } else {
    std::fill_n(static_cast<std::byte*>(out), bytes, std::byte{0});
  }
}

void reduce_scatter_block(const void* in, void* out, int count,
                          const Datatype& type, const ReduceOp& op,
                          const Comm& comm) {
  const int p = comm.size();
  std::vector<std::byte> full(
      reduce_bytes("reduce_scatter_block", count, type, op) *
      static_cast<std::size_t>(p));
  reduce(in, full.data(), p * count, type, op, 0, comm);
  scatter(full.data(), count, type, out, count, type, 0, comm);
}

}  // namespace mpl
