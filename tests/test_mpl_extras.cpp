// Extended MPI-surface features of the substrate: subarray datatypes,
// probe/iprobe, wait_any/test_any, prefix scans and reduce-scatter.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "mpl/mpl.hpp"

using mpl::Comm;
using mpl::Datatype;

namespace {
const Datatype kInt = Datatype::of<int>();
}

// -- subarray -----------------------------------------------------------------

TEST(Subarray, TwoDimensionalBox) {
  const std::vector<int> sizes{4, 5};
  const std::vector<int> subsizes{2, 3};
  const std::vector<int> starts{1, 2};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, kInt);
  EXPECT_EQ(t.size(), 6 * sizeof(int));
  EXPECT_EQ(t.extent(), static_cast<std::ptrdiff_t>(20 * sizeof(int)));

  std::vector<int> m(20);
  std::iota(m.begin(), m.end(), 0);
  std::vector<std::byte> buf(t.pack_size(1));
  t.pack(m.data(), 1, buf.data());
  const int* p = reinterpret_cast<const int*>(buf.data());
  const int expect[6] = {7, 8, 9, 12, 13, 14};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(p[i], expect[i]);
}

TEST(Subarray, FullArrayIsDense) {
  const std::vector<int> sizes{3, 3};
  const std::vector<int> zeros{0, 0};
  Datatype t = Datatype::subarray(sizes, sizes, zeros, kInt);
  EXPECT_EQ(t.block_count(), 1u);  // rows merge into one block
  EXPECT_EQ(t.size(), 9 * sizeof(int));
}

TEST(Subarray, OneDimensional) {
  const std::vector<int> sizes{10};
  const std::vector<int> sub{4};
  const std::vector<int> start{3};
  Datatype t = Datatype::subarray(sizes, sub, start, kInt);
  EXPECT_EQ(t.size(), 4 * sizeof(int));
  EXPECT_EQ(t.blocks()[0].disp, static_cast<std::ptrdiff_t>(3 * sizeof(int)));
}

TEST(Subarray, EmptyBoxAndValidation) {
  const std::vector<int> sizes{4, 4};
  const std::vector<int> zerosub{0, 2};
  const std::vector<int> start{1, 1};
  EXPECT_EQ(Datatype::subarray(sizes, zerosub, start, kInt).size(), 0u);
  const std::vector<int> toolarge{3, 4};
  EXPECT_THROW(Datatype::subarray(sizes, toolarge, start, kInt), mpl::Error);
}

TEST(Subarray, ThreeDimensionalRoundTrip) {
  const std::vector<int> sizes{3, 4, 5};
  const std::vector<int> sub{2, 2, 2};
  const std::vector<int> starts{1, 1, 2};
  Datatype t = Datatype::subarray(sizes, sub, starts, Datatype::of<double>());
  EXPECT_EQ(t.size(), 8 * sizeof(double));
  std::vector<double> src(60);
  std::iota(src.begin(), src.end(), 0.0);
  std::vector<double> dst(60, -1.0);
  std::vector<std::byte> buf(t.pack_size(1));
  t.pack(src.data(), 1, buf.data());
  t.unpack(buf.data(), dst.data(), 1);
  int copied = 0;
  for (int i = 0; i < 60; ++i) {
    if (dst[static_cast<std::size_t>(i)] >= 0) {
      EXPECT_DOUBLE_EQ(dst[static_cast<std::size_t>(i)], src[static_cast<std::size_t>(i)]);
      ++copied;
    }
  }
  EXPECT_EQ(copied, 8);
}

TEST(Subarray, UsableInCommunication) {
  mpl::run(2, [](Comm& c) {
    const std::vector<int> sizes{4, 4};
    const std::vector<int> sub{2, 2};
    const std::vector<int> starts{1, 1};
    Datatype box = Datatype::subarray(sizes, sub, starts, kInt);
    if (c.rank() == 0) {
      std::vector<int> m(16);
      std::iota(m.begin(), m.end(), 100);
      c.send(m.data(), 1, box, 1, 0);
    } else {
      std::vector<int> m(16, -1);
      c.recv(m.data(), 1, box, 0, 0);
      EXPECT_EQ(m[5], 105);
      EXPECT_EQ(m[6], 106);
      EXPECT_EQ(m[9], 109);
      EXPECT_EQ(m[10], 110);
      EXPECT_EQ(m[0], -1);
    }
  });
}

// -- probe ---------------------------------------------------------------------

TEST(Probe, BlockingProbeSeesEnvelope) {
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      const int v[3] = {1, 2, 3};
      c.send(v, 3, kInt, 1, 42);
    } else {
      mpl::Status st = c.probe(0);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.bytes, 3 * sizeof(int));
      // Message must still be receivable after probing.
      std::vector<int> in(3, -1);
      c.recv(in.data(), 3, kInt, 0, 42);
      EXPECT_EQ(in[2], 3);
    }
  });
}

TEST(Probe, IprobeNonBlocking) {
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      mpl::barrier(c);
      const int v = 9;
      c.send(&v, 1, kInt, 1, 7);
    } else {
      EXPECT_FALSE(c.iprobe(0, 7));  // nothing sent yet
      mpl::barrier(c);
      mpl::Status st;
      while (!c.iprobe(0, 7, &st)) std::this_thread::yield();
      EXPECT_EQ(st.bytes, sizeof(int));
      int in = 0;
      c.recv(&in, 1, kInt, 0, 7);
      EXPECT_EQ(in, 9);
    }
  });
}

TEST(Probe, WildcardsAndTagSelectivity) {
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      const int a = 1;
      c.send(&a, 1, kInt, 1, 5);
    } else {
      mpl::Status st = c.probe(mpl::ANY_SOURCE, mpl::ANY_TAG);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_FALSE(c.iprobe(0, 6));  // different tag: no match
      int in;
      c.recv(&in, 1, kInt, 0, 5);
    }
  });
}

// -- wait_any / test_any --------------------------------------------------------

TEST(WaitAny, ReturnsFirstCompleted) {
  mpl::run(3, [](Comm& c) {
    if (c.rank() == 0) {
      int a = -1, b = -1;
      std::vector<mpl::Request> reqs;
      reqs.push_back(c.irecv(&a, 1, kInt, 1, 0));
      reqs.push_back(c.irecv(&b, 1, kInt, 2, 0));
      mpl::barrier(c);  // rank 2 sends only after the barrier
      std::size_t idx = 99;
      mpl::Status st = mpl::wait_any(reqs, &idx);
      EXPECT_EQ(st.bytes, sizeof(int));
      // Complete the rest.
      std::size_t other = 1 - idx;
      reqs[other].wait();
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 20);
    } else if (c.rank() == 1) {
      const int v = 10;
      c.send(&v, 1, kInt, 0, 0);
      mpl::barrier(c);
    } else {
      mpl::barrier(c);
      const int v = 20;
      c.send(&v, 1, kInt, 0, 0);
    }
  });
}

TEST(WaitAny, SkipsInvalidHandles) {
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      int a = -1;
      std::vector<mpl::Request> reqs(3);  // two invalid
      reqs[1] = c.irecv(&a, 1, kInt, 1, 0);
      std::size_t idx = 99;
      mpl::wait_any(reqs, &idx);
      EXPECT_EQ(idx, 1u);
      EXPECT_EQ(a, 5);
    } else {
      const int v = 5;
      c.send(&v, 1, kInt, 0, 0);
    }
  });
}

TEST(WaitAny, AllInvalidThrows) {
  mpl::run(1, [](Comm&) {
    std::vector<mpl::Request> reqs(2);
    EXPECT_THROW(mpl::wait_any(reqs, nullptr), mpl::Error);
  });
}

TEST(TestAny, PollsWithoutBlocking) {
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      int a = -1;
      std::vector<mpl::Request> reqs;
      reqs.push_back(c.irecv(&a, 1, kInt, 1, 0));
      std::size_t idx;
      mpl::Status st;
      while (!mpl::test_any(reqs, &idx, &st)) std::this_thread::yield();
      EXPECT_EQ(idx, 0u);
      EXPECT_EQ(a, 77);
    } else {
      const int v = 77;
      c.send(&v, 1, kInt, 0, 0);
    }
  });
}

// -- persistent point-to-point ---------------------------------------------------

TEST(PersistentP2P, RepeatedPingPong) {
  mpl::run(2, [](Comm& c) {
    const int peer = 1 - c.rank();
    int out = 0, in = -1;
    auto ps = c.send_init(&out, 1, kInt, peer, 3);
    auto pr = c.recv_init(&in, 1, kInt, peer, 3);
    for (int iter = 0; iter < 10; ++iter) {
      out = c.rank() * 100 + iter;
      mpl::Request r = pr.start();
      ps.start();
      r.wait();
      EXPECT_EQ(in, peer * 100 + iter);
    }
  });
}

TEST(PersistentP2P, RecvFromProcNull) {
  mpl::run(1, [](Comm& c) {
    int in = 5;
    auto pr = c.recv_init(&in, 1, kInt, mpl::PROC_NULL, 0);
    mpl::Status st = pr.start().wait();
    EXPECT_EQ(st.source, mpl::PROC_NULL);
    EXPECT_EQ(in, 5);  // untouched
  });
}

TEST(PersistentP2P, DefaultConstructedThrows) {
  Comm::PersistentP2P p;
  EXPECT_THROW(p.start(), mpl::Error);
}

// -- scan / exscan / reduce_scatter ---------------------------------------------

TEST(Scan, InclusivePrefixSums) {
  mpl::run(7, [](Comm& c) {
    const int v = c.rank() + 1;
    int out = -1;
    mpl::scan(&v, &out, 1, kInt, mpl::ReduceOp::sum<int>(), c);
    EXPECT_EQ(out, (c.rank() + 1) * (c.rank() + 2) / 2);
  });
}

TEST(Scan, VectorValuedMax) {
  mpl::run(5, [](Comm& c) {
    const int v[2] = {c.rank() % 3, -c.rank()};
    int out[2];
    mpl::scan(v, out, 2, kInt, mpl::ReduceOp::max<int>(), c);
    int emax = 0;
    for (int r = 0; r <= c.rank(); ++r) emax = std::max(emax, r % 3);
    EXPECT_EQ(out[0], emax);
    EXPECT_EQ(out[1], 0);  // max of {0, -1, ..., -rank}
  });
}

TEST(Exscan, ExclusivePrefix) {
  mpl::run(6, [](Comm& c) {
    const int v = 2;
    int out = -1;
    mpl::exscan(&v, &out, 1, kInt, mpl::ReduceOp::sum<int>(), c);
    EXPECT_EQ(out, c.rank() == 0 ? 0 : 2 * c.rank());
  });
}

TEST(ReduceScatterBlock, DistributesReducedBlocks) {
  mpl::run(4, [](Comm& c) {
    // Each process contributes p blocks of 2; block r gathers to rank r.
    std::vector<int> in(8);
    for (int i = 0; i < 8; ++i) in[static_cast<std::size_t>(i)] = c.rank() * 100 + i;
    int out[2] = {-1, -1};
    mpl::reduce_scatter_block(in.data(), out, 2, kInt,
                              mpl::ReduceOp::sum<int>(), c);
    // Sum over ranks of (rank*100 + 2r + j) = 600 + 4*(2r + j).
    EXPECT_EQ(out[0], 600 + 4 * (2 * c.rank()));
    EXPECT_EQ(out[1], 600 + 4 * (2 * c.rank() + 1));
  });
}

TEST(Scan, SingleProcessIdentity) {
  mpl::run(1, [](Comm& c) {
    const double v = 3.5;
    double out = 0;
    const mpl::Datatype dbl = mpl::Datatype::of<double>();
    mpl::scan(&v, &out, 1, dbl, mpl::ReduceOp::sum<double>(), c);
    EXPECT_DOUBLE_EQ(out, 3.5);
    mpl::exscan(&v, &out, 1, dbl, mpl::ReduceOp::sum<double>(), c);
    EXPECT_DOUBLE_EQ(out, 0.0);
  });
}
