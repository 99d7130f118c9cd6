// Communicator management: dup, split, context isolation, runtime basics.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mpl/mpl.hpp"

using mpl::Comm;
using mpl::Datatype;

namespace {
const Datatype kInt = Datatype::of<int>();
}

TEST(Runtime, SingleProcess) {
  mpl::run(1, [](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
  });
}

TEST(Runtime, RanksAreDistinct) {
  constexpr int kP = 8;
  std::vector<std::atomic<int>> seen(kP);
  mpl::run(kP, [&](Comm& c) {
    seen[static_cast<std::size_t>(c.rank())].fetch_add(1);
    EXPECT_EQ(c.size(), kP);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Runtime, ZeroProcsRejected) {
  EXPECT_THROW(mpl::run(0, [](Comm&) {}), mpl::Error);
}

TEST(Runtime, ManyProcesses) {
  mpl::run(64, [](Comm& c) { mpl::barrier(c); });
}

TEST(CommDup, IsolatedMatchingContext) {
  mpl::run(2, [](Comm& c) {
    Comm d = c.dup();
    EXPECT_EQ(d.rank(), c.rank());
    EXPECT_EQ(d.size(), c.size());
    if (c.rank() == 0) {
      const int a = 1, b = 2;
      c.send(&a, 1, kInt, 1, 0);
      d.send(&b, 1, kInt, 1, 0);
    } else {
      int v = 0;
      // Receive on the dup first: must get the dup's message even though
      // the message on `c` arrived earlier with identical (src, tag).
      d.recv(&v, 1, kInt, 0, 0);
      EXPECT_EQ(v, 2);
      c.recv(&v, 1, kInt, 0, 0);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(CommDup, RepeatedDupsAreIndependent) {
  mpl::run(3, [](Comm& c) {
    Comm d1 = c.dup();
    Comm d2 = d1.dup();
    mpl::barrier(d1);
    mpl::barrier(d2);
    EXPECT_EQ(d2.size(), 3);
  });
}

TEST(CommSplit, EvenOddGroups) {
  mpl::run(6, [](Comm& c) {
    Comm g = c.split(c.rank() % 2, c.rank());
    ASSERT_TRUE(g.valid());
    EXPECT_EQ(g.size(), 3);
    EXPECT_EQ(g.rank(), c.rank() / 2);
    // Sum the world ranks within each group.
    const int sum = mpl::allreduce(c.rank(), mpl::ReduceOp::sum<int>(), g);
    EXPECT_EQ(sum, c.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(CommSplit, KeyControlsRankOrder) {
  mpl::run(4, [](Comm& c) {
    // Reverse the rank order via the key.
    Comm g = c.split(0, c.size() - c.rank());
    EXPECT_EQ(g.rank(), c.size() - 1 - c.rank());
  });
}

TEST(CommSplit, NegativeColorYieldsInvalid) {
  mpl::run(4, [](Comm& c) {
    Comm g = c.split(c.rank() == 0 ? -1 : 0, 0);
    if (c.rank() == 0) {
      EXPECT_FALSE(g.valid());
    } else {
      ASSERT_TRUE(g.valid());
      EXPECT_EQ(g.size(), 3);
    }
  });
}

TEST(CommSplit, SingletonGroups) {
  mpl::run(4, [](Comm& c) {
    Comm g = c.split(c.rank(), 0);  // every process its own group
    EXPECT_EQ(g.size(), 1);
    EXPECT_EQ(g.rank(), 0);
  });
}

TEST(Comm, HardSyncDoesNotAdvanceClocks) {
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::omnipath();
  mpl::run(
      4,
      [](Comm& c) {
        const double before = c.vclock();
        c.hard_sync();
        EXPECT_EQ(c.vclock(), before);
      },
      opts);
}

TEST(Comm, CollectiveChannelInvisibleToUserWildcards) {
  mpl::run(2, [](Comm& c) {
    // A barrier's internal messages must not be caught by ANY/ANY receives.
    if (c.rank() == 0) {
      int v = -1;
      mpl::Request r = c.irecv(&v, 1, kInt, mpl::ANY_SOURCE, mpl::ANY_TAG);
      mpl::barrier(c);
      const int x = 11;
      c.send(&x, 1, kInt, 0, 99);  // self message satisfies the wildcard
      r.wait();
      EXPECT_EQ(v, 11);
    } else {
      mpl::barrier(c);
    }
  });
}
