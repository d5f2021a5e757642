// PGAS runtime tests: SPMD execution, barriers, global counter, and
// concurrent one-sided array access.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace {

using namespace emc::pgas;

TEST(RuntimeTest, RunsEveryRankExactlyOnce) {
  Runtime rt(4);
  std::vector<std::atomic<int>> hits(4);
  rt.run([&](Context& ctx) {
    hits[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
    EXPECT_EQ(ctx.size(), 4);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RuntimeTest, RejectsZeroRanks) {
  EXPECT_THROW(Runtime(0), std::invalid_argument);
}

TEST(RuntimeTest, BarrierOrdersPhases) {
  Runtime rt(4);
  std::atomic<int> phase1_count{0};
  std::atomic<bool> violated{false};
  rt.run([&](Context& ctx) {
    phase1_count.fetch_add(1);
    ctx.barrier();
    // After the barrier every rank must observe all phase-1 increments.
    if (phase1_count.load() != 4) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(RuntimeTest, ExceptionPropagates) {
  Runtime rt(2);
  EXPECT_THROW(rt.run([](Context& ctx) {
                 if (ctx.rank() == 1) throw std::runtime_error("rank 1 died");
               }),
               std::runtime_error);
}

TEST(RuntimeTest, ReusableAcrossRuns) {
  Runtime rt(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 3; ++round) {
    rt.run([&](Context&) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 9);
}

TEST(GlobalCounterTest, SequentialSemantics) {
  GlobalCounter c(10);
  EXPECT_EQ(c.fetch_add(5), 10);
  EXPECT_EQ(c.fetch_add(1), 15);
  EXPECT_EQ(c.load(), 16);
  c.reset(0);
  EXPECT_EQ(c.load(), 0);
}

TEST(GlobalCounterTest, ConcurrentGrabsAreUniqueAndComplete) {
  // nxtval semantics: N ranks grabbing chunks must partition [0, total).
  const int n_ranks = 8;
  const std::int64_t total = 5000;
  Runtime rt(n_ranks);
  GlobalCounter counter(0);
  emc::util::MetricsRegistry registry;
  counter.attach_metrics(registry, n_ranks);
  std::vector<std::atomic<char>> claimed(static_cast<std::size_t>(total));

  rt.run([&](Context& ctx) {
    while (true) {
      const std::int64_t i = counter.fetch_add(1, ctx.rank());
      if (i >= total) break;
      // Each index must be claimed exactly once.
      EXPECT_EQ(claimed[static_cast<std::size_t>(i)].fetch_add(1), 0);
    }
  });
  for (const auto& c : claimed) EXPECT_EQ(c.load(), 1);
  // Every grab is counted once in the total and once for its rank; each
  // rank's final grab is the one that finds the range exhausted.
  std::int64_t per_rank = 0;
  for (int r = 0; r < n_ranks; ++r) {
    const std::string name = "pgas/r" + std::to_string(r) + "/nxtval_ops";
    per_rank += registry.counter(name).value();
  }
  EXPECT_EQ(registry.counter("pgas/nxtval_ops").value(), total + n_ranks);
  EXPECT_EQ(per_rank, total + n_ranks);
}

TEST(GlobalArrayTest, OwnershipCoversAllRowsInOrder) {
  GlobalArray ga(100, 10, 7);
  int prev_owner = 0;
  std::size_t covered = 0;
  for (int r = 0; r < 7; ++r) {
    const auto [first, last] = ga.local_rows(r);
    EXPECT_LE(first, last);
    covered += last - first;
    for (std::size_t row = first; row < last; ++row) {
      EXPECT_EQ(ga.owner_of_row(row), r);
    }
    EXPECT_GE(r, prev_owner);
    prev_owner = r;
  }
  EXPECT_EQ(covered, 100u);
}

TEST(GlobalArrayTest, PutThenGetRoundTrip) {
  GlobalArray ga(8, 8, 2);
  std::vector<double> patch{1.0, 2.0, 3.0, 4.0};
  ga.put(0, 3, 2, 2, 2, patch);

  std::vector<double> out(4, 0.0);
  ga.get(1, 3, 2, 2, 2, out);
  EXPECT_EQ(out, patch);
  EXPECT_DOUBLE_EQ(ga.at(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(ga.at(4, 3), 4.0);
}

TEST(GlobalArrayTest, PatchBoundsChecked) {
  GlobalArray ga(4, 4, 1);
  std::vector<double> buf(16);
  EXPECT_THROW(ga.get(0, 3, 3, 2, 2, buf), std::out_of_range);
  EXPECT_THROW(ga.get(0, 0, 0, 0, 1, buf), std::out_of_range);
  std::vector<double> tiny(1);
  EXPECT_THROW(ga.get(0, 0, 0, 2, 2, tiny), std::invalid_argument);
}

TEST(GlobalArrayTest, ConcurrentAccumulateIsAtomic) {
  // All ranks accumulate 1.0 into every element; the result must be
  // exactly n_ranks * repeats everywhere (lost updates would show).
  const int n_ranks = 8;
  const int repeats = 50;
  GlobalArray ga(32, 16, n_ranks);
  Runtime rt(n_ranks);
  const std::vector<double> ones(32 * 16, 1.0);

  rt.run([&](Context& ctx) {
    for (int k = 0; k < repeats; ++k) {
      ga.accumulate(ctx.rank(), 0, 0, 32, 16, ones);
    }
  });

  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      ASSERT_DOUBLE_EQ(ga.at(r, c), static_cast<double>(n_ranks * repeats));
    }
  }
}

TEST(GlobalArrayTest, StripeSpanningOperations) {
  // A patch spanning several owners must read/write all stripes.
  GlobalArray ga(12, 4, 4);  // 3 rows per rank
  std::vector<double> patch(12 * 4);
  std::iota(patch.begin(), patch.end(), 0.0);
  ga.put(0, 0, 0, 12, 4, patch);

  std::vector<double> out(12 * 4);
  ga.get(3, 0, 0, 12, 4, out);
  EXPECT_EQ(out, patch);
}

TEST(GlobalArrayTest, MetricsCountOpsAndBytesPerCaller) {
  emc::util::MetricsRegistry registry;
  GlobalArray ga(4, 4, 2);
  ga.set_metrics(&registry);
  std::vector<double> patch(2 * 3, 1.0);
  ga.put(0, 1, 0, 2, 3, patch);
  ga.accumulate(1, 1, 0, 2, 3, patch);
  ga.get(1, 1, 0, 2, 3, patch);
  ga.get(1, 0, 0, 1, 1, patch);
  const auto value = [&](const char* name) {
    return registry.counter(name).value();
  };
  EXPECT_EQ(value("pgas/r0/put_ops"), 1);
  EXPECT_EQ(value("pgas/r0/put_bytes"), 48);
  EXPECT_EQ(value("pgas/r1/acc_ops"), 1);
  EXPECT_EQ(value("pgas/r1/acc_bytes"), 48);
  EXPECT_EQ(value("pgas/r1/get_ops"), 2);
  EXPECT_EQ(value("pgas/r1/get_bytes"), 56);
  EXPECT_EQ(value("pgas/r0/get_ops"), 0);
  EXPECT_DOUBLE_EQ(ga.at(1, 0), 2.0);  // put 1, then accumulate 1
}

}  // namespace
