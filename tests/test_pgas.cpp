// PGAS runtime tests: SPMD execution, barriers, global counter, and
// concurrent one-sided array access.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
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
  CommCostModel free_model;
  EXPECT_EQ(c.fetch_add(5, free_model), 10);
  EXPECT_EQ(c.fetch_add(1, free_model), 15);
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
  std::vector<std::atomic<char>> claimed(static_cast<std::size_t>(total));

  rt.run([&](Context& ctx) {
    while (true) {
      const std::int64_t i = counter.fetch_add(1, ctx.cost_model());
      if (i >= total) break;
      // Each index must be claimed exactly once.
      EXPECT_EQ(claimed[static_cast<std::size_t>(i)].fetch_add(1), 0);
    }
  });
  for (const auto& c : claimed) EXPECT_EQ(c.load(), 1);
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
  CommCostModel free_model;
  std::vector<double> patch{1.0, 2.0, 3.0, 4.0};
  ga.put(0, 3, 2, 2, 2, patch, free_model);

  std::vector<double> out(4, 0.0);
  ga.get(1, 3, 2, 2, 2, out, free_model);
  EXPECT_EQ(out, patch);
  EXPECT_DOUBLE_EQ(ga.at(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(ga.at(4, 3), 4.0);
}

TEST(GlobalArrayTest, PatchBoundsChecked) {
  GlobalArray ga(4, 4, 1);
  CommCostModel m;
  std::vector<double> buf(16);
  EXPECT_THROW(ga.get(0, 3, 3, 2, 2, buf, m), std::out_of_range);
  EXPECT_THROW(ga.get(0, 0, 0, 0, 1, buf, m), std::out_of_range);
  std::vector<double> tiny(1);
  EXPECT_THROW(ga.get(0, 0, 0, 2, 2, tiny, m), std::invalid_argument);
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
      ga.accumulate(ctx.rank(), 0, 0, 32, 16, ones, ctx.cost_model());
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
  CommCostModel m;
  std::vector<double> patch(12 * 4);
  std::iota(patch.begin(), patch.end(), 0.0);
  ga.put(0, 0, 0, 12, 4, patch, m);

  std::vector<double> out(12 * 4);
  ga.get(3, 0, 0, 12, 4, out, m);
  EXPECT_EQ(out, patch);
}

TEST(CommCostModelTest, TransferCostComposition) {
  CommCostModel m;
  m.local_ns = 10;
  m.remote_ns = 1000;
  m.per_byte_ns = 2;
  EXPECT_EQ(m.transfer_cost(false, 8), 10u + 16u);
  EXPECT_EQ(m.transfer_cost(true, 8), 1000u + 16u);
}

TEST(InjectDelayTest, ZeroIsNoop) {
  inject_delay(0);  // must return immediately
  SUCCEED();
}

TEST(RetryTest, DisabledFaultsAreFreeAndDeterministic) {
  CommCostModel cost;  // drop_prob 0: faults off
  EXPECT_FALSE(cost.faults_enabled());
  EXPECT_EQ(resolve_with_retries(cost, 0, 0, 0), 0);
  EXPECT_EQ(resolve_with_retries(cost, 3, 99, 1000), 0);
}

TEST(RetryTest, DropDecisionsReplayFromTheSeed) {
  CommCostModel cost;
  cost.drop_prob = 0.5;
  cost.retry_backoff_ns = 0;
  std::vector<int> first, second;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    first.push_back(resolve_with_retries(cost, 1, seq, 0));
  }
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    second.push_back(resolve_with_retries(cost, 1, seq, 0));
  }
  EXPECT_EQ(first, second);
  // With p = 0.5 over 64 ops some must retry and some must not.
  EXPECT_TRUE(std::any_of(first.begin(), first.end(),
                          [](int r) { return r > 0; }));
  EXPECT_TRUE(std::any_of(first.begin(), first.end(),
                          [](int r) { return r == 0; }));
  // A different seed reshuffles the stream.
  CommCostModel other = cost;
  other.fault_seed = cost.fault_seed + 1;
  std::vector<int> reseeded;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    reseeded.push_back(resolve_with_retries(other, 1, seq, 0));
  }
  EXPECT_NE(first, reseeded);
}

TEST(RetryTest, CertainDropTimesOut) {
  CommCostModel cost;
  cost.drop_prob = 1.0;  // every attempt dropped
  cost.max_attempts = 3;
  cost.retry_backoff_ns = 0;
  EXPECT_THROW(resolve_with_retries(cost, 0, 0, 0),
               std::runtime_error);
}

TEST(RetryTest, GlobalCounterRetriesAreCountedAndValuesStayUnique) {
  CommCostModel cost;
  cost.drop_prob = 0.3;
  cost.retry_backoff_ns = 0;
  emc::util::MetricsRegistry registry;
  GlobalCounter counter;
  counter.attach_metrics(registry, 4);

  Runtime runtime(4, cost);
  constexpr int kGrabs = 50;
  std::vector<std::atomic<int>> taken(4 * kGrabs);
  runtime.run([&](Context& ctx) {
    for (int i = 0; i < kGrabs; ++i) {
      const std::int64_t v =
          counter.fetch_add(1, ctx.cost_model(), ctx.rank());
      taken[static_cast<std::size_t>(v)].fetch_add(1);
    }
  });
  // Retries never duplicate or lose a fetch-add.
  for (const auto& t : taken) EXPECT_EQ(t.load(), 1);
  EXPECT_EQ(registry.counter("pgas/nxtval_ops").value(), 4 * kGrabs);
  // p = 0.3 over 200 ops: some retries are certain for this seed.
  EXPECT_GT(registry.counter("pgas/nxtval_retries").value(), 0);
}

TEST(RetryTest, GlobalArrayFaultsDelayButNeverCorrupt) {
  CommCostModel cost;
  cost.drop_prob = 0.4;
  cost.retry_backoff_ns = 0;
  emc::util::MetricsRegistry registry;
  GlobalArray ga(16, 16, 2);
  ga.set_metrics(&registry);

  std::vector<double> patch(16 * 16);
  for (std::size_t i = 0; i < patch.size(); ++i) {
    patch[i] = static_cast<double>(i);
  }
  ga.put(0, 0, 0, 16, 16, patch, cost);
  ga.accumulate(1, 0, 0, 16, 16, patch, cost);
  std::vector<double> out(16 * 16, -1.0);
  for (int round = 0; round < 16; ++round) {
    ga.get(round % 2, 0, 0, 16, 16, out, cost);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], 2.0 * static_cast<double>(i)) << i;
  }
  const std::int64_t retries =
      registry.counter("pgas/r0/op_retries").value() +
      registry.counter("pgas/r1/op_retries").value();
  EXPECT_GT(retries, 0);  // p = 0.4 over 18 ops, certain for this seed
}

}  // namespace
