// Execution-model tests: Chase–Lev deque correctness (sequential and
// under concurrent theft) and the exactly-once guarantee of the slot
// scheduler under every policy pair.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/schedulers.hpp"
#include "exec/ws_deque.hpp"
#include "lb/simple.hpp"

namespace {

using namespace emc::exec;

TEST(WsDequeTest, LifoForOwner) {
  WsDeque d(8);
  EXPECT_TRUE(d.push(1));
  EXPECT_TRUE(d.push(2));
  EXPECT_TRUE(d.push(3));
  EXPECT_EQ(d.pop().value(), 3);
  EXPECT_EQ(d.pop().value(), 2);
  EXPECT_EQ(d.pop().value(), 1);
  EXPECT_FALSE(d.pop().has_value());
}

TEST(WsDequeTest, FifoForThief) {
  WsDeque d(8);
  d.push(1);
  d.push(2);
  d.push(3);
  EXPECT_EQ(d.steal().value(), 1);
  EXPECT_EQ(d.steal().value(), 2);
  EXPECT_EQ(d.pop().value(), 3);
  EXPECT_FALSE(d.steal().has_value());
}

TEST(WsDequeTest, CapacityRespected) {
  WsDeque d(2);
  EXPECT_TRUE(d.push(1));
  EXPECT_TRUE(d.push(2));
  EXPECT_FALSE(d.push(3));
  d.steal();
  EXPECT_TRUE(d.push(3));  // space reclaimed after steal
}

TEST(WsDequeTest, SizeEstimate) {
  WsDeque d(16);
  EXPECT_EQ(d.size_estimate(), 0);
  d.push(1);
  d.push(2);
  EXPECT_EQ(d.size_estimate(), 2);
}

TEST(WsDequeTest, ConcurrentTheftExactlyOnce) {
  // Owner pushes N items and pops; thieves steal concurrently. Every item
  // must be consumed exactly once.
  const std::int64_t n = 20000;
  const int n_thieves = 3;
  WsDeque d(static_cast<std::size_t>(n));
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
  std::atomic<std::int64_t> consumed{0};

  std::thread owner([&] {
    for (std::int64_t i = 0; i < n; ++i) {
      d.push(i);
      // Interleave pops to exercise the pop/steal race on size 1.
      if (i % 3 == 0) {
        if (auto v = d.pop()) {
          seen[static_cast<std::size_t>(*v)].fetch_add(1);
          consumed.fetch_add(1);
        }
      }
    }
    while (auto v = d.pop()) {
      seen[static_cast<std::size_t>(*v)].fetch_add(1);
      consumed.fetch_add(1);
    }
  });

  std::vector<std::thread> thieves;
  for (int t = 0; t < n_thieves; ++t) {
    thieves.emplace_back([&] {
      while (consumed.load() < n) {
        if (auto v = d.steal()) {
          seen[static_cast<std::size_t>(*v)].fetch_add(1);
          consumed.fetch_add(1);
        }
      }
    });
  }
  owner.join();
  for (auto& t : thieves) t.join();

  EXPECT_EQ(consumed.load(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(WsDequeTest, OwnerVsThiefLastElementRace) {
  // Stress the one-element case specifically: the owner pushes a single
  // item and immediately pops it while a thief hammers steal(), so
  // nearly every round exercises the t == b CAS race in pop(). Each
  // item must be consumed by exactly one side — a regression guard for
  // the lost-race branch (which once carried a dead `value = -1` store).
  const std::int64_t n = 100000;
  WsDeque d(2);
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> consumed{0};

  std::thread thief([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (auto v = d.steal()) {
        seen[static_cast<std::size_t>(*v)].fetch_add(1);
        consumed.fetch_add(1);
      }
    }
    while (auto v = d.steal()) {
      seen[static_cast<std::size_t>(*v)].fetch_add(1);
      consumed.fetch_add(1);
    }
  });

  for (std::int64_t i = 0; i < n; ++i) {
    d.push(i);
    if (auto v = d.pop()) {
      seen[static_cast<std::size_t>(*v)].fetch_add(1);
      consumed.fetch_add(1);
    }
  }
  done.store(true, std::memory_order_release);
  thief.join();

  EXPECT_EQ(consumed.load(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

// ---------------------------------------------------------------------
// SlotScheduler: one executor loop over ranks × threads for every
// (inter, intra) policy pair.

constexpr Policy kPolicies[] = {Policy::kStatic, Policy::kCounter,
                                Policy::kWorkStealing};

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kStatic: return "static";
    case Policy::kCounter: return "counter";
    case Policy::kWorkStealing: return "ws";
  }
  return "?";
}

SlotSchedule make_schedule(Policy inter, Policy intra,
                           std::int64_t chunk = 7) {
  SlotSchedule schedule;
  schedule.inter = inter;
  schedule.intra = intra;
  schedule.counter_chunk = chunk;
  schedule.intra_chunk = chunk;
  return schedule;
}

/// Small but nonzero work so thieves get a window.
void spin() {
  volatile double x = 0.0;
  for (int i = 0; i < 2000; ++i) x = x + 1.0;
}

TEST(SlotSchedulerTest, EveryPolicyPairExecutesEachSlotOnce) {
  const std::int64_t n = 500;
  for (const int ranks : {1, 4}) {
    for (const int threads : {1, 3}) {
      emc::pgas::Runtime runtime(ranks);
      SlotScheduler scheduler(runtime, threads);
      const auto home = emc::lb::block_assignment(n, ranks);
      for (const Policy inter : kPolicies) {
        for (const Policy intra : kPolicies) {
          for (const std::int64_t chunk : {1, 7}) {
            std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
            const ExecutionStats stats = scheduler.run(
                make_schedule(inter, intra, chunk), home,
                [&](std::int64_t s, int, RankStats& ts) {
                  hits[static_cast<std::size_t>(s)].fetch_add(1);
                  ++ts.tasks_executed;
                });
            const std::string where =
                std::string("inter=") + policy_name(inter) +
                " intra=" + policy_name(intra) +
                " chunk=" + std::to_string(chunk) +
                " ranks=" + std::to_string(ranks) +
                " threads=" + std::to_string(threads);
            for (std::int64_t s = 0; s < n; ++s) {
              ASSERT_EQ(hits[static_cast<std::size_t>(s)].load(), 1)
                  << where << " slot " << s;
            }
            EXPECT_EQ(stats.total_tasks(), n) << where;
            EXPECT_EQ(stats.ranks.size(), static_cast<std::size_t>(ranks));
          }
        }
      }
    }
  }
}

TEST(SlotSchedulerTest, StaticHonorsHome) {
  const std::int64_t n = 200;
  emc::pgas::Runtime runtime(4);
  SlotScheduler scheduler(runtime, 3);
  const auto home = emc::lb::cyclic_assignment(n, 4);
  for (const Policy intra : kPolicies) {
    std::vector<std::atomic<int>> executor(static_cast<std::size_t>(n));
    scheduler.run(make_schedule(Policy::kStatic, intra), home,
                  [&](std::int64_t s, int rank, RankStats&) {
                    executor[static_cast<std::size_t>(s)].store(rank);
                  });
    for (std::int64_t s = 0; s < n; ++s) {
      EXPECT_EQ(executor[static_cast<std::size_t>(s)].load(),
                home[static_cast<std::size_t>(s)])
          << "intra=" << policy_name(intra) << " slot " << s;
    }
  }
}

TEST(SlotSchedulerTest, EveryExecutorMakesACounterOp) {
  // Each executor performs at least its terminating grab, so a rank
  // records at least `threads` counter ops — under the global counter
  // and under the rank-local one.
  const int threads = 3;
  emc::pgas::Runtime runtime(4);
  SlotScheduler scheduler(runtime, threads);
  const auto home = emc::lb::block_assignment(100, 4);
  for (const Policy inter : {Policy::kCounter, Policy::kStatic}) {
    const ExecutionStats stats =
        scheduler.run(make_schedule(inter, Policy::kCounter), home,
                      [](std::int64_t, int, RankStats&) {});
    for (const RankStats& r : stats.ranks) {
      EXPECT_GE(r.counter_ops, threads) << "inter=" << policy_name(inter);
    }
  }
}

TEST(SlotSchedulerTest, SkewedHomeUnderStealingSteals) {
  // Everything starts on rank 0; other ranks can only contribute by
  // stealing, so at least one steal must succeed. Rank 0 holds its
  // slots until another rank has run one, so the outcome does not
  // depend on the other rank threads starting before rank 0 drains its
  // queue; the wait is bounded, so a stealer that never steals fails
  // the test instead of hanging it.
  const std::int64_t n = 500;
  emc::pgas::Runtime runtime(4);
  SlotScheduler scheduler(runtime, 1);
  const emc::lb::Assignment home(static_cast<std::size_t>(n), 0);
  std::vector<std::atomic<int>> executor(static_cast<std::size_t>(n));
  std::atomic<bool> helped{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const ExecutionStats stats = scheduler.run(
      make_schedule(Policy::kWorkStealing, Policy::kStatic), home,
      [&](std::int64_t s, int rank, RankStats&) {
        if (rank != 0) helped.store(true);
        while (!helped.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        spin();
        executor[static_cast<std::size_t>(s)].store(rank);
      });
  EXPECT_GT(stats.total_steals(), 0);
  for (const auto& rank : executor) {
    EXPECT_GE(rank.load(), 0);
    EXPECT_LT(rank.load(), 4);
  }
}

TEST(SlotSchedulerTest, StaticInterStealsOnlyWithinTheRank) {
  // Intra-rank stealing balances threads but never moves a slot off its
  // home rank.
  const std::int64_t n = 300;
  emc::pgas::Runtime runtime(2);
  SlotScheduler scheduler(runtime, 4);
  const emc::lb::Assignment home(static_cast<std::size_t>(n), 1);
  std::atomic<int> off_home{0};
  scheduler.run(make_schedule(Policy::kStatic, Policy::kWorkStealing), home,
                [&](std::int64_t, int rank, RankStats&) {
                  spin();
                  if (rank != 1) off_home.fetch_add(1);
                });
  EXPECT_EQ(off_home.load(), 0);
}

TEST(SlotSchedulerTest, RankDoneRunsOnceAfterTheRankDrains) {
  const std::int64_t n = 120;
  emc::pgas::Runtime runtime(3);
  SlotScheduler scheduler(runtime, 2);
  const auto home = emc::lb::block_assignment(n, 3);
  std::vector<std::atomic<int>> executed(3);
  std::vector<int> seen_at_done(3, -1);
  scheduler.run(
      make_schedule(Policy::kStatic, Policy::kWorkStealing), home,
      [&](std::int64_t, int rank, RankStats&) {
        executed[static_cast<std::size_t>(rank)].fetch_add(1);
      },
      [&](int rank) {
        seen_at_done[static_cast<std::size_t>(rank)] =
            executed[static_cast<std::size_t>(rank)].load();
      });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(seen_at_done[static_cast<std::size_t>(r)], 40) << "rank " << r;
  }
}

TEST(SlotSchedulerTest, RejectsBadArguments) {
  emc::pgas::Runtime runtime(2);
  EXPECT_THROW(SlotScheduler(runtime, 0), std::invalid_argument);
  SlotScheduler scheduler(runtime, 2);
  const auto home = emc::lb::block_assignment(10, 2);
  const SlotBody body = [](std::int64_t, int, RankStats&) {};
  SlotSchedule bad_counter = make_schedule(Policy::kCounter, Policy::kStatic);
  bad_counter.counter_chunk = 0;
  EXPECT_THROW(scheduler.run(bad_counter, home, body), std::invalid_argument);
  SlotSchedule bad_intra = make_schedule(Policy::kStatic, Policy::kCounter);
  bad_intra.intra_chunk = 0;
  EXPECT_THROW(scheduler.run(bad_intra, home, body), std::invalid_argument);
  // A home rank outside the runtime.
  EXPECT_THROW(scheduler.run(make_schedule(Policy::kStatic, Policy::kStatic),
                             emc::lb::Assignment(10, 5), body),
               std::invalid_argument);
}

TEST(SlotSchedulerTest, ExceptionPropagatesWithoutDeadlockUnderEveryPolicy) {
  emc::pgas::Runtime runtime(4);
  SlotScheduler scheduler(runtime, 2);
  const auto home = emc::lb::block_assignment(1000, 4);
  for (const Policy inter : kPolicies) {
    for (const Policy intra : kPolicies) {
      EXPECT_THROW(scheduler.run(make_schedule(inter, intra), home,
                                 [](std::int64_t s, int, RankStats&) {
                                   if (s == 537) {
                                     throw std::runtime_error("slot exploded");
                                   }
                                 }),
                   std::runtime_error)
          << "inter=" << policy_name(inter) << " intra=" << policy_name(intra);
    }
  }
}

TEST(ExecutionStatsTest, UtilizationMath) {
  ExecutionStats s;
  s.wall_seconds = 2.0;
  s.ranks.resize(2);
  s.ranks[0].busy_seconds = 2.0;
  s.ranks[1].busy_seconds = 1.0;
  EXPECT_DOUBLE_EQ(s.utilization(), 0.75);
  ExecutionStats empty;
  EXPECT_DOUBLE_EQ(empty.utilization(), 0.0);
}

}  // namespace
