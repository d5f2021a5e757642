// Discrete-event simulator tests: conservation laws, analytic cross
// checks, determinism, and the qualitative orderings the paper's
// experiments rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "lb/simple.hpp"
#include "sim/machine.hpp"
#include "sim/simulators.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc::sim;
using emc::lb::Assignment;

MachineConfig quiet_machine(int procs) {
  MachineConfig config;
  config.n_procs = procs;
  config.procs_per_node = 8;
  return config;
}

std::vector<double> skewed_costs(std::size_t n, std::uint64_t seed) {
  emc::Rng rng(seed);
  std::vector<double> costs(n);
  for (auto& c : costs) c = std::exp(rng.uniform(-9.0, -4.0));  // heavy tail
  return costs;
}

std::int64_t total_tasks(const SimResult& r) {
  return std::accumulate(r.tasks_executed.begin(), r.tasks_executed.end(),
                         std::int64_t{0});
}

TEST(MachineConfigTest, TopologyLatencies) {
  MachineConfig c = quiet_machine(32);
  EXPECT_EQ(c.node_of(0), 0);
  EXPECT_EQ(c.node_of(7), 0);
  EXPECT_EQ(c.node_of(8), 1);
  EXPECT_DOUBLE_EQ(c.link_latency(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(c.link_latency(0, 1), c.intra_node_latency);
  EXPECT_DOUBLE_EQ(c.link_latency(0, 9), c.inter_node_latency);
}

TEST(CoreSpeedsTest, NoiseBounds) {
  MachineConfig c = quiet_machine(64);
  c.noise_amplitude = 0.3;
  const auto speeds = draw_core_speeds(c);
  ASSERT_EQ(speeds.size(), 64u);
  for (double s : speeds) {
    EXPECT_GT(s, 0.7 - 1e-12);
    EXPECT_LE(s, 1.0);
  }
  // No noise -> all exactly 1.
  c.noise_amplitude = 0.0;
  for (double s : draw_core_speeds(c)) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(SimulateStaticTest, MatchesHandComputedMakespan) {
  MachineConfig c = quiet_machine(2);
  c.task_overhead = 0.0;
  const std::vector<double> costs{1.0, 2.0, 3.0};
  const Assignment a{0, 0, 1};
  const SimResult r = simulate_static(c, costs, a);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  EXPECT_DOUBLE_EQ(r.busy[0], 3.0);
  EXPECT_DOUBLE_EQ(r.busy[1], 3.0);
  EXPECT_DOUBLE_EQ(r.utilization(), 1.0);
  EXPECT_EQ(total_tasks(r), 3);
}

TEST(SimulateStaticTest, TaskOverheadCounted) {
  MachineConfig c = quiet_machine(1);
  c.task_overhead = 0.5;
  const std::vector<double> costs{1.0, 1.0};
  const SimResult r = simulate_static(c, costs, Assignment{0, 0});
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);   // 2 * (0.5 + 1.0)
  EXPECT_DOUBLE_EQ(r.busy[0], 2.0);    // overhead is not busy time
}

TEST(SimulateCounterTest, ExecutesEverythingOnce) {
  MachineConfig c = quiet_machine(8);
  const auto costs = skewed_costs(500, 3);
  const SimResult r = simulate_counter(c, costs, 5);
  EXPECT_EQ(total_tasks(r), 500);
  // Each proc ends with one failed grab; ops >= procs.
  EXPECT_GE(r.counter_ops, 8);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(SimulateCounterTest, SingleProcMatchesSerialTime) {
  MachineConfig c = quiet_machine(1);
  c.task_overhead = 0.0;
  c.counter_service = 0.0;
  const std::vector<double> costs{1.0, 2.0, 3.0};
  const SimResult r = simulate_counter(c, costs, 10);
  EXPECT_NEAR(r.makespan, 6.0, 1e-12);
}

TEST(SimulateCounterTest, ContentionGrowsWithProcs) {
  // With tiny tasks, the serialized counter dominates: per-op wait must
  // grow as more procs hammer it.
  const std::vector<double> costs(2000, 1e-7);
  MachineConfig small = quiet_machine(4);
  MachineConfig big = quiet_machine(64);
  const SimResult rs = simulate_counter(small, costs, 1);
  const SimResult rb = simulate_counter(big, costs, 1);
  const double wait_small =
      rs.counter_wait / static_cast<double>(rs.counter_ops);
  const double wait_big =
      rb.counter_wait / static_cast<double>(rb.counter_ops);
  EXPECT_GT(wait_big, wait_small);
}

TEST(SimulateCounterTest, LargerChunksReduceCounterOps) {
  const auto costs = skewed_costs(1000, 7);
  MachineConfig c = quiet_machine(16);
  const SimResult fine = simulate_counter(c, costs, 1);
  const SimResult coarse = simulate_counter(c, costs, 32);
  EXPECT_GT(fine.counter_ops, coarse.counter_ops);
}

TEST(SimulateStealTest, ExecutesEverythingOnce) {
  MachineConfig c = quiet_machine(16);
  const auto costs = skewed_costs(800, 11);
  const auto initial = emc::lb::block_assignment(costs.size(), 16);
  std::vector<int> executed_by;
  const SimResult r =
      simulate_work_stealing(c, costs, initial, {}, &executed_by);
  EXPECT_EQ(total_tasks(r), 800);
  for (int p : executed_by) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 16);
  }
}

TEST(SimulateStealTest, DeterministicForSeed) {
  MachineConfig c = quiet_machine(16);
  const auto costs = skewed_costs(500, 13);
  const auto initial = emc::lb::block_assignment(costs.size(), 16);
  StealOptions options;
  options.seed = 99;
  const SimResult a = simulate_work_stealing(c, costs, initial, options);
  const SimResult b = simulate_work_stealing(c, costs, initial, options);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
}

TEST(SimulateStealTest, RescuesPathologicalImbalance) {
  // All work on proc 0: static is serial, stealing must parallelize.
  MachineConfig c = quiet_machine(16);
  const std::vector<double> costs(512, 1e-4);
  const Assignment all_on_zero(costs.size(), 0);
  const SimResult ws = simulate_work_stealing(c, costs, all_on_zero);
  const SimResult st = simulate_static(c, costs, all_on_zero);
  EXPECT_GT(ws.steals, 0);
  EXPECT_LT(ws.makespan, 0.5 * st.makespan);
}

TEST(SimulateStealTest, NoStealsWhenPerfectlyBalanced) {
  // Identical costs, perfect initial balance, zero task overhead: every
  // proc finishes simultaneously, so failed attempts may occur at the
  // very end but successful steals should be rare or zero.
  MachineConfig c = quiet_machine(8);
  const std::vector<double> costs(800, 1e-5);
  const auto initial = emc::lb::block_assignment(costs.size(), 8);
  const SimResult r = simulate_work_stealing(c, costs, initial);
  EXPECT_EQ(total_tasks(r), 800);
  // With 100 equal tasks per proc, any steals that do happen must be few.
  EXPECT_LT(r.steals, 40);
}

TEST(SimulateRetentiveTest, LaterRoundsImprove) {
  // Retention: round 2+ inherits the stolen placement, so steals and
  // makespan should drop relative to round 1.
  MachineConfig c = quiet_machine(32);
  const auto costs = skewed_costs(2048, 17);
  const Assignment all_on_zero(costs.size(), 0);
  const auto rounds = simulate_retentive(c, costs, all_on_zero, 5);
  ASSERT_EQ(rounds.size(), 5u);
  EXPECT_GT(rounds[0].steals, rounds[4].steals);
  EXPECT_GT(rounds[0].makespan, rounds[4].makespan);
  for (const auto& r : rounds) {
    EXPECT_EQ(total_tasks(r), 2048);
  }
}

TEST(SimulateNoiseTest, StaticDegradesStealingTolerates) {
  // The paper's "energy-induced variability" claim: static scheduling
  // eats the slowest core's slowdown; work stealing routes around it.
  const auto costs = skewed_costs(4096, 23);
  MachineConfig clean = quiet_machine(32);
  MachineConfig noisy = quiet_machine(32);
  noisy.noise_amplitude = 0.3;

  const auto lpt = emc::lb::lpt_assignment(costs, 32);
  const double static_clean =
      simulate_static(clean, costs, lpt).makespan;
  const double static_noisy =
      simulate_static(noisy, costs, lpt).makespan;
  const double ws_clean =
      simulate_work_stealing(clean, costs, lpt).makespan;
  const double ws_noisy =
      simulate_work_stealing(noisy, costs, lpt).makespan;

  const double static_hit = static_noisy / static_clean;
  const double ws_hit = ws_noisy / ws_clean;
  EXPECT_GT(static_hit, 1.15);  // static eats the slow core
  EXPECT_LT(ws_hit, static_hit);
}

TEST(SimulateTest, InputValidation) {
  MachineConfig c = quiet_machine(2);
  const std::vector<double> costs{1.0, -1.0};
  EXPECT_THROW(simulate_static(c, costs, Assignment{0, 1}),
               std::invalid_argument);
  const std::vector<double> ok{1.0, 1.0};
  EXPECT_THROW(simulate_static(c, ok, Assignment{0}),
               std::invalid_argument);
  EXPECT_THROW(simulate_counter(c, ok, 0), std::invalid_argument);
  MachineConfig bad = quiet_machine(0);
  EXPECT_THROW(simulate_static(bad, ok, Assignment{0, 0}),
               std::invalid_argument);
}

TEST(SimulateTest, EmptyTaskListIsFine) {
  MachineConfig c = quiet_machine(4);
  const std::vector<double> none;
  const SimResult r = simulate_static(c, none, Assignment{});
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
  const SimResult rc = simulate_counter(c, none, 4);
  EXPECT_EQ(total_tasks(rc), 0);
  const SimResult rw = simulate_work_stealing(c, none, Assignment{});
  EXPECT_EQ(total_tasks(rw), 0);
}

}  // namespace
