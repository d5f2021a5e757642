// Tests for the typed trace layer: every simulator's recorded event
// stream must be internally consistent (per-proc events non-overlapping,
// task durations reproducing the busy-time aggregates, steal provenance
// matching the steal counters), and the analyses / Chrome exporter must
// hold up on real and hand-crafted traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "lb/simple.hpp"
#include "sim/simulators.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc::sim;
using emc::lb::Assignment;

MachineConfig machine(int procs) {
  MachineConfig c;
  c.n_procs = procs;
  c.procs_per_node = 8;
  c.record_trace = true;
  return c;
}

std::vector<double> skewed_costs(std::size_t n, std::uint64_t seed) {
  emc::Rng rng(seed);
  std::vector<double> costs(n);
  for (auto& c : costs) c = std::exp(rng.uniform(-9.0, -4.0));
  return costs;
}

/// The core trace invariants: events stay inside [0, makespan], per-proc
/// events never overlap, and per-proc summed task durations reproduce
/// SimResult::busy to 1e-12.
void check_trace_invariants(const SimResult& r, int procs) {
  std::vector<std::vector<std::pair<double, double>>> by_proc(
      static_cast<std::size_t>(procs));
  std::vector<double> task_time(static_cast<std::size_t>(procs), 0.0);
  for (const TraceEvent& ev : r.trace) {
    ASSERT_GE(ev.proc, 0);
    ASSERT_LT(ev.proc, procs);
    ASSERT_LE(ev.start, ev.end);
    ASSERT_GE(ev.start, 0.0);
    ASSERT_LE(ev.end, r.makespan + 1e-12);
    by_proc[static_cast<std::size_t>(ev.proc)].emplace_back(ev.start,
                                                            ev.end);
    if (ev.type == TraceEventType::kTaskExec) {
      task_time[static_cast<std::size_t>(ev.proc)] += ev.duration();
    }
  }
  for (auto& events : by_proc) {
    std::sort(events.begin(), events.end());
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].first, events[i - 1].second - 1e-12)
          << "overlapping events on one proc";
    }
  }
  ASSERT_EQ(r.busy.size(), static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    EXPECT_NEAR(task_time[static_cast<std::size_t>(p)],
                r.busy[static_cast<std::size_t>(p)], 1e-12)
        << "summed task durations disagree with busy on proc " << p;
  }
}

std::size_t count_type(const SimResult& r, TraceEventType type) {
  std::size_t n = 0;
  for (const TraceEvent& ev : r.trace) {
    if (ev.type == type) ++n;
  }
  return n;
}

TEST(TypedTrace, EverySimulatorSatisfiesInvariants) {
  const auto costs = skewed_costs(400, 101);
  const MachineConfig c = machine(16);
  const auto block = emc::lb::block_assignment(costs.size(), 16);

  check_trace_invariants(simulate_static(c, costs, block), 16);
  check_trace_invariants(simulate_counter(c, costs, 4), 16);
  CounterOptions guided;
  guided.policy = ChunkPolicy::kGuided;
  check_trace_invariants(simulate_counter(c, costs, guided), 16);
  check_trace_invariants(simulate_hierarchical_counter(c, costs, 16, 2),
                         16);
  check_trace_invariants(simulate_hybrid(c, costs, block, 0.5), 16);
  check_trace_invariants(simulate_work_stealing(c, costs, block), 16);
}

TEST(TypedTrace, CounterEventsMatchCounterOps) {
  const auto costs = skewed_costs(500, 103);
  const SimResult r = simulate_counter(machine(8), costs, 4);
  EXPECT_EQ(count_type(r, TraceEventType::kCounterOp),
            static_cast<std::size_t>(r.counter_ops));
  // Dry grabs (first >= n_tasks) are recorded with task = -1; every proc
  // issues exactly one, so there are P of them.
  std::size_t dry = 0;
  for (const TraceEvent& ev : r.trace) {
    if (ev.type == TraceEventType::kCounterOp && ev.task < 0) ++dry;
  }
  EXPECT_EQ(dry, 8u);
}

TEST(TypedTrace, StealEventsMatchStealCounters) {
  const auto costs = skewed_costs(600, 107);
  const Assignment all_on_zero(costs.size(), 0);
  const SimResult r =
      simulate_work_stealing(machine(32), costs, all_on_zero);
  ASSERT_GT(r.steals, 0);
  EXPECT_EQ(count_type(r, TraceEventType::kStealSuccess),
            static_cast<std::size_t>(r.steals));
  EXPECT_EQ(count_type(r, TraceEventType::kStealSuccess) +
                count_type(r, TraceEventType::kStealFail),
            static_cast<std::size_t>(r.steal_attempts));
}

TEST(TypedTrace, ProvenanceRowsSumToSteals) {
  const auto costs = skewed_costs(800, 109);
  const Assignment all_on_zero(costs.size(), 0);
  const SimResult r =
      simulate_work_stealing(machine(32), costs, all_on_zero);
  const auto matrix = steal_provenance(r.trace, 32);
  ASSERT_EQ(matrix.size(), 32u * 32u);

  // Per-thief row sums must equal that proc's recorded steal successes;
  // the grand total must equal SimResult::steals.
  std::map<int, std::int64_t> successes_by_thief;
  for (const TraceEvent& ev : r.trace) {
    if (ev.type == TraceEventType::kStealSuccess) {
      ++successes_by_thief[ev.proc];
      EXPECT_NE(ev.proc, ev.peer) << "self-steal recorded";
    }
  }
  std::int64_t total = 0;
  for (int thief = 0; thief < 32; ++thief) {
    std::int64_t row = 0;
    for (int victim = 0; victim < 32; ++victim) {
      row += matrix[static_cast<std::size_t>(thief) * 32 +
                    static_cast<std::size_t>(victim)];
    }
    EXPECT_EQ(row, successes_by_thief[thief]);
    total += row;
  }
  EXPECT_EQ(total, r.steals);
}

TEST(TypedTrace, HybridRecordsStaticPrefixAndDynamicTail) {
  const auto costs = skewed_costs(300, 113);
  const auto block = emc::lb::block_assignment(costs.size(), 8);
  const SimResult r = simulate_hybrid(machine(8), costs, block, 0.5, 2);
  EXPECT_EQ(count_type(r, TraceEventType::kTaskExec), costs.size());
  EXPECT_GT(count_type(r, TraceEventType::kCounterOp), 0u);
}

TEST(IdleGaps, ComplementActivityExactly) {
  const auto costs = skewed_costs(200, 127);
  const MachineConfig c = machine(8);
  const auto block = emc::lb::block_assignment(costs.size(), 8);
  const SimResult r = simulate_work_stealing(c, costs, block);

  const auto gaps = derive_idle_gaps(r.trace, 8, r.makespan);
  // Activity + gaps tile [0, makespan] per proc: total durations add up
  // to P * makespan (events never overlap, so no double counting).
  double covered = 0.0;
  for (const TraceEvent& ev : r.trace) covered += ev.duration();
  for (const TraceEvent& gap : gaps) {
    EXPECT_EQ(gap.type, TraceEventType::kIdle);
    covered += gap.duration();
  }
  EXPECT_NEAR(covered, 8.0 * r.makespan, 1e-9);

  // min_gap filters short gaps only.
  const auto big_gaps = derive_idle_gaps(r.trace, 8, r.makespan, 1e-5);
  EXPECT_LE(big_gaps.size(), gaps.size());
  for (const TraceEvent& gap : big_gaps) EXPECT_GE(gap.duration(), 1e-5);
}

TEST(Summary, DecomposesCriticalPath) {
  const auto costs = skewed_costs(300, 131);
  const MachineConfig c = machine(8);
  const auto block = emc::lb::block_assignment(costs.size(), 8);
  const SimResult r = simulate_counter(c, costs, 2);

  const TraceSummary s = summarize_trace(r.trace, 8, r.makespan);
  EXPECT_EQ(s.events, static_cast<std::int64_t>(r.trace.size()));
  ASSERT_GE(s.critical_proc, 0);
  // The critical proc's decomposition covers the makespan.
  EXPECT_NEAR(s.critical_busy + s.critical_overhead + s.critical_idle,
              r.makespan, 1e-9);
  // Totals match the aggregates.
  double busy = 0.0;
  for (double b : r.busy) busy += b;
  EXPECT_NEAR(s.total_busy, busy, 1e-9);
  EXPECT_NEAR(s.total_overhead, r.counter_wait, 1e-9);
  EXPECT_LE(s.longest_idle_gap, r.makespan + 1e-12);
}

TEST(MergeRounds, OffsetsRoundsAndMarksBoundaries) {
  const auto costs = skewed_costs(200, 137);
  const MachineConfig c = machine(8);
  const auto block = emc::lb::block_assignment(costs.size(), 8);
  const auto rounds = simulate_retentive(c, costs, block, 3);
  ASSERT_EQ(rounds.size(), 3u);

  const auto merged = merge_round_traces(rounds);
  double total_makespan = 0.0;
  std::size_t total_events = 0;
  for (const SimResult& r : rounds) {
    total_makespan += r.makespan;
    total_events += r.trace.size();
  }
  EXPECT_EQ(merged.size(), total_events + 3);  // one boundary per round

  std::vector<double> boundaries;
  double expected_offset = 0.0;
  std::size_t round = 0;
  for (const TraceEvent& ev : merged) {
    EXPECT_LE(ev.end, total_makespan + 1e-12);
    if (ev.type == TraceEventType::kIterationBoundary) {
      EXPECT_EQ(ev.task, static_cast<std::int64_t>(round));
      EXPECT_NEAR(ev.start, expected_offset, 1e-12);
      expected_offset += rounds[round].makespan;
      ++round;
    }
  }
  EXPECT_EQ(round, 3u);
}

TEST(ChromeTrace, ExportsRequiredFieldsPerEvent) {
  const auto costs = skewed_costs(100, 139);
  const MachineConfig c = machine(8);
  const auto block = emc::lb::block_assignment(costs.size(), 8);
  const SimResult r = simulate_work_stealing(c, costs, block);

  std::ostringstream out;
  write_chrome_trace(out, r.trace, c.procs_per_node);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  auto count_substr = [&json](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  // Every event is a complete event with the viewer-required fields.
  EXPECT_EQ(count_substr("\"ph\": \"X\""), r.trace.size());
  EXPECT_EQ(count_substr("\"ts\": "), r.trace.size());
  EXPECT_EQ(count_substr("\"dur\": "), r.trace.size());
  EXPECT_EQ(count_substr("\"pid\": "), r.trace.size());
  EXPECT_EQ(count_substr("\"tid\": "), r.trace.size());
  // Steal events carry victim provenance in args.
  EXPECT_GT(count_substr("\"peer\": "), 0u);
}

TEST(ChromeTrace, TimestampsRoundTripPastTenSeconds) {
  // Two tasks a microsecond apart, twelve seconds into a run: at six
  // significant digits both would export "ts": 1.23457e+07.
  std::vector<TraceEvent> trace(2);
  trace[0].start = 12.345678;
  trace[0].end = 12.3456785;
  trace[1].proc = 1;
  trace[1].start = 12.345679;
  trace[1].end = 13.000001;

  std::ostringstream out;
  write_chrome_trace(out, trace, 8);
  const emc::util::JsonValue doc = emc::util::parse_json(out.str());
  const auto& events = doc.object.at("traceEvents").array;
  ASSERT_EQ(events.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& ev = events[i].object;
    EXPECT_NEAR(ev.at("ts").number, trace[i].start * 1e6, 1e-6);
    EXPECT_NEAR(ev.at("dur").number, trace[i].duration() * 1e6, 1e-6);
  }
  EXPECT_NE(events[0].object.at("ts").number,
            events[1].object.at("ts").number);
}

TEST(Timeline, SingleTaskCoversItsBins) {
  std::vector<TraceEvent> trace(1);
  trace[0].type = TraceEventType::kTaskExec;
  trace[0].proc = 0;
  trace[0].start = 0.25;
  trace[0].end = 0.75;
  const auto timeline = utilization_timeline(trace, 1.0, 1, 4);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_NEAR(timeline[0], 0.0, 1e-12);
  EXPECT_NEAR(timeline[1], 1.0, 1e-12);
  EXPECT_NEAR(timeline[2], 1.0, 1e-12);
  EXPECT_NEAR(timeline[3], 0.0, 1e-12);
}

TEST(Timeline, OneBinEqualsMeanUtilization) {
  const auto costs = skewed_costs(200, 149);
  const MachineConfig c = machine(8);
  const auto block = emc::lb::block_assignment(costs.size(), 8);
  const SimResult r = simulate_static(c, costs, block);
  const auto timeline = utilization_timeline(r, 8, 1);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_NEAR(timeline[0], r.utilization(), 1e-9);
}

TEST(Timeline, RejectsEmptyTraceAndBadArgs) {
  const std::vector<TraceEvent> empty;
  EXPECT_THROW(utilization_timeline(empty, 1.0, 4, 10),
               std::invalid_argument);
  // A trace with only non-task events is "empty" for utilization.
  std::vector<TraceEvent> overhead_only(1);
  overhead_only[0].type = TraceEventType::kStealFail;
  overhead_only[0].end = 0.5;
  EXPECT_THROW(utilization_timeline(overhead_only, 1.0, 4, 10),
               std::invalid_argument);

  std::vector<TraceEvent> one_task(1);
  one_task[0].type = TraceEventType::kTaskExec;
  one_task[0].end = 0.5;
  EXPECT_THROW(utilization_timeline(one_task, 1.0, 4, 0),
               std::invalid_argument);
  EXPECT_THROW(utilization_timeline(one_task, 1.0, 0, 10),
               std::invalid_argument);
}

TEST(Timeline, RejectsNonPositiveOrNonFiniteMakespan) {
  // Regression: makespan == 0 used to produce a zero bin width, so
  // ev.start / width was NaN/Inf and its cast to int undefined behavior.
  std::vector<TraceEvent> one_task(1);
  one_task[0].type = TraceEventType::kTaskExec;
  one_task[0].end = 0.5;
  EXPECT_THROW(utilization_timeline(one_task, 0.0, 4, 10),
               std::invalid_argument);
  EXPECT_THROW(utilization_timeline(one_task, -1.0, 4, 10),
               std::invalid_argument);
  EXPECT_THROW(
      utilization_timeline(
          one_task, std::numeric_limits<double>::quiet_NaN(), 4, 10),
      std::invalid_argument);
  EXPECT_THROW(
      utilization_timeline(
          one_task, std::numeric_limits<double>::infinity(), 4, 10),
      std::invalid_argument);
}

TEST(Recording, DisabledMeansNoEventsAndIdenticalResults) {
  const auto costs = skewed_costs(300, 151);
  MachineConfig off = machine(8);
  off.record_trace = false;
  MachineConfig on = machine(8);
  const auto block = emc::lb::block_assignment(costs.size(), 8);

  const SimResult quiet = simulate_work_stealing(off, costs, block);
  const SimResult traced = simulate_work_stealing(on, costs, block);
  EXPECT_TRUE(quiet.trace.empty());
  // Tracing must not perturb the simulation itself.
  EXPECT_DOUBLE_EQ(quiet.makespan, traced.makespan);
  EXPECT_EQ(quiet.steals, traced.steals);
  EXPECT_EQ(quiet.steal_attempts, traced.steal_attempts);
}

}  // namespace
