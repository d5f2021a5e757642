// The simulator's event core and replay determinism: the EventQueue's
// (time, key) pop order, the pooled task rings (sim/task_ring.hpp), and
// pinned FNV-1a digests of complete SimResults for every execution model
// across fault models and network topologies. Any change to a simulated
// number, counter, event count or trace field fails here; a change that
// is meant to move results must re-pin the table and say why.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lb/simple.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulators.hpp"
#include "sim/task_ring.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc;
using namespace emc::sim;

// --- EventQueue unit tests -----------------------------------------------

/// Drains `queue` and asserts the pop order matches sorting `pushed` by
/// (time, key).
void expect_sorted_drain(EventQueue& queue,
                         std::vector<SimEvent> pushed) {
  std::sort(pushed.begin(), pushed.end(),
            [](const SimEvent& a, const SimEvent& b) {
              return a.time != b.time ? a.time < b.time : a.key < b.key;
            });
  EXPECT_EQ(queue.size(), pushed.size());
  for (const SimEvent& want : pushed) {
    ASSERT_FALSE(queue.empty());
    const SimEvent got = queue.pop();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.key, want.key);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PopsInTimeKeyOrder) {
  EventQueue queue(16);
  Rng rng(42);
  std::vector<SimEvent> pushed;
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.uniform() * 1e-3;
    const std::uint64_t key = static_cast<std::uint64_t>(i);
    queue.push(t, key);
    pushed.push_back(SimEvent{t, key});
  }
  expect_sorted_drain(queue, pushed);
}

TEST(EventQueue, EqualTimesBreakTiesByKey) {
  EventQueue queue(16);
  // A burst of equal timestamps (the t=0 initial-event burst every
  // simulator produces) must pop in key order.
  std::vector<SimEvent> pushed;
  for (int i = 999; i >= 0; --i) {
    queue.push(0.0, static_cast<std::uint64_t>(i));
    pushed.push_back(SimEvent{0.0, static_cast<std::uint64_t>(i)});
  }
  expect_sorted_drain(queue, pushed);
}

TEST(EventQueue, InterleavedPushPopStaysOrdered) {
  // DES-style usage: pops interleaved with pushes of later timestamps,
  // occasionally far in the future, against an ordered-set reference.
  EventQueue queue(8);
  std::set<std::pair<double, std::uint64_t>> ref;
  Rng rng(7);
  std::uint64_t key = 0;
  for (int p = 0; p < 64; ++p) {
    queue.push(0.0, key);
    ref.emplace(0.0, key);
    ++key;
  }
  for (int step = 0; step < 20000; ++step) {
    ASSERT_EQ(queue.empty(), ref.empty());
    if (queue.empty()) break;
    const SimEvent a = queue.pop();
    ASSERT_EQ(a.time, ref.begin()->first);
    ASSERT_EQ(a.key, ref.begin()->second);
    ref.erase(ref.begin());
    if (step < 15000) {
      const double jump =
          rng.uniform() < 0.01 ? rng.uniform() * 1e2 : rng.uniform() * 1e-6;
      queue.push(a.time + jump, key);
      ref.emplace(a.time + jump, key);
      ++key;
    }
  }
}

// --- TaskRingPool unit tests ---------------------------------------------

TEST(TaskRingPool, MatchesDequeAcrossChunkBoundaries) {
  // Differential test against std::deque over a scripted op sequence
  // that repeatedly crosses the 32-task chunk boundary in both
  // directions and migrates between queues (the steal pattern).
  const int n_queues = 4;
  TaskRingPool pool(n_queues, 8);  // deliberately undersized: must grow
  std::vector<std::deque<std::int64_t>> ref(n_queues);
  Rng rng(3);
  std::int64_t next = 0;
  for (int step = 0; step < 200000; ++step) {
    const int q = static_cast<int>(rng.below(n_queues));
    const double r = rng.uniform();
    ASSERT_EQ(pool.size(q), ref[static_cast<std::size_t>(q)].size());
    if (r < 0.45 || ref[static_cast<std::size_t>(q)].empty()) {
      pool.push_back(q, next);
      ref[static_cast<std::size_t>(q)].push_back(next);
      ++next;
    } else if (r < 0.75) {
      ASSERT_EQ(pool.pop_back(q), ref[static_cast<std::size_t>(q)].back());
      ref[static_cast<std::size_t>(q)].pop_back();
    } else {
      ASSERT_EQ(pool.pop_front(q),
                ref[static_cast<std::size_t>(q)].front());
      ref[static_cast<std::size_t>(q)].pop_front();
    }
  }
  for (int q = 0; q < n_queues; ++q) {
    while (!ref[static_cast<std::size_t>(q)].empty()) {
      ASSERT_EQ(pool.pop_front(q), ref[static_cast<std::size_t>(q)].front());
      ref[static_cast<std::size_t>(q)].pop_front();
    }
    EXPECT_TRUE(pool.empty(q));
  }
}

TEST(TaskRingPool, ExactChunkMultiples) {
  // Queues that land exactly on chunk boundaries (the off-by-one zone).
  TaskRingPool pool(1, 0);
  for (int round : {32, 64, 96}) {
    for (int i = 0; i < round; ++i) pool.push_back(0, i);
    EXPECT_EQ(pool.size(0), static_cast<std::size_t>(round));
    for (int i = 0; i < round; ++i) {
      EXPECT_EQ(pool.pop_front(0), i);
    }
    EXPECT_TRUE(pool.empty(0));
  }
  for (int round : {32, 64}) {
    for (int i = 0; i < round; ++i) pool.push_back(0, i);
    for (int i = round - 1; i >= 0; --i) {
      EXPECT_EQ(pool.pop_back(0), i);
    }
    EXPECT_TRUE(pool.empty(0));
  }
}

// --- Pinned replay digests ----------------------------------------------

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Digest of everything a simulation computes: makespan, per-proc busy
/// and task counts, every counter and wait, the net_* totals, the event
/// count, and every field of every trace event (doubles by bit pattern).
std::uint64_t digest(const SimResult& r) {
  Fnv1a f;
  f.f64(r.makespan);
  f.u64(r.busy.size());
  for (double b : r.busy) f.f64(b);
  f.u64(r.tasks_executed.size());
  for (std::int64_t n : r.tasks_executed) f.i64(n);
  f.i64(r.steals);
  f.i64(r.steal_attempts);
  f.i64(r.counter_ops);
  f.f64(r.counter_wait);
  f.f64(r.steal_wait);
  f.i64(r.op_retries);
  f.i64(r.tasks_reexecuted);
  f.i64(r.net_messages);
  f.i64(r.net_congested);
  f.f64(r.net_bytes);
  f.f64(r.net_link_wait);
  f.i64(r.events_processed);
  f.u64(r.trace.size());
  for (const TraceEvent& e : r.trace) {
    f.i64(static_cast<std::int64_t>(e.type));
    f.i64(e.proc);
    f.i64(e.peer);
    f.i64(e.task);
    f.f64(e.start);
    f.f64(e.end);
  }
  return f.value();
}

/// Pinned digests, one per (machine, model) cell. crossbar/static,
/// fat-tree/static and torus/static coincide: the static model sends no
/// messages, so the fabric cannot change it.
const std::vector<std::pair<std::string, std::uint64_t>> kPinned = {
    {"legacy/static", 0x46ef6b0c83d2bac4ull},
    {"legacy/counter1", 0x66ebaaf5ae469e0dull},
    {"legacy/counter8", 0x5f5b9b7949515d30ull},
    {"legacy/guided", 0xf5bc2983e8a3054full},
    {"legacy/trapezoid", 0x211fe5da88be0639ull},
    {"legacy/hier", 0x57fde344e4763dfaull},
    {"legacy/hybrid", 0x43878ee5f536e357ull},
    {"legacy/ws0", 0x1f46da35670d79c3ull},
    {"legacy/ws2", 0x06fe604a82bc0134ull},
    {"legacy/ws1", 0xe8619505af236a1dull},
    {"faults/static", 0x502790b429608b34ull},
    {"faults/counter1", 0x3e5fb9b35c804621ull},
    {"faults/counter8", 0xfa6112eab5005c2bull},
    {"faults/guided", 0x826f77ee238bb11dull},
    {"faults/trapezoid", 0xf14bbb2cf0ef9804ull},
    {"faults/hier", 0xa784f9d0f2f7537bull},
    {"faults/hybrid", 0xe9746acaafc4396cull},
    {"faults/ws0", 0xabc3855e68ccc5e3ull},
    {"faults/ws2", 0x5eedd22a92dd5ad1ull},
    {"faults/ws1", 0x8f61c72523559120ull},
    {"crossbar/static", 0x9fc007c0586f354dull},
    {"crossbar/counter1", 0xe017209efb043fd6ull},
    {"crossbar/counter8", 0xdcf8979bf0fc1723ull},
    {"crossbar/guided", 0x83975f905fd10e0eull},
    {"crossbar/trapezoid", 0xc4dcb494f94dc91bull},
    {"crossbar/hier", 0xeff12a2bbf16324bull},
    {"crossbar/hybrid", 0x4575c32e2f10d745ull},
    {"crossbar/ws0", 0xcac16aaf12e414c7ull},
    {"crossbar/ws2", 0xd8257281e1abe918ull},
    {"crossbar/ws1", 0xd5ba15c344a35d0bull},
    {"fat-tree/static", 0x9fc007c0586f354dull},
    {"fat-tree/counter1", 0x1fecd07a0eb6c188ull},
    {"fat-tree/counter8", 0x3e8bbb1f39634b99ull},
    {"fat-tree/guided", 0x6b75b53b0bed0cb7ull},
    {"fat-tree/trapezoid", 0x72f563c7b37ca7d1ull},
    {"fat-tree/hier", 0x7b1b4a28cba80170ull},
    {"fat-tree/hybrid", 0x19bcf64e2ee744a6ull},
    {"fat-tree/ws0", 0x90fd9a5b593a2221ull},
    {"fat-tree/ws2", 0x2a5f3647ee3c4db6ull},
    {"fat-tree/ws1", 0x18471f19a6ae8fb1ull},
    {"torus/static", 0x9fc007c0586f354dull},
    {"torus/counter1", 0x08213e2d48f06543ull},
    {"torus/counter8", 0xa450fd91093de698ull},
    {"torus/guided", 0xc5218f522153d819ull},
    {"torus/trapezoid", 0x87a13e4167505f21ull},
    {"torus/hier", 0xf060622e5a832779ull},
    {"torus/hybrid", 0xd81b9eced075bfa5ull},
    {"torus/ws0", 0xefd3fc5231e4b5d9ull},
    {"torus/ws2", 0xa8bfec5fc85e5eedull},
    {"torus/ws1", 0x252015b4dd614d2dull},
    {"retentive/round0", 0x77e1caa104046ad3ull},
    {"retentive/round1", 0x9271b84604aef685ull},
    {"retentive/round2", 0xac66f9f40218796cull},
};

void expect_pinned(const std::string& cell, const SimResult& r) {
  const auto it =
      std::find_if(kPinned.begin(), kPinned.end(),
                   [&](const auto& pin) { return pin.first == cell; });
  ASSERT_NE(it, kPinned.end()) << "no pinned digest for " << cell;
  EXPECT_GT(r.events_processed, 0) << cell;
  EXPECT_EQ(digest(r), it->second) << cell;
}

std::vector<double> scheduler_test_costs(std::size_t n,
                                         std::uint64_t seed = 5) {
  std::vector<double> costs(n);
  Rng rng(seed);
  for (double& c : costs) c = rng.uniform(0.2e-6, 8.0e-6);
  return costs;
}

MachineConfig scheduler_test_machine(int procs, bool trace = true) {
  MachineConfig config;
  config.n_procs = procs;
  config.procs_per_node = 8;
  config.noise_amplitude = 0.1;
  config.record_trace = trace;
  return config;
}

MachineConfig faulted(MachineConfig config) {
  config.faults.fault_prob = 0.3;
  config.faults.onset_min = 0.0;
  config.faults.onset_max = 20.0e-6;
  config.faults.duration = 10.0e-6;
  config.faults.slowdown_factor = 0.0;  // full stalls with re-execution
  config.faults.drop_prob = 0.1;
  config.faults.outage_start = 5.0e-6;
  config.faults.outage_duration = 5.0e-6;
  return config;
}

/// Slow 2:1 fabric with task payloads, so link occupancy matters. Two
/// nodes per leaf switch give the 4-node fat-tree two leaves and a
/// contended trunk.
MachineConfig contended(MachineConfig config, net::TopologyKind topo) {
  config.network.topology = topo;
  config.network.oversubscription = 2;
  config.network.nodes_per_switch = 2;
  config.network.link_bandwidth = 1.0e8;
  config.network.task_payload_bytes = 4096;
  return config;
}

/// Runs every execution model on `config` and checks each result against
/// its pinned digest "<label>/<model>".
void expect_all_models_pinned(const MachineConfig& config,
                              const std::vector<double>& costs,
                              const std::string& label) {
  const lb::Assignment block =
      lb::block_assignment(costs.size(), config.n_procs);
  expect_pinned(label + "/static", simulate_static(config, costs, block));
  expect_pinned(label + "/counter1", simulate_counter(config, costs, 1));
  expect_pinned(label + "/counter8", simulate_counter(config, costs, 8));
  CounterOptions guided;
  guided.chunk = 2;
  guided.policy = ChunkPolicy::kGuided;
  expect_pinned(label + "/guided", simulate_counter(config, costs, guided));
  CounterOptions trapezoid;
  trapezoid.chunk = 2;
  trapezoid.policy = ChunkPolicy::kTrapezoid;
  expect_pinned(label + "/trapezoid",
                simulate_counter(config, costs, trapezoid));
  expect_pinned(label + "/hier",
                simulate_hierarchical_counter(config, costs, 32, 4));
  expect_pinned(label + "/hybrid",
                simulate_hybrid(config, costs, block, 0.3, 2));
  for (VictimPolicy victim : {VictimPolicy::kUniform, VictimPolicy::kRing,
                              VictimPolicy::kNodeFirst}) {
    StealOptions steal;
    steal.victim = victim;
    expect_pinned(label + "/ws" + std::to_string(static_cast<int>(victim)),
                  simulate_work_stealing(config, costs, block, steal));
  }
}

TEST(SchedulerDeterminism, AllModelsLegacyNetwork) {
  expect_all_models_pinned(scheduler_test_machine(48),
                           scheduler_test_costs(700), "legacy");
}

TEST(SchedulerDeterminism, FaultModels) {
  expect_all_models_pinned(faulted(scheduler_test_machine(32)),
                           scheduler_test_costs(500), "faults");
}

TEST(SchedulerDeterminism, ContendedTopologies) {
  for (net::TopologyKind topo :
       {net::TopologyKind::kCrossbar, net::TopologyKind::kFatTree,
        net::TopologyKind::kTorus}) {
    expect_all_models_pinned(contended(scheduler_test_machine(32), topo),
                             scheduler_test_costs(600),
                             net::topology_name(topo));
  }
}

TEST(SchedulerDeterminism, MultiRoundModels) {
  const auto costs = scheduler_test_costs(400);
  const MachineConfig config = scheduler_test_machine(24, /*trace=*/false);
  const auto rounds = simulate_retentive(
      config, costs, lb::block_assignment(costs.size(), 24), 3);
  ASSERT_EQ(rounds.size(), 3u);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    expect_pinned("retentive/round" + std::to_string(r), rounds[r]);
  }
}

// --- Counter-family loop -------------------------------------------------

void expect_bitwise_equal(const SimResult& a, const SimResult& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(digest(a), digest(b));
}

TEST(CounterFamily, FullyDynamicHybridIsTheCounter) {
  // With dynamic_fraction = 1 the hybrid has no static prefix, so it is
  // exactly the fixed-chunk counter model.
  const auto costs = scheduler_test_costs(500);
  const lb::Assignment block = lb::block_assignment(costs.size(), 32);
  const MachineConfig flat = scheduler_test_machine(32);
  const MachineConfig fat = contended(flat, net::TopologyKind::kFatTree);
  for (const MachineConfig& base : {flat, fat}) {
    for (bool faults : {false, true}) {
      const MachineConfig config = faults ? faulted(base) : base;
      for (std::int64_t chunk : {1, 2, 8}) {
        expect_bitwise_equal(
            simulate_hybrid(config, costs, block, 1.0, chunk),
            simulate_counter(config, costs, chunk),
            std::string(net::topology_name(config.network.topology)) +
                (faults ? " faulted" : "") +
                " chunk=" + std::to_string(chunk));
      }
    }
  }
}

TEST(CounterFamily, HybridRejectsChunkBelowOne) {
  // A zero chunk would grant empty ranges forever; like the counter
  // model, the hybrid must refuse it up front.
  MachineConfig config;
  config.n_procs = 4;
  const std::vector<double> costs(40, 1.0e-6);
  const lb::Assignment block = lb::block_assignment(costs.size(), 4);
  EXPECT_THROW(simulate_hybrid(config, costs, block, 0.5, 0),
               std::invalid_argument);
  EXPECT_THROW(simulate_hybrid(config, costs, block, 0.5, -3),
               std::invalid_argument);
  EXPECT_THROW(simulate_hybrid(config, costs, block, 0.0, 0),
               std::invalid_argument);
}

// --- Degenerate machines (P = 1) -----------------------------------------

TEST(DegenerateMachines, SingleProcWorkStealingAllPolicies) {
  // P = 1: there is no victim to pick; the run must terminate and
  // execute everything locally with zero steal traffic. Regression for
  // the rng.below(0) / pick_victim(P-1 = 0) edge.
  const auto costs = scheduler_test_costs(100);
  const lb::Assignment all_zero(costs.size(), 0);
  for (VictimPolicy victim : {VictimPolicy::kUniform, VictimPolicy::kRing,
                              VictimPolicy::kNodeFirst}) {
    MachineConfig config;
    config.n_procs = 1;
    config.procs_per_node = 1;
    StealOptions steal;
    steal.victim = victim;
    const SimResult r = simulate_work_stealing(config, costs, all_zero, steal);
    EXPECT_EQ(r.tasks_executed[0], static_cast<std::int64_t>(costs.size()));
    EXPECT_EQ(r.steals, 0);
    EXPECT_EQ(r.steal_attempts, 0);
    EXPECT_GT(r.makespan, 0.0);
  }
}

TEST(DegenerateMachines, SingleProcCounterFamily) {
  const auto costs = scheduler_test_costs(50);
  MachineConfig config;
  config.n_procs = 1;
  config.procs_per_node = 1;
  const SimResult counter = simulate_counter(config, costs, 1);
  EXPECT_EQ(counter.tasks_executed[0],
            static_cast<std::int64_t>(costs.size()));
  const SimResult hier =
      simulate_hierarchical_counter(config, costs, 8, 2);
  EXPECT_EQ(hier.tasks_executed[0],
            static_cast<std::int64_t>(costs.size()));
  const lb::Assignment all_zero(costs.size(), 0);
  const SimResult hybrid = simulate_hybrid(config, costs, all_zero, 0.5);
  EXPECT_EQ(hybrid.tasks_executed[0],
            static_cast<std::int64_t>(costs.size()));
}

TEST(DegenerateMachines, RngBelowZeroIsIdentityWithoutDraw) {
  Rng a(123);
  Rng b(123);
  EXPECT_EQ(a.below(0), 0u);
  // The guarded call must not have consumed a draw: streams stay equal.
  EXPECT_EQ(a(), b());
}

TEST(DegenerateMachines, OversizedProcCountThrows) {
  MachineConfig config;
  config.n_procs = 1 << 21;  // exceeds the event-key proc field
  const std::vector<double> costs(4, 1.0e-6);
  EXPECT_THROW(simulate_counter(config, costs, 1),
               std::invalid_argument);
}

}  // namespace
