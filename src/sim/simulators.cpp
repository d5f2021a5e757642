#include "sim/simulators.hpp"

#include <algorithm>
#include <stdexcept>

#include "lb/simple.hpp"
#include "sim/event_queue.hpp"
#include "sim/task_ring.hpp"
#include "util/rng.hpp"

namespace emc::sim {

namespace {

/// Proc ids are packed into event keys below this many bits of
/// sequence number (see simulate_work_stealing), capping the simulated
/// machine at 2M procs — an order of magnitude past the 100k target.
constexpr int kProcBits = 21;

/// Appends one typed event. Call sites guard on config.record_trace so
/// tracing is zero-cost when disabled.
void record(SimResult& result, TraceEventType type, int proc, double start,
            double end, std::int64_t task = -1, int peer = -1) {
  TraceEvent ev;
  ev.type = type;
  ev.proc = proc;
  ev.peer = peer;
  ev.task = task;
  ev.start = start;
  ev.end = end;
  result.trace.push_back(ev);
}

void check_inputs(const MachineConfig& config, std::span<const double> costs) {
  if (config.n_procs < 1) {
    throw std::invalid_argument("simulate: n_procs < 1");
  }
  if (config.n_procs >= (1 << kProcBits)) {
    throw std::invalid_argument("simulate: n_procs exceeds 2^21");
  }
  if (config.procs_per_node < 1) {
    throw std::invalid_argument("simulate: procs_per_node < 1");
  }
  for (double c : costs) {
    if (c < 0.0) throw std::invalid_argument("simulate: negative task cost");
  }
}

/// Sizes the per-proc accounting and, when tracing is on, pre-reserves
/// the trace from the task count — traced runs append at least one
/// event per task, and reserving up front eliminates the reallocation
/// churn that dominated large traced runs.
void init_result(SimResult& result, const MachineConfig& config,
                 std::size_t n_tasks) {
  result.busy.assign(static_cast<std::size_t>(config.n_procs), 0.0);
  result.tasks_executed.assign(static_cast<std::size_t>(config.n_procs), 0);
  if (config.record_trace) {
    result.trace.reserve(n_tasks + n_tasks / 4 + 64);
  }
}

/// Marks every compiled fault window (and the counter outage, attributed
/// to the counter-home proc 0) in the trace as paired
/// kFaultStart/kFaultEnd instants, so timelines show where the machine
/// was perturbed.
void record_fault_windows(SimResult& result, const MachineConfig& config,
                          const FaultSchedule& faults) {
  if (!config.record_trace || !faults.active()) return;
  for (int p = 0; p < config.n_procs; ++p) {
    const FaultWindow& w = faults.window(p);
    if (!w.exists()) continue;
    record(result, TraceEventType::kFaultStart, p, w.start, w.start);
    record(result, TraceEventType::kFaultEnd, p, w.end, w.end);
  }
  const FaultModel& m = faults.model();
  if (m.outage_start >= 0.0 && m.outage_duration > 0.0) {
    record(result, TraceEventType::kFaultStart, 0, m.outage_start,
           m.outage_start, -1, 0);
    record(result, TraceEventType::kFaultEnd, 0,
           m.outage_start + m.outage_duration,
           m.outage_start + m.outage_duration, -1, 0);
  }
}

/// Executes one task on `proc` starting no earlier than `ready`:
/// dispatch overhead, then `exec` seconds of work replayed through the
/// fault schedule (dilation or lost-work restarts). Accounts busy time
/// as the productive `exec` only, so utilization reflects faults.
/// Returns the finish time.
double run_task(const MachineConfig& config, const FaultSchedule& faults,
                SimResult& result, int proc, std::int64_t task,
                double ready, double exec) {
  const double start = ready + config.task_overhead;
  int restarts = 0;
  double last_restart = start;
  const double done =
      faults.finish_time(proc, start, exec, &restarts, &last_restart);
  const auto pu = static_cast<std::size_t>(proc);
  result.busy[pu] += exec;
  ++result.tasks_executed[pu];
  if (restarts > 0) {
    result.tasks_reexecuted += restarts;
    if (config.record_trace) {
      record(result, TraceEventType::kTaskReexec, proc, start, last_restart,
             task);
    }
  }
  if (config.record_trace) {
    record(result, TraceEventType::kTaskExec, proc,
           restarts > 0 ? last_restart : start, done, task);
  }
  return done;
}

/// Data-home proc of a task under the block-stripe distribution the PGAS
/// layer uses: the proc that owns the density/Fock rows the task reads
/// and writes, and therefore the source of its payload transfer when the
/// task runs elsewhere.
int task_home(std::int64_t task, std::int64_t n_tasks, int n_procs) {
  if (n_tasks <= 0) return 0;
  return static_cast<int>(
      std::min<std::int64_t>(n_procs - 1, task * n_procs / n_tasks));
}

/// Copies the network's accumulated congestion stats into the result
/// and, when the machine carries a metrics registry, exports the run's
/// net/* metrics (per-link occupancy, hottest link, ...).
void finish_net(const MachineConfig& config, SimResult& result,
                const net::NetworkModel& network) {
  const net::NetworkModel::Stats& s = network.stats();
  result.net_messages = s.messages;
  result.net_congested = s.congested_messages;
  result.net_bytes = s.bytes;
  result.net_link_wait = s.link_wait;
  if (config.metrics != nullptr) network.write_metrics(*config.metrics);
}

/// Models the data movement behind a dynamically acquired chunk: tasks
/// [first, first + count) grabbed by `proc` at `ready` pull their
/// density/Fock blocks from the chunk's home stripe as one sized message
/// (task_payload_bytes per task). Returns the time the data is local and
/// execution can start. No-op (returns `ready`) for the legacy model,
/// zero payload, or home-local chunks — so the seed cost structure is
/// untouched unless payload modelling is switched on.
double fetch_task_payload(const MachineConfig& config,
                          net::NetworkModel& network, SimResult& result,
                          int proc, std::int64_t first, std::int64_t count,
                          std::int64_t n_tasks, double ready) {
  if (network.legacy() || config.network.task_payload_bytes == 0 ||
      count <= 0) {
    return ready;
  }
  const int home = task_home(first, n_tasks, config.n_procs);
  if (home == proc) return ready;
  const std::size_t bytes =
      config.network.task_payload_bytes * static_cast<std::size_t>(count);
  // Request travels proc -> home uncongested (it is control-sized); the
  // data message home -> proc is the one that occupies links.
  const double request = ready + network.base_latency(proc, home);
  double wait = 0.0;
  const double arrival = network.send(home, proc, request, bytes, &wait);
  if (config.record_trace) {
    record(result, TraceEventType::kNetTransfer, proc, ready, arrival,
           first, home);
    if (wait > 0.0) {
      record(result, TraceEventType::kLinkWait, proc, request,
             request + wait, first, home);
    }
  }
  return arrival;
}

/// Counter-family events. kIssue pops book the proc's request into the
/// network — pops are globally time-ordered, which keeps link occupancy
/// consistent even though request *arrivals* interleave — and push the
/// matching kArrival. Events are keyed (proc << 1) | kind, so the
/// EventQueue's (time, key) order extends the seed's (arrival, proc)
/// ordering exactly: arrivals are served in the seed order and legacy
/// runs stay bitwise identical.
enum class CounterEv : std::uint8_t { kIssue = 0, kArrival = 1 };

std::uint64_t counter_key(int proc, CounterEv kind) {
  return (static_cast<std::uint64_t>(proc) << 1) |
         static_cast<std::uint64_t>(kind);
}
int counter_proc(std::uint64_t key) { return static_cast<int>(key >> 1); }
CounterEv counter_kind(std::uint64_t key) {
  return static_cast<CounterEv>(key & 1);
}

/// Per-proc retry bookkeeping for dropped one-sided ops.
struct RetryState {
  std::vector<std::uint64_t> op_seq;
  std::vector<int> attempt;

  explicit RetryState(int n_procs)
      : op_seq(static_cast<std::size_t>(n_procs), 0),
        attempt(static_cast<std::size_t>(n_procs), 0) {}

  /// Decides whether the round trip issued by `proc` at `issue` is
  /// dropped. On a drop, records the retry (count, trace event whose
  /// span covers the wasted round trip + backoff) and returns the time
  /// the proc reissues; on success resets the attempt streak and
  /// returns a negative sentinel.
  double resolve(const MachineConfig& config, const FaultSchedule& faults,
                 SimResult& result, int proc, double issue, double rtt,
                 int peer) {
    const auto pu = static_cast<std::size_t>(proc);
    if (faults.drop_op(proc, op_seq[pu], attempt[pu])) {
      const double retry_at = issue + rtt + faults.backoff(attempt[pu]);
      ++attempt[pu];
      ++result.op_retries;
      if (config.record_trace) {
        record(result, TraceEventType::kOpRetry, proc, issue, retry_at, -1,
               peer);
      }
      return retry_at;
    }
    attempt[pu] = 0;
    ++op_seq[pu];
    return -1.0;
  }
};

/// State every simulator starts from: core speeds, the compiled fault
/// schedule, and a result with per-proc accounting sized and the fault
/// windows traced.
struct RunState {
  std::vector<double> speeds;
  FaultSchedule faults;
  SimResult result;

  RunState(const MachineConfig& config, std::size_t n_tasks)
      : speeds(draw_core_speeds(config)), faults(config) {
    init_result(result, config, n_tasks);
    record_fault_windows(result, config, faults);
  }
};

/// Runs tasks [0, count) on their assigned procs in index order: the
/// static model, and the static prefix of the hybrid. Returns each
/// proc's finish time.
std::vector<double> run_static(const MachineConfig& config,
                               std::span<const double> costs,
                               const lb::Assignment& assignment,
                               std::int64_t count, RunState& run) {
  std::vector<double> finish(static_cast<std::size_t>(config.n_procs), 0.0);
  for (std::int64_t i = 0; i < count; ++i) {
    const auto pu =
        static_cast<std::size_t>(assignment[static_cast<std::size_t>(i)]);
    const double exec = costs[static_cast<std::size_t>(i)] / run.speeds[pu];
    finish[pu] = run_task(config, run.faults, run.result,
                          static_cast<int>(pu), i, finish[pu], exec);
    ++run.result.events_processed;
  }
  return finish;
}

/// What a counter home grants a request: the time its response leaves
/// the home, the task range [first, last) (empty once the work is
/// exhausted, which retires the proc), and link wait the home incurred
/// on the request's behalf beyond the request and response messages.
struct Grant {
  double ready = 0.0;
  std::int64_t first = 0;
  std::int64_t last = 0;
  double extra_wait = 0.0;
};

/// The global shared counter on proc 0 (simulate_counter and the
/// hybrid's dynamic tail): requests are served serially in arrival
/// order, and each grant is the next chunk under the chunk policy.
class GlobalCounter {
 public:
  GlobalCounter(const MachineConfig& config, const FaultSchedule& faults,
                std::int64_t n_tasks, const CounterOptions& options,
                std::int64_t first_task)
      : config_(config),
        faults_(faults),
        options_(options),
        n_tasks_(n_tasks),
        next_task_(first_task) {
    if (options.chunk < 1) {
      throw std::invalid_argument("simulate: counter chunk < 1");
    }
    // Trapezoid self-scheduling parameters (Tzen & Ni): chunks shrink
    // linearly from `first` to the floor across the expected grab count.
    tss_first_ = std::max<std::int64_t>(
        options.chunk, n_tasks / (2 * std::max(config.n_procs, 1)));
    const std::int64_t tss_last = options.chunk;
    const std::int64_t tss_grabs = std::max<std::int64_t>(
        1, 2 * n_tasks / std::max<std::int64_t>(1, tss_first_ + tss_last));
    tss_step_ = tss_grabs > 1 ? static_cast<double>(tss_first_ - tss_last) /
                                    static_cast<double>(tss_grabs - 1)
                              : 0.0;
  }

  int home(int /*proc*/) const { return 0; }

  Grant grant(int /*proc*/, double arrival, net::NetworkModel& /*network*/) {
    const double start =
        std::max(faults_.outage_release(arrival), server_free_);
    server_free_ = start + config_.counter_service;
    const std::int64_t first = next_task_;
    if (first < n_tasks_) {
      next_task_ = std::min(n_tasks_, first + next_chunk(n_tasks_ - first));
      ++grab_index_;
    }
    return Grant{server_free_, first, next_task_, 0.0};
  }

 private:
  std::int64_t next_chunk(std::int64_t remaining) const {
    switch (options_.policy) {
      case ChunkPolicy::kFixed:
        return options_.chunk;
      case ChunkPolicy::kGuided:
        return std::max(options_.chunk,
                        (remaining + config_.n_procs - 1) / config_.n_procs);
      case ChunkPolicy::kTrapezoid: {
        const double c = static_cast<double>(tss_first_) -
                         tss_step_ * static_cast<double>(grab_index_);
        return std::max(options_.chunk, static_cast<std::int64_t>(c));
      }
    }
    return options_.chunk;
  }

  const MachineConfig& config_;
  const FaultSchedule& faults_;
  CounterOptions options_;
  std::int64_t n_tasks_;
  std::int64_t next_task_;
  double server_free_ = 0.0;
  std::int64_t grab_index_ = 0;
  std::int64_t tss_first_ = 0;
  double tss_step_ = 0.0;
};

/// Per-node proxy counters (simulate_hierarchical_counter): each node
/// leader serves its procs `proc_chunk` pieces of a [next, end) range,
/// and refills the range with `node_chunk` tasks from the global counter
/// on proc 0 (a leader -> proc 0 round trip, held by a counter-home
/// outage) when it runs dry. Once the global range is dry too, requests
/// get an empty grant.
class NodeCounters {
 public:
  NodeCounters(const MachineConfig& config, const FaultSchedule& faults,
               SimResult& result, std::int64_t n_tasks,
               std::int64_t node_chunk, std::int64_t proc_chunk)
      : config_(config),
        faults_(faults),
        result_(result),
        n_tasks_(n_tasks),
        node_chunk_(node_chunk),
        proc_chunk_(proc_chunk) {
    const auto n_nodes = static_cast<std::size_t>(
        (config.n_procs + config.procs_per_node - 1) /
        config.procs_per_node);
    node_next_.assign(n_nodes, 0);
    node_end_.assign(n_nodes, 0);
    node_free_.assign(n_nodes, 0.0);
  }

  int home(int proc) const {
    return config_.node_of(proc) * config_.procs_per_node;
  }

  Grant grant(int proc, double arrival, net::NetworkModel& network) {
    const auto nu = static_cast<std::size_t>(config_.node_of(proc));
    const int leader = home(proc);
    double t = std::max(arrival, node_free_[nu]);
    t += config_.counter_service;  // node-counter serialization
    double refill_wait = 0.0;
    if (node_next_[nu] >= node_end_[nu] && global_next_ < n_tasks_) {
      const std::size_t ctrl = config_.network.control_bytes;
      double up_wait = 0.0;
      const double up = network.send(leader, 0, t, ctrl, &up_wait);
      double g = std::max(faults_.outage_release(up), global_free_);
      g += config_.counter_service;
      global_free_ = g;
      ++result_.counter_ops;
      node_next_[nu] = global_next_;
      global_next_ = std::min(n_tasks_, global_next_ + node_chunk_);
      node_end_[nu] = global_next_;
      double down_wait = 0.0;
      t = network.send(0, leader, g, ctrl, &down_wait);
      refill_wait = up_wait + down_wait;
    }
    node_free_[nu] = std::max(node_free_[nu], t);
    const std::int64_t first = node_next_[nu];
    const std::int64_t last = std::min(node_end_[nu], first + proc_chunk_);
    node_next_[nu] = last;
    return Grant{t, first, last, refill_wait};
  }

 private:
  const MachineConfig& config_;
  const FaultSchedule& faults_;
  SimResult& result_;
  std::int64_t n_tasks_;
  std::int64_t node_chunk_;
  std::int64_t proc_chunk_;
  std::vector<std::int64_t> node_next_;
  std::vector<std::int64_t> node_end_;
  std::vector<double> node_free_;
  double global_free_ = 0.0;
  std::int64_t global_next_ = 0;
};

/// The counter-family event loop. Proc p issues its first request at
/// start[p]; every active proc then has exactly one outstanding event:
/// a kIssue books its request message to `counter.home(p)`, the matching
/// kArrival either retries a dropped round trip or takes
/// `counter.grant(...)`, receives the response, and executes the
/// granted tasks (or retires on an empty grant). `Counter` is a
/// template parameter so the grant inlines into the loop.
template <typename Counter>
void run_counter_loop(const MachineConfig& config,
                      std::span<const double> costs, RunState& run,
                      std::span<const double> start, Counter& counter) {
  SimResult& result = run.result;
  RetryState retries(config.n_procs);
  net::NetworkModel network = make_network(config);
  const std::size_t ctrl = config.network.control_bytes;
  const auto n_tasks = static_cast<std::int64_t>(costs.size());
  EventQueue events(static_cast<std::size_t>(config.n_procs));
  std::vector<double> issue_time(static_cast<std::size_t>(config.n_procs),
                                 0.0);
  std::vector<double> issue_wait(issue_time.size(), 0.0);
  double makespan = 0.0;
  for (int p = 0; p < config.n_procs; ++p) {
    const double t = start[static_cast<std::size_t>(p)];
    events.push(t, counter_key(p, CounterEv::kIssue));
    makespan = std::max(makespan, t);
  }

  while (!events.empty()) {
    const SimEvent ev = events.pop();
    ++result.events_processed;
    const int p = counter_proc(ev.key);
    const auto pu = static_cast<std::size_t>(p);
    const int home = counter.home(p);
    if (counter_kind(ev.key) == CounterEv::kIssue) {
      issue_time[pu] = ev.time;
      const double arrival =
          network.send(p, home, ev.time, ctrl, &issue_wait[pu]);
      events.push(arrival, counter_key(p, CounterEv::kArrival));
      continue;
    }
    const double issue = issue_time[pu];
    const double retry_at =
        retries.resolve(config, run.faults, result, p, issue,
                        2.0 * network.base_latency(p, home), home);
    if (retry_at >= 0.0) {
      // Round trip dropped: the proc times out, backs off, reissues.
      events.push(retry_at, counter_key(p, CounterEv::kIssue));
      continue;
    }
    const Grant g = counter.grant(p, ev.time, network);
    ++result.counter_ops;
    double resp_wait = 0.0;
    const double response = network.send(home, p, g.ready, ctrl, &resp_wait);
    result.counter_wait += response - issue;
    const bool granted = g.first < g.last;
    if (config.record_trace) {
      record(result, TraceEventType::kCounterOp, p, issue, response,
             granted ? g.first : -1, home);
      const double waited = issue_wait[pu] + g.extra_wait + resp_wait;
      if (waited > 0.0) {
        record(result, TraceEventType::kLinkWait, p, issue, issue + waited,
               -1, home);
      }
    }
    if (!granted) {
      // Proc learns the work is exhausted and retires.
      makespan = std::max(makespan, response);
      continue;
    }
    double t = fetch_task_payload(config, network, result, p, g.first,
                                  g.last - g.first, n_tasks, response);
    for (std::int64_t i = g.first; i < g.last; ++i) {
      const double exec =
          costs[static_cast<std::size_t>(i)] / run.speeds[pu];
      t = run_task(config, run.faults, result, p, i, t, exec);
    }
    makespan = std::max(makespan, t);
    events.push(t, counter_key(p, CounterEv::kIssue));
  }

  result.makespan = makespan;
  finish_net(config, result, network);
}

}  // namespace

SimResult simulate_static(const MachineConfig& config,
                          std::span<const double> costs,
                          const lb::Assignment& assignment) {
  check_inputs(config, costs);
  if (assignment.size() != costs.size()) {
    throw std::invalid_argument("simulate_static: assignment size mismatch");
  }
  lb::validate_assignment(assignment, config.n_procs);

  RunState run(config, costs.size());
  const std::vector<double> finish =
      run_static(config, costs, assignment,
                 static_cast<std::int64_t>(costs.size()), run);
  run.result.makespan = *std::max_element(finish.begin(), finish.end());
  return std::move(run.result);
}

SimResult simulate_counter(const MachineConfig& config,
                           std::span<const double> costs,
                           std::int64_t chunk) {
  CounterOptions options;
  options.chunk = chunk;
  return simulate_counter(config, costs, options);
}

SimResult simulate_counter(const MachineConfig& config,
                           std::span<const double> costs,
                           const CounterOptions& options) {
  check_inputs(config, costs);
  RunState run(config, costs.size());
  GlobalCounter counter(config, run.faults,
                        static_cast<std::int64_t>(costs.size()), options, 0);
  const std::vector<double> start(static_cast<std::size_t>(config.n_procs),
                                  0.0);
  run_counter_loop(config, costs, run, start, counter);
  return std::move(run.result);
}

SimResult simulate_hierarchical_counter(const MachineConfig& config,
                                        std::span<const double> costs,
                                        std::int64_t node_chunk,
                                        std::int64_t proc_chunk) {
  check_inputs(config, costs);
  if (node_chunk < 1 || proc_chunk < 1) {
    throw std::invalid_argument(
        "simulate_hierarchical_counter: chunk < 1");
  }
  RunState run(config, costs.size());
  NodeCounters counter(config, run.faults, run.result,
                       static_cast<std::int64_t>(costs.size()), node_chunk,
                       proc_chunk);
  const std::vector<double> start(static_cast<std::size_t>(config.n_procs),
                                  0.0);
  run_counter_loop(config, costs, run, start, counter);
  return std::move(run.result);
}

SimResult simulate_hybrid(const MachineConfig& config,
                          std::span<const double> costs,
                          const lb::Assignment& assignment,
                          double dynamic_fraction, std::int64_t chunk) {
  check_inputs(config, costs);
  if (assignment.size() != costs.size()) {
    throw std::invalid_argument("simulate_hybrid: assignment mismatch");
  }
  if (dynamic_fraction < 0.0 || dynamic_fraction > 1.0) {
    throw std::invalid_argument(
        "simulate_hybrid: dynamic_fraction outside [0,1]");
  }
  lb::validate_assignment(assignment, config.n_procs);

  // Split point: the task index after which the remaining *cost* is the
  // requested dynamic fraction of the total.
  double total = 0.0;
  for (double c : costs) total += c;
  std::int64_t split = static_cast<std::int64_t>(costs.size());
  double tail = 0.0;
  while (split > 0 && tail < dynamic_fraction * total) {
    tail += costs[static_cast<std::size_t>(split - 1)];
    --split;
  }

  RunState run(config, costs.size());
  CounterOptions options;
  options.chunk = chunk;
  GlobalCounter counter(config, run.faults,
                        static_cast<std::int64_t>(costs.size()), options,
                        split);
  // Static prefix, then the counter-scheduled tail: procs join as they
  // finish their static part.
  const std::vector<double> finish =
      run_static(config, costs, assignment, split, run);
  run_counter_loop(config, costs, run, finish, counter);
  return std::move(run.result);
}

SimResult simulate_work_stealing(const MachineConfig& config,
                                 std::span<const double> costs,
                                 const lb::Assignment& initial,
                                 const StealOptions& options,
                                 std::vector<int>* executed_by) {
  check_inputs(config, costs);
  if (initial.size() != costs.size()) {
    throw std::invalid_argument(
        "simulate_work_stealing: assignment size mismatch");
  }
  lb::validate_assignment(initial, config.n_procs);

  RunState run(config, costs.size());
  const std::vector<double>& speeds = run.speeds;
  const FaultSchedule& faults = run.faults;
  SimResult& result = run.result;
  RetryState retries(config.n_procs);
  net::NetworkModel network = make_network(config);
  const std::size_t ctrl = config.network.control_bytes;
  const auto n_procs = static_cast<std::size_t>(config.n_procs);
  if (executed_by != nullptr) {
    executed_by->assign(costs.size(), -1);
  }

  // Per-proc LIFO queues (pooled chunked rings); thieves take from the
  // front (oldest tasks).
  TaskRingPool queues(config.n_procs,
                      static_cast<std::int64_t>(costs.size()));
  for (std::size_t t = 0; t < initial.size(); ++t) {
    queues.push_back(initial[t], static_cast<std::int64_t>(t));
  }
  std::size_t total_queued = costs.size();

  // Events are keyed by a monotone sequence number packed above the proc
  // id: the (time, seq) order is the seed's deterministic tie-break, and
  // the proc rides along in the low bits.
  EventQueue events(n_procs);
  std::uint64_t seq = 0;
  auto event_key = [](std::uint64_t s, int proc) {
    return (s << kProcBits) | static_cast<std::uint64_t>(proc);
  };
  for (int p = 0; p < config.n_procs; ++p) {
    events.push(0.0, event_key(seq++, p));
  }

  emc::Rng rng(options.seed);
  double makespan = 0.0;
  // Per-proc state for the non-uniform victim policies.
  std::vector<std::uint64_t> attempt_count(n_procs, 0);

  auto pick_victim = [&](int thief) -> int {
    if (config.n_procs < 2) return thief;  // degenerate single-proc run
    switch (options.victim) {
      case VictimPolicy::kUniform: {
        const int raw = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(config.n_procs - 1)));
        return raw >= thief ? raw + 1 : raw;
      }
      case VictimPolicy::kRing: {
        const auto tu = static_cast<std::size_t>(thief);
        const int offset =
            1 + static_cast<int>(attempt_count[tu]++ %
                                 static_cast<std::uint64_t>(
                                     config.n_procs - 1));
        return (thief + offset) % config.n_procs;
      }
      case VictimPolicy::kNodeFirst: {
        const auto tu = static_cast<std::size_t>(thief);
        const int node = config.node_of(thief);
        const int node_first = node * config.procs_per_node;
        const int node_last =
            std::min(config.n_procs, node_first + config.procs_per_node);
        const int node_size = node_last - node_first;
        // Alternate: even attempts stay on-node (when possible), odd
        // attempts go anywhere — local theft is cheap, remote theft
        // keeps progress when the node is dry.
        const bool local = (attempt_count[tu]++ % 2 == 0) && node_size > 1;
        if (local) {
          const int raw = node_first + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(node_size - 1)));
          return raw >= thief ? raw + 1 : raw;
        }
        const int raw = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(config.n_procs - 1)));
        return raw >= thief ? raw + 1 : raw;
      }
    }
    return thief;
  };

  auto execute = [&](int p, std::int64_t task, double start) {
    const auto pu = static_cast<std::size_t>(p);
    const double exec = costs[static_cast<std::size_t>(task)] / speeds[pu];
    if (executed_by != nullptr) {
      (*executed_by)[static_cast<std::size_t>(task)] = p;
    }
    const double done =
        run_task(config, faults, result, p, task, start, exec);
    makespan = std::max(makespan, done);
    events.push(done, event_key(seq++, p));
  };

  while (!events.empty()) {
    const SimEvent ev = events.pop();
    ++result.events_processed;
    const int proc = static_cast<int>(ev.key & ((1u << kProcBits) - 1));

    if (!queues.empty(proc)) {
      const std::int64_t task = queues.pop_back(proc);
      --total_queued;
      execute(proc, task, ev.time);
      continue;
    }
    if (total_queued == 0) continue;  // park: nothing left to steal
    if (config.n_procs == 1) continue;

    // Steal attempt at a policy-selected victim.
    const int victim = pick_victim(proc);
    const double rtt = 2.0 * network.base_latency(proc, victim);
    const double retry_at = retries.resolve(config, faults, result, proc,
                                            ev.time, rtt, victim);
    if (retry_at >= 0.0) {
      // Steal request dropped in flight: back off and try again.
      events.push(retry_at, event_key(seq++, proc));
      continue;
    }
    ++result.steal_attempts;

    if (queues.empty(victim)) {
      double wait = 0.0;
      const double response =
          network.round_trip(proc, victim, ev.time, ctrl, ctrl, &wait);
      result.steal_wait += response - ev.time;
      if (config.record_trace) {
        record(result, TraceEventType::kStealFail, proc, ev.time,
               response, -1, victim);
        if (wait > 0.0) {
          record(result, TraceEventType::kLinkWait, proc, ev.time,
                 ev.time + wait, -1, victim);
        }
      }
      events.push(response + config.steal_fail_retry,
                  event_key(seq++, proc));
      continue;
    }

    ++result.steals;
    const std::int64_t task = queues.pop_front(victim);
    --total_queued;
    // Migrate up to half of the victim's remaining queue.
    const std::size_t migrated = queues.size(victim) / 2;
    for (std::size_t i = 0; i < migrated; ++i) {
      queues.push_back(proc, queues.pop_front(victim));
    }
    // The response carries the stolen task(s): control header plus one
    // payload per migrated task (zero under the legacy model).
    const std::size_t resp_bytes =
        ctrl + (1 + migrated) * config.network.task_payload_bytes;
    double wait = 0.0;
    const double response = network.round_trip(proc, victim, ev.time,
                                               ctrl, resp_bytes, &wait);
    result.steal_wait += response - ev.time;
    if (config.record_trace) {
      record(result, TraceEventType::kStealSuccess, proc, ev.time,
             response, task, victim);
      if (wait > 0.0) {
        record(result, TraceEventType::kLinkWait, proc, ev.time,
               ev.time + wait, task, victim);
      }
    }
    execute(proc, task, response);
  }

  result.makespan = makespan;
  finish_net(config, result, network);
  return std::move(run.result);
}

std::vector<SimResult> simulate_retentive(const MachineConfig& config,
                                          std::span<const double> costs,
                                          const lb::Assignment& initial,
                                          int iterations,
                                          const StealOptions& options) {
  std::vector<SimResult> rounds;
  lb::Assignment current = initial;
  std::vector<int> executed_by;
  for (int round = 0; round < iterations; ++round) {
    StealOptions round_options = options;
    round_options.seed = options.seed + static_cast<std::uint64_t>(round);
    rounds.push_back(simulate_work_stealing(config, costs, current,
                                            round_options, &executed_by));
    current.assign(executed_by.begin(), executed_by.end());
  }
  return rounds;
}

std::vector<SimResult> simulate_persistence(
    const MachineConfig& config, std::span<const double> costs,
    const lb::Assignment& initial, int iterations,
    double rebalance_cost_seconds) {
  if (rebalance_cost_seconds < 0.0) {
    throw std::invalid_argument(
        "simulate_persistence: negative rebalance cost");
  }
  std::vector<SimResult> rounds;
  if (iterations < 1) return rounds;

  rounds.push_back(simulate_static(config, costs, initial));
  if (iterations == 1) return rounds;

  // After round 1 the true task costs are known; LPT over them is the
  // persistence-based static assignment used for every later round.
  const lb::Assignment balanced =
      lb::lpt_assignment(costs, config.n_procs);
  for (int round = 1; round < iterations; ++round) {
    SimResult r = simulate_static(config, costs, balanced);
    r.makespan += rebalance_cost_seconds;
    rounds.push_back(std::move(r));
  }
  return rounds;
}

}  // namespace emc::sim
