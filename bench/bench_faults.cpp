// EXP-9b driver: resilience of the execution models under fault
// injection. Two parts:
//
// 1. Simulated degradation sweep. The same workload is replayed under
//    static (LPT), shared-counter, hierarchical-counter, and
//    work-stealing scheduling while a FaultModel of increasing intensity
//    stalls processors (losing in-flight work), drops one-sided round
//    trips (exponential-backoff retries), and takes the counter home
//    offline for a window. Reported metric: makespan degradation
//    relative to the same model's fault-free run. The paper-level claim
//    under test: dynamic models — work stealing above all — degrade
//    gracefully because lost capacity is rerouted, while a static
//    schedule has no recourse and absorbs every stall into its tail.
//    Every configuration is simulated twice; the runs must agree
//    bitwise (makespan, retry counts, trace length) or the driver fails
//    — fault injection may not break determinism.
//
// 2. Real-runtime correctness. A threaded PGAS Fock build (2 ranks,
//    static model) runs fault-free and then with task re-execution plus
//    dropped/retried one-sided ops. The two G matrices must match
//    BITWISE: faults cost time, never accuracy. (2 ranks + a fixed
//    task->rank map keep the accumulate ordering bitwise-commutative,
//    so the comparison is exact, not toleranced.)
//
// The JSON report is re-read and validated with the strict util/json
// parser, so an unguarded NaN/Inf in the emitter fails the smoke gate.
//
// Flags:
//   --smoke            tiny workload (water, P=8) for CI
//   --model-procs=P    simulated processors (default 64)
//   --ppn=N            procs per node (default min(16, procs))
//   --molecule=NAME    workload molecule (default water27)
//   --report=PATH      JSON report output (default BENCH_faults.json)
//
// Exit status: nonzero on any determinism violation, on work stealing
// degrading worse than static at top intensity, on a Fock bitwise
// mismatch, or on an invalid report file.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/distributed_fock.hpp"
#include "core/task_model.hpp"
#include "lb/simple.hpp"
#include "linalg/matrix.hpp"
#include "pgas/runtime.hpp"
#include "sim/simulators.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace {

using namespace emc;
using namespace emc::sim;

struct Options {
  bool smoke = false;
  std::string molecule = "water27";
  int procs = 64;
  int ppn = 0;  ///< 0 = make_machine default of min(16, procs)
  std::string report_path = "BENCH_faults.json";
};

/// Fault model scaled by `intensity` in [0, 1]. `ideal` is the
/// fault-free per-proc work (T1 / P), which sets the natural scale for
/// window lengths: at intensity 1 roughly half the procs stall for most
/// of a proc's worth of work, a fifth of one-sided round trips drop,
/// and the counter home is dark for a fifth of the schedule.
FaultModel fault_model_at(double intensity, double ideal) {
  FaultModel f;
  f.fault_prob = 0.5 * intensity;
  f.onset_min = 0.1 * ideal;
  f.onset_max = 0.4 * ideal;
  f.duration = 0.8 * ideal * intensity;
  f.slowdown_factor = 0.0;  // full stall; in-flight work is lost
  f.drop_prob = 0.2 * intensity;
  if (intensity > 0.0) {
    f.outage_start = 0.5 * ideal;
    f.outage_duration = 0.2 * ideal * intensity;
  }
  return f;
}

struct SweepPoint {
  double intensity = 0.0;
  double makespan = 0.0;
  double degradation = 1.0;  ///< makespan / fault-free makespan
  double utilization = 0.0;
  std::int64_t op_retries = 0;
  std::int64_t tasks_reexecuted = 0;
  std::int64_t fault_windows = 0;
};

struct ModelSweep {
  std::string name;
  std::vector<SweepPoint> points;
};

std::int64_t count_fault_windows(const SimResult& r) {
  std::int64_t n = 0;
  for (const TraceEvent& ev : r.trace) {
    if (ev.type == TraceEventType::kFaultStart) ++n;
  }
  return n;
}

/// Runs one (model, intensity) configuration twice and checks the
/// replays agree exactly. Returns the result; sets `deterministic`.
template <typename RunFn>
SimResult run_twice(const RunFn& run, const MachineConfig& config,
                    bool* deterministic) {
  const SimResult a = run(config);
  const SimResult b = run(config);
  *deterministic = a.makespan == b.makespan &&
                   a.op_retries == b.op_retries &&
                   a.tasks_reexecuted == b.tasks_reexecuted &&
                   a.steals == b.steals &&
                   a.counter_ops == b.counter_ops &&
                   a.trace.size() == b.trace.size();
  return a;
}

/// Part 2: fault-free vs fault-injected PGAS Fock build, bitwise.
struct FockFaultCheck {
  bool bitwise_match = false;
  std::int64_t task_reexecutions = 0;
  std::int64_t op_retries = 0;
  std::int64_t nxtval_retries = 0;
  std::string molecule;
  std::size_t n_basis = 0;
};

FockFaultCheck run_fock_fault_check(const Options& opt) {
  FockFaultCheck check;
  check.molecule = opt.smoke ? "water" : "water2";
  core::TaskModelOptions model_opts;
  const core::TaskModel model =
      core::build_task_model(check.molecule, model_opts);
  const auto n = static_cast<std::size_t>(model.basis.function_count());
  check.n_basis = n;

  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) density(i, i) = 1.0;

  core::DistributedFockOptions fock_opts;
  fock_opts.model = core::ExecModel::kStatic;  // fixed task->rank map
  fock_opts.static_balancer = "lpt";

  pgas::CommCostModel clean_cost;
  clean_cost.remote_ns = 200;
  clean_cost.counter_ns = 100;
  pgas::Runtime clean_runtime(2, clean_cost);
  core::DistributedFockBuilder clean(model.basis, clean_runtime, fock_opts);
  const linalg::Matrix g_clean = clean.build_g(density);

  // Same build under fire: every one-sided op may drop (and retry with
  // backoff), every task may be lost pre-execution and re-run.
  pgas::CommCostModel faulty_cost = clean_cost;
  faulty_cost.drop_prob = 0.10;
  faulty_cost.retry_backoff_ns = 100;
  util::MetricsRegistry registry;
  pgas::Runtime faulty_runtime(2, faulty_cost);
  core::DistributedFockOptions faulty_opts = fock_opts;
  faulty_opts.task_faults.fail_prob = 0.25;
  faulty_opts.task_faults.reexec_delay_ns = 1000;
  faulty_opts.metrics = &registry;
  core::DistributedFockBuilder faulty(model.basis, faulty_runtime,
                                      faulty_opts);
  const linalg::Matrix g_faulty = faulty.build_g(density);

  check.bitwise_match =
      std::memcmp(g_clean.data(), g_faulty.data(),
                  n * n * sizeof(double)) == 0;
  check.task_reexecutions = faulty.last_task_reexecutions();
  check.op_retries = registry.counter("pgas/r0/op_retries").value() +
                     registry.counter("pgas/r1/op_retries").value();
  check.nxtval_retries = registry.counter("pgas/nxtval_retries").value();
  return check;
}

int run(const Options& opt) {
  core::TaskModelOptions model_opts;
  const core::TaskModel model =
      core::build_task_model(opt.molecule, model_opts);
  emc::bench::print_header(
      "bench_faults (EXP-9b)",
      "work stealing degrades gracefully under faults; static collapses",
      model);

  const std::span<const double> costs = model.costs;
  double total_cost = 0.0;
  for (double c : costs) total_cost += c;
  const double ideal = total_cost / opt.procs;

  MachineConfig base = emc::bench::make_machine(opt.procs, opt.ppn);
  base.record_trace = true;
  base.seed = 42;

  std::vector<double> lpt_costs(costs.begin(), costs.end());
  const lb::Assignment lpt = lb::lpt_assignment(lpt_costs, opt.procs);
  const lb::Assignment block = lb::block_assignment(costs.size(), opt.procs);

  struct ModelDef {
    const char* name;
    std::function<SimResult(const MachineConfig&)> run;
  };
  const std::vector<ModelDef> models = {
      {"static", [&](const MachineConfig& c) {
         return simulate_static(c, costs, lpt);
       }},
      {"counter", [&](const MachineConfig& c) {
         return simulate_counter(c, costs, 4);
       }},
      {"hier", [&](const MachineConfig& c) {
         return simulate_hierarchical_counter(c, costs, 32, 4);
       }},
      {"ws", [&](const MachineConfig& c) {
         return simulate_work_stealing(c, costs, block);
       }},
  };

  const std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<ModelSweep> sweeps;
  bool all_deterministic = true;

  for (const ModelDef& def : models) {
    ModelSweep sweep;
    sweep.name = def.name;
    double baseline = 0.0;
    for (double intensity : intensities) {
      MachineConfig config = base;
      config.faults = fault_model_at(intensity, ideal);
      bool deterministic = false;
      const SimResult r = run_twice(def.run, config, &deterministic);
      if (!deterministic) {
        std::cerr << "FAIL: " << def.name << " @ intensity " << intensity
                  << " is not deterministic across replays\n";
        all_deterministic = false;
      }
      SweepPoint p;
      p.intensity = intensity;
      p.makespan = r.makespan;
      if (intensity == 0.0) baseline = r.makespan;
      p.degradation = baseline > 0.0 ? r.makespan / baseline : 1.0;
      p.utilization = r.utilization();
      p.op_retries = r.op_retries;
      p.tasks_reexecuted = r.tasks_reexecuted;
      p.fault_windows = count_fault_windows(r);
      sweep.points.push_back(p);
    }
    sweeps.push_back(std::move(sweep));
  }

  std::cout << "\nmakespan degradation vs fault intensity (P=" << opt.procs
            << ", x1.00 = own fault-free makespan):\n";
  std::cout << "  intensity";
  for (const auto& s : sweeps) std::cout << "\t" << s.name;
  std::cout << "\n";
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    std::cout << "  " << intensities[i];
    for (const auto& s : sweeps) {
      std::cout << "\tx" << s.points[i].degradation;
    }
    std::cout << "\n";
  }
  std::cout << "retries at top intensity:";
  for (const auto& s : sweeps) {
    std::cout << " " << s.name << "=" << s.points.back().op_retries;
  }
  std::cout << "\nre-executions at top intensity:";
  for (const auto& s : sweeps) {
    std::cout << " " << s.name << "=" << s.points.back().tasks_reexecuted;
  }
  std::cout << "\n";

  // The claim under test: at top intensity work stealing must degrade
  // no worse than the static schedule.
  const double static_deg = sweeps[0].points.back().degradation;
  const double ws_deg = sweeps.back().points.back().degradation;
  const bool graceful = ws_deg <= static_deg + 1e-9;
  std::cout << "graceful-degradation check: ws x" << ws_deg
            << " vs static x" << static_deg << " -> "
            << (graceful ? "ok" : "VIOLATED") << "\n";

  const FockFaultCheck fock = run_fock_fault_check(opt);
  std::cout << "pgas Fock under faults (" << fock.molecule << ", 2 ranks): "
            << (fock.bitwise_match ? "bitwise match" : "MISMATCH") << ", "
            << fock.task_reexecutions << " task re-executions, "
            << fock.op_retries << " op retries, " << fock.nxtval_retries
            << " nxtval retries\n";

  {
    std::ofstream out(opt.report_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << opt.report_path << "\n";
      return 1;
    }
    emc::bench::JsonWriter json(out);
    json.begin_object();
    emc::bench::write_manifest(json, "bench_faults",
                               opt.smoke ? "smoke" : "full", 0);
    json.field("bench", "bench_faults");
    json.field("experiment", "EXP-9b");
    json.field("molecule", opt.molecule);
    json.field("procs", opt.procs);
    json.field("tasks", static_cast<std::int64_t>(model.task_count()));
    json.field("ideal_per_proc_s", ideal);
    json.field("deterministic", all_deterministic);
    json.begin_array("models");
    for (const auto& s : sweeps) {
      json.begin_object();
      json.field("model", s.name);
      json.begin_array("sweep");
      for (const SweepPoint& p : s.points) {
        json.begin_object();
        json.field("intensity", p.intensity);
        json.field("makespan_s", p.makespan);
        json.field("degradation", p.degradation);
        json.field("utilization", p.utilization);
        json.field("op_retries", p.op_retries);
        json.field("tasks_reexecuted", p.tasks_reexecuted);
        json.field("fault_windows", p.fault_windows);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.begin_object("graceful_degradation");
    json.field("ws", ws_deg);
    json.field("static", static_deg);
    json.field("ok", graceful);
    json.end_object();
    json.begin_object("fock_fault_check");
    json.field("molecule", fock.molecule);
    json.field("basis_functions", static_cast<std::int64_t>(fock.n_basis));
    json.field("bitwise_match", fock.bitwise_match);
    json.field("task_reexecutions", fock.task_reexecutions);
    json.field("op_retries", fock.op_retries);
    json.field("nxtval_retries", fock.nxtval_retries);
    json.end_object();
    emc::bench::write_run_footer(json);
    json.end_object();
  }

  if (const std::string bad = emc::bench::validate_report(opt.report_path);
      !bad.empty()) {
    std::cerr << "FAIL: " << bad << "\n";
    return 1;
  }
  std::cout << "wrote " << opt.report_path << " (validated)\n";

  if (!all_deterministic || !graceful || !fock.bitwise_match) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (emc::bench::has_flag(argc, argv, "--smoke")) {
    opt.molecule = "water";
    opt.procs = 8;
  }
  emc::Cli cli("bench_faults", "EXP-9b fault-resilience sweep and gate");
  cli.add_flag("smoke", '\0', "small workload + gates (CI)", &opt.smoke);
  cli.add_int("model-procs", '\0', "simulated procs", &opt.procs);
  cli.add_int("ppn", '\0', "procs per node (0 = min(16, procs))", &opt.ppn);
  cli.add_string("molecule", '\0', "workload molecule", &opt.molecule);
  cli.add_string("report", '\0', "JSON report path", &opt.report_path);
  if (!cli.parse(argc, argv)) return 2;
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
