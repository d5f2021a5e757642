// Observability driver: records a typed event trace of a simulated
// execution-model run, exports it as Chrome trace-event JSON (openable
// in Perfetto / chrome://tracing), runs the trace analyses (utilization
// timeline, idle-gap/critical-path anatomy, steal provenance), and runs
// a real PGAS Fock build with the metrics registry attached so the
// report carries per-rank get/put/acc op+byte totals, nxtval counts, and
// barrier waits. Everything lands in one JSON report.
//
// The exported Chrome trace is always re-read and validated with the
// strict util/json.hpp parser (which also rejects non-finite number
// literals): the file must parse and every event must carry the
// ph/ts/dur/pid/tid fields the trace viewers require. The process exits
// nonzero if validation fails, which is what the bench_trace_smoke ctest
// gate checks.
//
// Flags:
//   --smoke            tiny workload (water, P=8, 2 ranks) for CI
//   --model=NAME       static | counter | hier | hybrid | ws (default ws)
//   --procs=P          simulated processors (default 64)
//   --ppn=N            procs per node (default min(16, procs))
//   --molecule=NAME    workload molecule (default water27)
//   --measured         measure task costs instead of the analytic model
//   --iterations=N     retentive rounds; >1 merges round traces (default 1)
//   --chunk=N          counter chunk (default 4)
//   --ranks=N          PGAS ranks for the real Fock build (default 4)
//   --trace=PATH       Chrome trace output (default BENCH_trace.chrome.json)
//   --report=PATH      JSON report output (default BENCH_trace.json)

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
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
using util::JsonValue;

/// Re-reads an exported Chrome trace and checks the structure every
/// viewer relies on: top-level object with a traceEvents array whose
/// entries each carry ph/ts/dur/pid/tid (and a name). Parsing uses the
/// strict util parser, so a trace carrying a raw NaN/Inf literal fails
/// here. Returns the event count; -1 on failure (details on stderr).
std::int64_t validate_chrome_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "FAIL: cannot read " << path << "\n";
    return -1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  JsonValue doc;
  try {
    doc = util::parse_json(text);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << path << " is not valid JSON: " << e.what()
              << "\n";
    return -1;
  }
  if (!doc.has("traceEvents") ||
      doc.object["traceEvents"].kind != JsonValue::Kind::kArray) {
    std::cerr << "FAIL: " << path << " has no traceEvents array\n";
    return -1;
  }
  const auto& events = doc.object["traceEvents"].array;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& ev = events[i];
    for (const char* key : {"name", "ph", "ts", "dur", "pid", "tid"}) {
      if (!ev.has(key)) {
        std::cerr << "FAIL: traceEvents[" << i << "] lacks \"" << key
                  << "\"\n";
        return -1;
      }
    }
  }
  return static_cast<std::int64_t>(events.size());
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options {
  bool smoke = false;
  std::string model = "ws";
  std::string molecule = "water27";
  int procs = 64;
  int ppn = 0;  ///< 0 = make_machine default of min(16, procs)
  int ranks = 4;
  int iterations = 1;
  std::int64_t chunk = 4;
  bool measured = false;
  std::string trace_path = "BENCH_trace.chrome.json";
  std::string report_path = "BENCH_trace.json";
};

struct SimRun {
  SimResult result;                ///< last (or only) round
  std::vector<TraceEvent> trace;   ///< merged across rounds
  double total_makespan = 0.0;     ///< summed across rounds
};

SimRun run_simulation(const Options& opt,
                      std::span<const double> costs) {
  MachineConfig config = emc::bench::make_machine(opt.procs, opt.ppn);
  config.record_trace = true;
  const auto block = lb::block_assignment(costs.size(), opt.procs);

  SimRun run;
  if (opt.model == "static") {
    run.result = simulate_static(config, costs, block);
  } else if (opt.model == "counter") {
    run.result = simulate_counter(config, costs, opt.chunk);
  } else if (opt.model == "hier") {
    run.result = simulate_hierarchical_counter(config, costs,
                                               opt.chunk * 8, opt.chunk);
  } else if (opt.model == "hybrid") {
    run.result = simulate_hybrid(config, costs, block, 0.3, opt.chunk);
  } else if (opt.model == "ws") {
    if (opt.iterations > 1) {
      const auto rounds =
          simulate_retentive(config, costs, block, opt.iterations);
      run.trace = merge_round_traces(rounds);
      for (const SimResult& r : rounds) run.total_makespan += r.makespan;
      run.result = rounds.back();
      return run;
    }
    run.result = simulate_work_stealing(config, costs, block);
  } else {
    throw std::invalid_argument("unknown --model '" + opt.model + "'");
  }
  run.trace = run.result.trace;
  run.total_makespan = run.result.makespan;
  return run;
}

/// Real (threaded) PGAS Fock builds with the registry attached: two
/// "SCF iterations" against a model density, exercising get/put/acc,
/// nxtval, and barrier instrumentation.
void run_pgas_fock(const Options& opt, util::MetricsRegistry& registry) {
  const std::string molecule = opt.molecule == "water27" ? "water2"
                                                         : opt.molecule;
  core::TaskModelOptions model_opts;
  const core::TaskModel model = core::build_task_model(molecule, model_opts);

  pgas::CommCostModel cost;
  cost.remote_ns = 500;
  cost.counter_ns = 300;
  pgas::Runtime runtime(opt.ranks, cost);

  core::DistributedFockOptions fock_opts;
  fock_opts.model = core::ExecModel::kCounter;  // exercises nxtval
  fock_opts.counter_chunk = 2;
  fock_opts.metrics = &registry;
  core::DistributedFockBuilder builder(model.basis, runtime, fock_opts);

  const auto n = static_cast<std::size_t>(model.basis.function_count());
  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) density(i, i) = 1.0;
  builder.build_g(density);
  builder.build_g(density);  // second SCF iteration, totals accumulate
  // Quiesce collectively so the per-rank barrier instruments fire too.
  runtime.run([](pgas::Context& ctx) { ctx.barrier(); });
  std::cout << "pgas Fock build: " << molecule << ", " << opt.ranks
            << " ranks, " << builder.builds() << " builds, "
            << model.task_count() << " tasks/build\n";
}

int run(const Options& opt) {
  core::TaskModelOptions model_opts;
  model_opts.measure_costs = opt.measured;
  const core::TaskModel model =
      core::build_task_model(opt.molecule, model_opts);
  emc::bench::print_header(
      "bench_trace", "typed event traces + runtime metrics", model);

  // --- Simulated run with trace recording -------------------------------
  const SimRun run = run_simulation(opt, model.costs);
  const std::vector<TraceEvent>& trace = run.trace;
  const TraceSummary summary =
      summarize_trace(trace, opt.procs, run.total_makespan);
  const std::vector<double> timeline =
      utilization_timeline(trace, run.total_makespan, opt.procs, 32);
  const std::vector<std::int64_t> provenance =
      steal_provenance(trace, opt.procs);

  std::cout << "model " << opt.model << ", P=" << opt.procs << ": makespan "
            << run.total_makespan << " s, " << summary.events
            << " events, utilization " << run.result.utilization() << "\n"
            << "critical proc " << summary.critical_proc << ": busy "
            << summary.critical_busy << " s, overhead "
            << summary.critical_overhead << " s, idle "
            << summary.critical_idle << " s\n"
            << "longest idle gap " << summary.longest_idle_gap << " s on proc "
            << summary.longest_idle_proc << "\n";

  {
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << opt.trace_path << "\n";
      return 1;
    }
    write_chrome_trace(
        out, trace,
        emc::bench::make_machine(opt.procs, opt.ppn).procs_per_node);
  }
  const std::int64_t chrome_events = validate_chrome_trace(opt.trace_path);
  if (chrome_events < 0) return 1;
  std::cout << "wrote " << opt.trace_path << " (" << chrome_events
            << " events, validated)\n";

  // --- Real PGAS Fock build with metrics --------------------------------
  util::MetricsRegistry registry;
  run_pgas_fock(opt, registry);

  // --- Report -----------------------------------------------------------
  std::ofstream out(opt.report_path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << opt.report_path << "\n";
    return 1;
  }
  emc::bench::JsonWriter json(out);
  json.begin_object();
  emc::bench::write_manifest(json, "bench_trace",
                             opt.smoke ? "smoke" : "full", 0);
  json.field("bench", "bench_trace");
  json.field("molecule", opt.molecule);
  json.field("tasks", static_cast<std::int64_t>(model.task_count()));
  json.begin_object("sim");
  json.field("model", opt.model);
  json.field("procs", opt.procs);
  json.field("iterations", opt.iterations);
  json.field("makespan_s", run.total_makespan);
  json.field("utilization", run.result.utilization());
  json.field("steals", run.result.steals);
  json.field("steal_attempts", run.result.steal_attempts);
  json.field("counter_ops", run.result.counter_ops);
  json.begin_object("summary");
  json.field("events", summary.events);
  json.field("critical_proc", summary.critical_proc);
  json.field("critical_busy_s", summary.critical_busy);
  json.field("critical_overhead_s", summary.critical_overhead);
  json.field("critical_idle_s", summary.critical_idle);
  json.field("longest_idle_gap_s", summary.longest_idle_gap);
  json.field("longest_idle_proc", summary.longest_idle_proc);
  json.field("total_busy_s", summary.total_busy);
  json.field("total_overhead_s", summary.total_overhead);
  json.field("total_idle_s", summary.total_idle);
  json.end_object();
  json.begin_array("utilization_timeline");
  for (double u : timeline) json.value(u);
  json.end_array();
  json.begin_array("steal_provenance");  // nonzero (thief, victim) cells
  for (int thief = 0; thief < opt.procs; ++thief) {
    for (int victim = 0; victim < opt.procs; ++victim) {
      const std::int64_t count =
          provenance[static_cast<std::size_t>(thief) *
                         static_cast<std::size_t>(opt.procs) +
                     static_cast<std::size_t>(victim)];
      if (count == 0) continue;
      json.begin_object();
      json.field("thief", thief);
      json.field("victim", victim);
      json.field("count", count);
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  json.begin_object("chrome_trace");
  json.field("path", opt.trace_path);
  json.field("events", chrome_events);
  json.field("validated", true);
  json.end_object();
  {
    std::ostringstream metrics_json;
    registry.write_json(metrics_json);
    json.raw("metrics", metrics_json.str());
  }
  emc::bench::write_run_footer(json);
  json.end_object();
  out.close();
  std::cout << "wrote " << opt.report_path << "\n";

  if (const std::string bad = emc::bench::validate_report(opt.report_path);
      !bad.empty()) {
    std::cerr << "FAIL: " << bad << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (emc::bench::has_flag(argc, argv, "--smoke")) {
    opt.molecule = "water";
    opt.procs = 8;
    opt.ranks = 2;
  }
  emc::Cli cli("bench_trace", "typed-trace and metrics driver");
  cli.add_flag("smoke", '\0', "small workload + export checks (CI)",
               &opt.smoke);
  cli.add_flag("measured", '\0',
               "measure task costs instead of the analytic model",
               &opt.measured);
  cli.add_string("model", '\0', "static | counter | hier | hybrid | ws",
                 &opt.model);
  cli.add_string("molecule", '\0', "workload molecule", &opt.molecule);
  cli.add_int("procs", '\0', "simulated procs", &opt.procs);
  cli.add_int("ppn", '\0', "procs per node (0 = min(16, procs))", &opt.ppn);
  cli.add_int("ranks", '\0', "PGAS ranks for the real Fock build",
              &opt.ranks);
  cli.add_int("iterations", '\0', "retentive rounds; >1 merges round traces",
              &opt.iterations);
  cli.add_int("chunk", '\0', "counter chunk", &opt.chunk);
  cli.add_string("trace", '\0', "Chrome trace output path",
                 &opt.trace_path);
  cli.add_string("report", '\0', "JSON report path", &opt.report_path);
  if (!cli.parse(argc, argv)) return 2;
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
