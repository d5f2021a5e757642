// Benchmark driver binary. Usually started through perfbench/run.py,
// which builds it, stamps host facts and validates the report against
// BENCHMARK.json:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Prints one JSON line (metrics, checks, facts) and exits 0 only when
// every checked result was correct; 2 on bad arguments or when the
// workload needs more threads than this process has CPUs.

#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

int workload_threads(const std::string& workload, int nproc) {
  if (workload == "fock-hybrid") return 2 * (nproc / 2 > 0 ? nproc / 2 : 1);
  if (workload == "serve-mix") return nproc;
  return 1;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload scf-seq|fock-hybrid|serve-mix|"
               "sim-models --seed N --seconds S --trace 0|1 [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else {
        return usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  void (*run)(const RunConfig&, Report&) = nullptr;
  if (config.workload == "scf-seq") run = run_scf_seq;
  if (config.workload == "fock-hybrid") run = run_fock_hybrid;
  if (config.workload == "serve-mix") run = run_serve_mix;
  if (config.workload == "sim-models") run = run_sim_models;
  if (run == nullptr) return usage("unknown workload '" + config.workload + "'");

  config.nproc = available_cpus();
  const int threads = workload_threads(config.workload, config.nproc);
  if (threads > config.nproc) {
    std::cerr << "perfbench: refusing " << config.workload << ": it needs "
              << threads << " threads and this process has " << config.nproc
              << " CPU(s)\n";
    return 2;
  }

  Report report;
  report.info("threads", static_cast<double>(threads));
  report.info("nproc", static_cast<double>(config.nproc));
  report.info("compiler", PERFBENCH_COMPILER);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("cxx_flags", PERFBENCH_CXX_FLAGS);
  try {
    run(config, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
