// fock-hybrid: repeated single G(P) builds of a seeded rigid motion of
// water8/STO-3G (820 heterogeneous tasks) through
// core::DistributedFockBuilder at 2 ranks x floor(nproc/2) threads. One
// sweep is one build under each of five inter+intra scheduling combos,
// so both scheduling levels, PGAS get/accumulate and the tree reduction
// all do real work; no SCF loop runs.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chem/basis.hpp"
#include "chem/fock.hpp"
#include "core/distributed_fock.hpp"
#include "pgas/runtime.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace chem = emc::chem;
namespace core = emc::core;
using emc::linalg::Matrix;

constexpr int kRanks = 2;

struct Combo {
  core::ExecModel model;
  core::IntraPolicy intra;
  const char* name;
  /// Static inter-rank assignment fixes the task->rank map, so the
  /// build is bitwise reproducible.
  bool deterministic;
};

constexpr Combo kCombos[] = {
    {core::ExecModel::kStatic, core::IntraPolicy::kStatic, "static-static",
     true},
    {core::ExecModel::kStatic, core::IntraPolicy::kCounter, "static-counter",
     true},
    {core::ExecModel::kStatic, core::IntraPolicy::kWorkStealing, "static-ws",
     true},
    {core::ExecModel::kCounter, core::IntraPolicy::kCounter,
     "counter-counter", false},
    {core::ExecModel::kWorkStealing, core::IntraPolicy::kWorkStealing,
     "ws-ws", false},
};
constexpr std::size_t kComboCount = std::size(kCombos);

/// Seeded symmetric density-like matrix: dominant diagonal, small
/// off-diagonal couplings.
Matrix seeded_density(std::size_t n, std::uint64_t seed) {
  emc::Rng rng(seed ^ 0xd3a5c0ffeeULL);
  Matrix p(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    p(i, i) = rng.uniform(0.5, 1.5);
    for (std::size_t j = 0; j < i; ++j) {
      p(i, j) = p(j, i) = rng.uniform(-0.05, 0.05);
    }
  }
  return p;
}

/// One runtime + builder per combo. `registries` (one per combo) turns
/// on the library's own metrics; null leaves them off.
struct Engines {
  std::vector<std::unique_ptr<emc::pgas::Runtime>> runtimes;
  std::vector<std::unique_ptr<core::DistributedFockBuilder>> builders;
};

Engines make_engines(const chem::BasisSet& basis, int threads,
                     std::uint64_t seed,
                     std::vector<emc::util::MetricsRegistry>* registries) {
  Engines e;
  for (std::size_t c = 0; c < kComboCount; ++c) {
    core::DistributedFockOptions o;
    o.model = kCombos[c].model;
    o.intra_policy = kCombos[c].intra;
    o.static_balancer = "lpt";
    o.intra_chunk = 2;
    o.steal.seed = seed;
    o.threads = threads;
    if (registries != nullptr) o.metrics = &(*registries)[c];
    e.runtimes.push_back(std::make_unique<emc::pgas::Runtime>(kRanks));
    e.builders.push_back(std::make_unique<core::DistributedFockBuilder>(
        basis, *e.runtimes.back(), o));
  }
  return e;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

/// Per-build record of one combo.
struct Build {
  double seconds = 0.0;
  emc::exec::ExecutionStats stats;
};

/// Runs sweeps until `seconds` have passed (at least `min_sweeps`),
/// checking every G against the sequential reference and, for the
/// deterministic combos, bitwise against that combo's first build.
class Sweeper {
 public:
  Sweeper(Engines& engines, const Matrix& density, const Matrix& reference,
          std::int64_t n_tasks, Report& report)
      : engines_(engines), density_(density), reference_(reference),
        n_tasks_(n_tasks), report_(report), first_(kComboCount),
        builds_(kComboCount) {}

  /// Returns the wall time of each sweep (sum of its five builds).
  std::vector<double> run(double seconds, int min_sweeps) {
    std::vector<double> sweeps;
    const Timer measuring;
    while (static_cast<int>(sweeps.size()) < min_sweeps ||
           measuring.seconds() < seconds) {
      double sweep = 0.0;
      for (std::size_t c = 0; c < kComboCount; ++c) {
        core::DistributedFockBuilder& builder = *engines_.builders[c];
        Matrix g;
        Build b;
        b.seconds = timed_seconds([&] { g = builder.build_g(density_); });
        b.stats = builder.last_stats();
        sweep += b.seconds;
        check(c, g, b.stats);
        builds_[c].push_back(std::move(b));
      }
      sweeps.push_back(sweep);
    }
    return sweeps;
  }

  const std::vector<Build>& builds(std::size_t combo) const {
    return builds_[combo];
  }

  /// Wall time of every single build so far, all combos.
  std::vector<double> build_seconds() const {
    std::vector<double> out;
    for (const std::vector<Build>& combo : builds_) {
      for (const Build& b : combo) out.push_back(b.seconds);
    }
    return out;
  }

 private:
  void check(std::size_t c, const Matrix& g,
             const emc::exec::ExecutionStats& stats) {
    const std::string name = kCombos[c].name;
    if (!g.almost_equal(reference_, 1e-10)) {
      report_.op(false, name + ": G deviates from the sequential build");
      return;
    }
    if (stats.total_tasks() != n_tasks_) {
      report_.op(false, name + ": executed " +
                            std::to_string(stats.total_tasks()) + " of " +
                            std::to_string(n_tasks_) + " tasks");
      return;
    }
    if (kCombos[c].deterministic) {
      if (first_[c].empty()) {
        first_[c] = g;
      } else if (!bitwise_equal(first_[c], g)) {
        report_.op(false, name + ": G is not bitwise identical across builds");
        return;
      }
    }
    report_.op(true);
  }

  Engines& engines_;
  const Matrix& density_;
  const Matrix& reference_;
  std::int64_t n_tasks_;
  Report& report_;
  std::vector<Matrix> first_;
  std::vector<std::vector<Build>> builds_;
};

double registry_sum(const emc::util::MetricsSnapshot& snap,
                    const std::string& prefix, const std::string& suffix) {
  double s = 0.0;
  auto has_affixes = [&](const std::string& name) {
    return name.size() >= prefix.size() + suffix.size() &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  for (const auto& [name, value] : snap.counters) {
    if (has_affixes(name)) s += static_cast<double>(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    if (has_affixes(name)) s += value;
  }
  return s;
}

void report_traced(const Sweeper& sweeper,
                   const std::vector<emc::util::MetricsRegistry>& registries,
                   int threads, double sequential_s, Report& report) {
  double builds = 0.0;
  double get_s = 0.0, execute_s = 0.0, accumulate_s = 0.0;
  double buffers = 0.0;
  double get_bytes = 0.0, acc_bytes = 0.0, ops = 0.0, barrier_s = 0.0;
  for (std::size_t c = 0; c < kComboCount; ++c) {
    const std::string name = kCombos[c].name;
    std::vector<double> build_s, utilization, imbalance;
    double steals = 0.0, attempts = 0.0, counter_ops = 0.0;
    for (const Build& b : sweeper.builds(c)) {
      build_s.push_back(b.seconds);
      utilization.push_back(b.stats.utilization());
      std::vector<double> busy;
      for (const auto& r : b.stats.ranks) {
        busy.push_back(r.busy_seconds);
        steals += static_cast<double>(r.steals);
        attempts += static_cast<double>(r.steal_attempts);
        counter_ops += static_cast<double>(r.counter_ops);
      }
      imbalance.push_back(emc::imbalance_ratio(busy));
    }
    const auto n = static_cast<double>(build_s.size());
    const double build = median(build_s);
    report.metric("core.build_s." + name, build, "s");
    report.metric("core.efficiency." + name,
                  sequential_s / (kRanks * threads * build), "ratio");
    report.metric("exec.utilization." + name, median(utilization), "ratio");
    report.metric("exec.imbalance." + name, median(imbalance), "ratio");
    report.metric("exec.steals." + name, steals / n, "count");
    report.metric("exec.steal_success." + name,
                  attempts > 0.0 ? steals / attempts : 0.0, "ratio");
    report.metric("exec.counter_ops." + name, counter_ops / n, "count");

    const emc::util::MetricsSnapshot snap = registries[c].snapshot();
    builds += static_cast<double>(snap.counters.at("fock/builds"));
    get_s += snap.gauges.at("fock/phase_get_seconds");
    execute_s += snap.gauges.at("fock/phase_execute_seconds");
    accumulate_s += snap.gauges.at("fock/phase_accumulate_seconds");
    buffers = std::max(buffers, snap.gauges.at("fock/reduction_buffers"));
    get_bytes += registry_sum(snap, "pgas/r", "/get_bytes");
    acc_bytes += registry_sum(snap, "pgas/r", "/acc_bytes");
    const auto nxtval = snap.counters.find("pgas/nxtval_ops");
    ops += registry_sum(snap, "pgas/r", "/get_ops") +
           registry_sum(snap, "pgas/r", "/put_ops") +
           registry_sum(snap, "pgas/r", "/acc_ops") +
           (nxtval != snap.counters.end()
                ? static_cast<double>(nxtval->second)
                : 0.0);
    barrier_s += registry_sum(snap, "pgas/r", "/barrier_wait_seconds");
  }
  report.metric("core.phase_get_s", get_s / builds, "s");
  report.metric("core.phase_execute_s", execute_s / builds, "s");
  report.metric("core.phase_accumulate_s", accumulate_s / builds, "s");
  report.metric("core.reduction_buffers", buffers, "count");
  report.metric("pgas.get_bytes", get_bytes / builds, "bytes");
  report.metric("pgas.acc_bytes", acc_bytes / builds, "bytes");
  report.metric("pgas.ops", ops / builds, "count");
  report.metric("pgas.barrier_wait_s", barrier_s / builds, "s");
}

}  // namespace

void run_fock_hybrid(const RunConfig& config, Report& report) {
  const chem::Molecule molecule = rigid_motion(
      chem::make_named_molecule(config.smoke ? "water2" : "water8"),
      config.seed);
  const chem::BasisSet basis = chem::BasisSet::build(molecule, "sto-3g");
  const int threads = workload_threads("fock-hybrid", config.nproc) / kRanks;
  const auto n = static_cast<std::size_t>(basis.function_count());
  const Matrix density = seeded_density(n, config.seed);
  report.info("input", config.smoke ? "water2/sto-3g" : "water8/sto-3g");
  report.info("ranks", static_cast<double>(kRanks));

  const chem::FockBuilder sequential(basis);
  const auto n_tasks = static_cast<std::int64_t>(sequential.make_tasks().size());
  std::vector<double> sequential_s;
  Matrix reference;
  for (int i = 0; i < (config.trace ? 3 : 1); ++i) {
    sequential_s.push_back(
        timed_seconds([&] { reference = sequential.build_g(density); }));
  }
  report.info("tasks", static_cast<double>(n_tasks));

  const int min_sweeps = config.smoke ? 2 : 3;
  if (!config.trace) {
    std::vector<double> setup_s;
    Engines engines;
    for (int i = 0; i < 21; ++i) {
      engines = Engines{};  // tears the previous set down, untimed
      setup_s.push_back(timed_seconds([&] {
        engines = make_engines(basis, threads, config.seed, nullptr);
      }));
    }
    // Warm-up: buffer pools and thread pools fill.
    Sweeper(engines, density, reference, n_tasks, report).run(0.0, 1);
    Sweeper sweeper(engines, density, reference, n_tasks, report);
    const std::vector<double> sweeps = sweeper.run(config.seconds, min_sweeps);
    // The tail is taken over single builds: a run holds about 15 sweeps,
    // too few for a percentile with ten samples above it, but about 75
    // builds, whose top 15% are the slowest combo's typical builds.
    report_end_to_end(report, median(setup_s), sweeps,
                      sweeper.build_seconds(), 85.0,
                      static_cast<double>(sweeps.size()) / sum(sweeps));
    return;
  }

  Engines plain = make_engines(basis, threads, config.seed, nullptr);
  Sweeper(plain, density, reference, n_tasks, report).run(0.0, 1);
  Sweeper untraced(plain, density, reference, n_tasks, report);
  const std::vector<double> untraced_sweeps =
      untraced.run(config.seconds / 2, min_sweeps);

  std::vector<emc::util::MetricsRegistry> registries(kComboCount);
  Engines traced_engines =
      make_engines(basis, threads, config.seed, &registries);
  Sweeper(traced_engines, density, reference, n_tasks, report).run(0.0, 1);
  for (emc::util::MetricsRegistry& r : registries) r.reset();
  Sweeper traced(traced_engines, density, reference, n_tasks, report);
  const std::vector<double> traced_sweeps =
      traced.run(config.seconds / 2, min_sweeps);

  const double sequential_build = median(sequential_s);
  report_traced(traced, registries, threads, sequential_build, report);
  report_chem_layer(report, molecule, "sto-3g", density, sequential_build,
                    /*one_electron=*/false);

  // A build's time is attributed when it falls inside one of the
  // builder's three timed phases (get, execute, accumulate).
  double phases = 0.0;
  for (const emc::util::MetricsRegistry& r : registries) {
    const emc::util::MetricsSnapshot snap = r.snapshot();
    phases += snap.gauges.at("fock/phase_get_seconds") +
              snap.gauges.at("fock/phase_execute_seconds") +
              snap.gauges.at("fock/phase_accumulate_seconds");
  }
  const double wall = sum(traced_sweeps);
  report_trace_closure(report, wall, phases, median(traced_sweeps),
                       median(untraced_sweeps));
  report.check(phases >= 0.95 * wall,
               "builder phases cover under 95% of the build wall time");
}

}  // namespace perfbench
