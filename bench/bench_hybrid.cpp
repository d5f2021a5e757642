// EXP-13 driver: measured wall time of the real hybrid ranks × threads
// Fock build under the five (inter model × intra-rank policy) combos.
//
// The five combos run as interleaved repeats (ABCDE ABCDE ...), so a
// co-tenant's load spike lands on every combo alike instead of on one
// cell. Each repeat times every thread count of a combo, t1 included,
// so each speedup is t1 / tT from the same repeat. The table prints the
// median and interquartile range (IQR) of wall time and speedup per
// cell. Ranks are {1, 2}; threads per rank are the powers of two up to
// hardware_concurrency() / ranks. Every builder runs one untimed warm-up
// build first, so the repeats time the steady state an SCF loop sees.
//
// The numbers are this host's wall time and go to stdout only. The
// build's correctness contract (bitwise G across threads and policies,
// task conservation, closeness to the sequential build) is pinned by
// HybridFockTest in tests/test_distributed_fock.cpp.
//
//   ./build/bench/bench_hybrid [--molecule=NAME]   (default water8)

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/distributed_fock.hpp"
#include "core/task_model.hpp"
#include "linalg/matrix.hpp"
#include "pgas/runtime.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;
using core::DistributedFockBuilder;
using core::DistributedFockOptions;
using core::ExecModel;
using core::IntraPolicy;

/// Timed repeats per cell; the median and IQR come from these.
constexpr int kRepeats = 7;

struct Combo {
  ExecModel model;
  IntraPolicy intra;
  const char* name;
};

constexpr Combo kCombos[] = {
    {ExecModel::kStatic, IntraPolicy::kStatic, "static+static"},
    {ExecModel::kStatic, IntraPolicy::kCounter, "static+counter"},
    {ExecModel::kStatic, IntraPolicy::kWorkStealing, "static+ws"},
    {ExecModel::kCounter, IntraPolicy::kCounter, "counter+counter"},
    {ExecModel::kWorkStealing, IntraPolicy::kWorkStealing, "ws+ws"},
};

linalg::Matrix make_density(std::size_t n) {
  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      density(i, j) = (i == j ? 1.0 : 0.03);
    }
  }
  return density;
}

/// One runtime + builder, kept for every repeat of its cell.
struct Engine {
  std::unique_ptr<pgas::Runtime> runtime;
  std::unique_ptr<DistributedFockBuilder> builder;
};

Engine make_engine(const chem::BasisSet& basis, const Combo& combo,
                   int ranks, int threads) {
  DistributedFockOptions o;
  o.model = combo.model;
  o.intra_policy = combo.intra;
  o.threads = threads;
  o.static_balancer = "lpt";
  o.intra_chunk = 2;
  Engine e;
  e.runtime = std::make_unique<pgas::Runtime>(ranks);
  e.builder =
      std::make_unique<DistributedFockBuilder>(basis, *e.runtime, o);
  return e;
}

/// "median (IQR)" of a sample.
std::string median_iqr(const std::vector<double>& xs) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f (%.3f)", percentile(xs, 0.5),
                percentile(xs, 0.75) - percentile(xs, 0.25));
  return buf;
}

void sweep_ranks(const core::TaskModel& model,
                 const linalg::Matrix& density, int ranks) {
  const int max_threads = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()) / ranks);
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  const std::size_t n_combos = std::size(kCombos);
  const std::size_t n_threads = thread_counts.size();

  // engines[c][k] and seconds[c][k][rep] for combo c at thread_counts[k].
  std::vector<std::vector<Engine>> engines(n_combos);
  for (std::size_t c = 0; c < n_combos; ++c) {
    for (const int threads : thread_counts) {
      engines[c].push_back(make_engine(model.basis, kCombos[c], ranks,
                                       threads));
      engines[c].back().builder->build_g(density);  // warm-up
    }
  }
  std::vector<std::vector<std::vector<double>>> seconds(
      n_combos, std::vector<std::vector<double>>(n_threads));
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t c = 0; c < n_combos; ++c) {
      for (std::size_t k = 0; k < n_threads; ++k) {
        Timer timer;
        engines[c][k].builder->build_g(density);
        seconds[c][k].push_back(timer.seconds());
      }
    }
  }

  std::vector<std::string> headers = {"combo"};
  for (const int t : thread_counts) {
    headers.push_back("t" + std::to_string(t) + " wall s");
    if (t > 1) headers.push_back("t" + std::to_string(t) + " speedup");
  }
  Table table(headers);
  for (std::size_t c = 0; c < n_combos; ++c) {
    std::vector<Cell> row = {std::string(kCombos[c].name)};
    for (std::size_t k = 0; k < n_threads; ++k) {
      row.push_back(median_iqr(seconds[c][k]));
      if (k == 0) continue;
      std::vector<double> speedup;
      for (int rep = 0; rep < kRepeats; ++rep) {
        speedup.push_back(seconds[c][0][rep] / seconds[c][k][rep]);
      }
      row.push_back(median_iqr(speedup));
    }
    table.add_row(std::move(row));
  }
  std::cout << "\n";
  table.print(std::cout, "ranks " + std::to_string(ranks) +
                             ": median (IQR) of " +
                             std::to_string(kRepeats) +
                             " interleaved repeats; speedup vs t1 of the "
                             "same repeat");
}

}  // namespace

int main(int argc, char** argv) try {
  std::string molecule = "water8";
  Cli cli("bench_hybrid",
          "interleaved wall-time sweep of the hybrid Fock build combos");
  cli.add_string("molecule", '\0', "workload molecule", &molecule);
  if (!cli.parse(argc, argv)) return 2;

  const core::TaskModel model = core::build_task_model(molecule);
  bench::print_header(
      "bench_hybrid (EXP-13)",
      "measured wall time of the ranks x threads Fock build per "
      "(inter model x intra policy) combo",
      model);
  std::cout << "host: " << std::thread::hardware_concurrency()
            << " hardware threads\n";
  const linalg::Matrix density = make_density(
      static_cast<std::size_t>(model.basis.function_count()));
  for (const int ranks : {1, 2}) sweep_ranks(model, density, ranks);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_hybrid: " << e.what() << "\n";
  return 2;
}
