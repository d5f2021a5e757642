// The kernel's recorded perf artifacts: the raw chemistry substrate that
// generates the task costs — ERI quartets, Schwarz screening, and
// Fock-build sweeps. These calibrate the simulator's cost scale and
// guard the hot path against regressions.
//
// Modes (one is required; with neither, usage is printed and the exit
// status is 2):
//   --smoke          fast seed-vs-cached kernel comparison per shell
//                    class + a Fock-build sweep + the measured ERI/digest
//                    split of a build + the per-class profile of the
//                    water4/6-31G* build (perfbench scf-seq's) + the
//                    quartets each iteration of its incremental SCF
//                    evaluates, checked equal on a 2-rank x 2-thread
//                    distributed SCF + accuracy cross-checks; writes
//                    BENCH_kernel.json and exits nonzero on an accuracy
//                    failure, an unconverged or diverging SCF or a
//                    speedup below --min-speedup
//   --calibrate      re-fit the analytic task-cost model constants
//                    (FockBuilder::estimate_task_cost) by least squares
//                    against wall-time measurements of the current kernel
//   --json=PATH      smoke JSON output path (default BENCH_kernel.json)
//   --min-speedup=X  smoke regression gate on the Fock sweep (default 3.0
//                    — deliberately below the recorded ~6-8x so scheduler
//                    noise cannot fail CI, while a real regression does)
//   --seed=N         seed for the randomized accuracy quartets

#include <array>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chem/basis.hpp"
#include "chem/boys.hpp"
#include "chem/eri.hpp"
#include "chem/fock.hpp"
#include "chem/molecule.hpp"
#include "chem/scf.hpp"
#include "core/calibration.hpp"
#include "core/distributed_fock.hpp"
#include "core/task_model.hpp"
#include "linalg/lstsq.hpp"
#include "pgas/runtime.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc::chem;

// ---------------------------------------------------------------------------
// --smoke: seed-vs-cached comparison, accuracy gate, BENCH_kernel.json
// ---------------------------------------------------------------------------

struct ClassResult {
  std::string name;
  std::size_t prim_quartets = 0;  ///< surviving pruning
  double direct_ns = 0.0;
  double cached_ns = 0.0;
  double max_diff = 0.0;
  double speedup() const {
    return cached_ns > 0.0 ? direct_ns / cached_ns : 0.0;
  }
};

/// Times fn() `iters` times per rep and returns the best per-call ns.
template <typename Fn>
double best_ns(int reps, int iters, Fn&& fn) {
  emc::Timer timer;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    timer.reset();
    for (int i = 0; i < iters; ++i) fn();
    const double t = timer.seconds() * 1e9 / static_cast<double>(iters);
    if (r == 0 || t < best) best = t;
  }
  return best;
}

double block_max_diff(const EriBlock& x, const EriBlock& y) {
  double m = 0.0;
  for (int a = 0; a < x.na(); ++a) {
    for (int b = 0; b < x.nb(); ++b) {
      for (int c = 0; c < x.nc(); ++c) {
        for (int d = 0; d < x.nd(); ++d) {
          m = std::max(m, std::abs(x(a, b, c, d) - y(a, b, c, d)));
        }
      }
    }
  }
  return m;
}

ClassResult time_quartet_class(const std::string& name, const Shell& a,
                               const Shell& b, const Shell& c,
                               const Shell& d, int iters) {
  ClassResult res;
  res.name = name;
  res.max_diff = block_max_diff(eri_shell_quartet_direct(a, b, c, d),
                                eri_shell_quartet(a, b, c, d));
  res.direct_ns = best_ns(3, iters, [&] {
    emc::bench::do_not_optimize(eri_shell_quartet_direct(a, b, c, d));
  });
  const ShellPairData bra = make_shell_pair(a, b);
  const ShellPairData ket = make_shell_pair(c, d);
  res.prim_quartets = surviving_prim_quartets(bra, ket);
  res.cached_ns = best_ns(3, iters, [&] {
    emc::bench::do_not_optimize(eri_shell_quartet(bra, ket));
  });
  return res;
}

/// Calls fn(task, k, l) for every quartet a build of `builder` evaluates:
/// each canonical ket pair up to the task's rank whose Schwarz bound
/// product survives the screening threshold.
template <typename Fn>
void for_each_screened_quartet(const FockBuilder& builder,
                               const std::vector<ShellPairTask>& tasks,
                               Fn&& fn) {
  const auto& schwarz = builder.schwarz();
  const double threshold = builder.screen_threshold();
  const int n = static_cast<int>(builder.basis().shell_count());
  for (const ShellPairTask& task : tasks) {
    const double q_bra = schwarz(static_cast<std::size_t>(task.si),
                                 static_cast<std::size_t>(task.sj));
    for (int k = 0; k < n; ++k) {
      for (int l = 0; l <= k; ++l) {
        if (pair_rank(k, l) > task.rank) break;
        if (threshold > 0.0 &&
            q_bra * schwarz(static_cast<std::size_t>(k),
                            static_cast<std::size_t>(l)) < threshold) {
          continue;
        }
        fn(task, k, l);
      }
    }
  }
}

/// One batched kernel call: a bra and the ket pairs of a window, each
/// writing into one shared output buffer.
struct EriCall {
  const ShellPairData* bra = nullptr;
  std::vector<EriKet> kets;
};

/// The calls a build of `builder` makes: each task's screened ket pairs
/// in loop order, grouped into windows as FockBuilder::execute_task
/// groups them (eri_window_full). Outputs go to `buffer`.
std::vector<EriCall> build_windows(const FockBuilder& builder,
                                   double* buffer) {
  const auto& pairs = builder.shell_pairs();
  std::vector<EriCall> calls;
  std::size_t used = 0;
  for_each_screened_quartet(
      builder, builder.make_tasks(),
      [&](const ShellPairTask& task, int k, int l) {
        const ShellPairData& bra = pairs.pair(task.si, task.sj);
        const ShellPairData& ket = pairs.pair(k, l);
        const auto size = static_cast<std::size_t>(bra.na() * bra.nb() *
                                                   ket.na() * ket.nb());
        if (calls.empty() || calls.back().bra != &bra ||
            eri_window_full(calls.back().kets.size(), used, size)) {
          calls.push_back(EriCall{&bra, {}});
          used = 0;
        }
        calls.back().kets.push_back(EriKet{&ket, buffer + used});
        used += size;
      });
  return calls;
}

/// Sweeps every screened quartet of the Fock-build task decomposition,
/// once through the seed kernel and once through the pair cache. This is
/// the workload whose speedup the cost-model recalibration records.
struct FockSweepResult {
  double direct_ms = 0.0;
  double cached_ms = 0.0;
  std::uint64_t quartets = 0;
  double speedup() const {
    return cached_ms > 0.0 ? direct_ms / cached_ms : 0.0;
  }
};

FockSweepResult fock_sweep(const FockBuilder& builder, int reps) {
  const auto& shells = builder.basis().shells();
  const auto& pairs = builder.shell_pairs();
  const auto tasks = builder.make_tasks();

  FockSweepResult res;
  for_each_screened_quartet(builder, tasks,
                            [&](const ShellPairTask&, int, int) {
                              ++res.quartets;
                            });

  emc::Timer timer;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    timer.reset();
    for_each_screened_quartet(
        builder, tasks, [&](const ShellPairTask& task, int k, int l) {
          const EriBlock block = eri_shell_quartet_direct(
              shells[static_cast<std::size_t>(task.si)],
              shells[static_cast<std::size_t>(task.sj)],
              shells[static_cast<std::size_t>(k)],
              shells[static_cast<std::size_t>(l)]);
          sink += block.max_abs();
        });
    const double t = timer.seconds() * 1e3;
    if (r == 0 || t < res.direct_ms) res.direct_ms = t;
  }
  for (int r = 0; r < reps; ++r) {
    timer.reset();
    for_each_screened_quartet(
        builder, tasks, [&](const ShellPairTask& task, int k, int l) {
          const EriBlock block = eri_shell_quartet(
              pairs.pair(task.si, task.sj), pairs.pair(k, l));
          sink += block.max_abs();
        });
    const double t = timer.seconds() * 1e3;
    if (r == 0 || t < res.cached_ms) res.cached_ms = t;
  }
  emc::bench::do_not_optimize(sink);
  return res;
}

/// Median and interquartile range of a timing sample, in ms.
struct Spread {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

Spread spread_of(const std::vector<double>& xs) {
  return {emc::percentile(xs, 0.5), emc::percentile(xs, 0.25),
          emc::percentile(xs, 0.75)};
}

/// CPU time of the calling thread in ms: on a shared host it does not
/// count the time the thread waits for a core.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// The Fock build split into its two layers, measured in one process:
/// an ERI-only sweep over exactly the quartets a build evaluates, and the
/// full build_g, which adds the J/K digest. The two alternate within each
/// repeat so host drift hits both alike; the digest time is the per-repeat
/// difference. Times are thread CPU time.
struct EriSplitResult {
  int reps = 0;
  Spread eri_ms, build_ms, digest_ms;
};

EriSplitResult eri_digest_split(const FockBuilder& builder, int reps,
                                std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(builder.basis().function_count());
  emc::Rng rng(seed);
  emc::linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      density(i, j) = density(j, i) = rng.uniform(-0.5, 0.5);
    }
  }

  std::vector<double> eri, build, digest;
  std::array<double, kMaxQuartetSize> buffer;
  // The build's own kernel calls: its windows through the batched entry.
  const std::vector<EriCall> calls = build_windows(builder, buffer.data());
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    double start = thread_cpu_ms();
    for (const EriCall& call : calls) {
      eri_shell_quartets(*call.bra, call.kets);
      sink += buffer[0];
    }
    eri.push_back(thread_cpu_ms() - start);
    start = thread_cpu_ms();
    sink += builder.build_g(density)(0, 0);
    build.push_back(thread_cpu_ms() - start);
    digest.push_back(build.back() - eri.back());
  }
  emc::bench::do_not_optimize(sink);
  return {reps, spread_of(eri), spread_of(build), spread_of(digest)};
}

/// One (la lb|lc ld) class of a build's screened quartets.
struct MixClass {
  std::string name;
  std::vector<EriCall> calls;     ///< the class's ket pairs of each window
  std::size_t quartets = 0;
  std::size_t prim_quartets = 0;  ///< surviving pruning: the lanes
  std::size_t batches = 0;        ///< lane batches the kernel runs
  double cpu_ms = 0.0;            ///< median ERI CPU time of the class
  double prim_quartet_ns() const {
    return prim_quartets > 0
               ? cpu_ms * 1e6 / static_cast<double>(prim_quartets)
               : 0.0;
  }
  double lanes_per_batch() const {
    return batches > 0 ? static_cast<double>(prim_quartets) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

/// Where a build's ERI time goes: the screened quartets of `builder`
/// grouped by angular class, each class swept `reps` times (classes
/// interleaved within a repeat; thread CPU time, median per class). The
/// build's windows are split by class: each window's ket pairs of one
/// class, in window order, are one batched call, as the kernel of their
/// ket class sees them. A batch is one bra primitive's surviving lanes
/// of a call, eri_lane_capacity at a time.
std::vector<MixClass> class_mix(const FockBuilder& builder, int reps) {
  std::vector<MixClass> mix(81);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    // i = ((la*3 + lb)*3 + lc)*3 + ld. Built from a char array: gcc 12
    // warns falsely (-Wrestrict) on short string literals at -O3.
    const char* l = "spd";
    const char name[] = {'(', l[i / 27], l[i / 9 % 3], '|',
                         l[i / 3 % 3], l[i % 3], ')'};
    mix[i].name.assign(name, sizeof name);
  }
  std::array<double, kMaxQuartetSize> buffer;
  const std::vector<EriCall> windows = build_windows(builder, buffer.data());
  std::vector<std::size_t> last_window(mix.size(), windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const ShellPairData& bra = *windows[w].bra;
    for (const EriKet& k : windows[w].kets) {
      const auto i = static_cast<std::size_t>(
          ((bra.la * 3 + bra.lb) * 3 + k.pair->la) * 3 + k.pair->lb);
      if (last_window[i] != w) {
        mix[i].calls.push_back(EriCall{&bra, {}});
        last_window[i] = w;
      }
      mix[i].calls.back().kets.push_back(k);
    }
  }
  std::erase_if(mix, [](const MixClass& c) { return c.calls.empty(); });
  for (MixClass& c : mix) {
    for (const EriCall& call : c.calls) {
      const ShellPairData& bra = *call.bra;
      const std::size_t capacity = eri_lane_capacity(
          bra.la + bra.lb, call.kets[0].pair->la + call.kets[0].pair->lb);
      c.quartets += call.kets.size();
      for (const PrimitivePairData& bp : bra.prims) {
        std::size_t lanes = 0;
        for (const EriKet& k : call.kets) {
          for (const PrimitivePairData& kp : k.pair->prims) {
            if (bp.bound * kp.bound >= kPrimQuartetPrune) ++lanes;
          }
        }
        c.prim_quartets += lanes;
        c.batches += (lanes + capacity - 1) / capacity;
      }
    }
  }

  std::vector<std::vector<double>> ms(mix.size());
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const double start = thread_cpu_ms();
      for (const EriCall& call : mix[i].calls) {
        eri_shell_quartets(*call.bra, call.kets);
        sink += buffer[0];
      }
      ms[i].push_back(thread_cpu_ms() - start);
    }
  }
  emc::bench::do_not_optimize(sink);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix[i].cpu_ms = emc::percentile(ms[i], 0.5);
  }
  return mix;
}

/// Randomized cached-vs-direct agreement check (the same property the
/// gtest suite verifies, kept here so the perf gate also gates accuracy).
double random_quartet_max_diff(std::uint64_t seed, int n_quartets) {
  emc::Rng rng(seed);
  auto random_shell = [&rng]() {
    Shell s;
    s.l = static_cast<int>(rng.range(0, 2));
    s.center = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0)};
    const int nprim = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < nprim; ++i) {
      const double a = std::exp(rng.uniform(std::log(0.1), std::log(50.0)));
      const double c = rng.uniform(0.2, 1.0) * (rng.uniform() < 0.5 ? -1 : 1);
      s.exponents.push_back(a);
      s.coefficients.push_back(c * primitive_norm(a, s.l, 0, 0));
    }
    return s;
  };
  double m = 0.0;
  for (int i = 0; i < n_quartets; ++i) {
    const Shell a = random_shell(), b = random_shell(), c = random_shell(),
                d = random_shell();
    m = std::max(m, block_max_diff(eri_shell_quartet_direct(a, b, c, d),
                                   eri_shell_quartet(a, b, c, d)));
  }
  return m;
}

int run_smoke(const std::string& json_path, double min_speedup,
              std::uint64_t seed) {
  std::cout << "bench_kernel --smoke (seed " << seed << ")\n"
            << "direct = seed kernel (per-quartet Hermite tables, series "
               "Boys); cached = factorized kernel over the shell-pair "
               "cache + Boys table\n\n";

  const BasisSet sto3g = BasisSet::build(make_water(), "sto-3g");
  const BasisSet g631s = BasisSet::build(make_water(), "6-31g*");
  const Shell& o1s = sto3g.shells()[0];
  const Shell& o2p = sto3g.shells()[2];
  const Shell& h1s = sto3g.shells()[3];
  // 6-31g* water: O = 1s, 2s, 2p, 3s, 3p, 3d.
  const Shell& od = g631s.shells()[5];

  std::vector<ClassResult> classes;
  classes.push_back(time_quartet_class("(ss|ss) deep", o1s, o1s, o1s, o1s,
                                       200));
  classes.push_back(time_quartet_class("(sp|sp)", h1s, o2p, h1s, o2p, 100));
  classes.push_back(time_quartet_class("(pp|pp)", o2p, o2p, o2p, o2p, 20));
  classes.push_back(time_quartet_class("(dd|dd)", od, od, od, od, 10));

  std::printf("%-14s %6s %12s %12s %9s %10s\n", "class", "prims",
              "direct_ns", "cached_ns", "speedup", "max_diff");
  double max_diff = 0.0;
  for (const ClassResult& c : classes) {
    std::printf("%-14s %6zu %12.0f %12.0f %8.2fx %10.2e\n", c.name.c_str(),
                c.prim_quartets, c.direct_ns, c.cached_ns, c.speedup(),
                c.max_diff);
    max_diff = std::max(max_diff, c.max_diff);
  }

  // The acceptance workload: water-cluster Fock build in 6-31G.
  const BasisSet cluster =
      BasisSet::build(make_water_cluster(2), "6-31g");
  const FockBuilder builder(cluster);
  const FockSweepResult sweep = fock_sweep(builder, 2);
  std::printf("\nFock sweep water2/6-31G (%llu quartets): "
              "direct %.1f ms, cached %.1f ms, speedup %.2fx\n",
              static_cast<unsigned long long>(sweep.quartets),
              sweep.direct_ms, sweep.cached_ms, sweep.speedup());

  const EriSplitResult split = eri_digest_split(builder, 15, seed);
  std::printf("ERI/digest split, same quartets, %d interleaved repeats "
              "(median [q1, q3] CPU ms):\n"
              "  ERI sweep  %7.1f [%7.1f, %7.1f]\n"
              "  full build %7.1f [%7.1f, %7.1f]\n"
              "  digest     %7.1f [%7.1f, %7.1f]\n",
              split.reps, split.eri_ms.median, split.eri_ms.q1,
              split.eri_ms.q3, split.build_ms.median, split.build_ms.q1,
              split.build_ms.q3, split.digest_ms.median, split.digest_ms.q1,
              split.digest_ms.q3);

  // perfbench scf-seq's build: which classes own the ERI time.
  const Molecule water4_molecule = make_water_cluster(4);
  const BasisSet water4 = BasisSet::build(water4_molecule, "6-31g*");
  const FockBuilder water4_builder(water4);
  constexpr int kMixReps = 5;
  const std::vector<MixClass> mix = class_mix(water4_builder, kMixReps);
  std::size_t mix_quartets = 0, mix_prims = 0;
  double mix_ms = 0.0;
  for (const MixClass& c : mix) {
    mix_quartets += c.quartets;
    mix_prims += c.prim_quartets;
    mix_ms += c.cpu_ms;
  }
  std::printf("\nClass mix of the water4/6-31G* build (%zu screened "
              "quartets, %zu primitive quartets after pruning, ERI %.1f "
              "CPU ms; batched calls as the build's windows make them; "
              "median of %d):\n"
              "%-9s %9s %11s %9s %10s %6s %11s\n",
              mix_quartets, mix_prims, mix_ms, kMixReps, "class", "quartets",
              "prim_quarts", "cpu_ms", "ns/prim", "share", "lanes/batch");
  for (const MixClass& c : mix) {
    std::printf("%-9s %9zu %11zu %9.2f %10.1f %5.1f%% %11.1f\n",
                c.name.c_str(), c.quartets, c.prim_quartets, c.cpu_ms,
                c.prim_quartet_ns(), 100.0 * c.cpu_ms / mix_ms,
                c.lanes_per_batch());
  }

  // The same system's SCF: how many quartets each incremental G build
  // evaluates as the density change shrinks (exact counts).
  IncrementalGBuilder incremental(water4_builder);
  const ScfResult scf = run_rhf_with_builder(water4_molecule, water4,
                                             std::ref(incremental));
  std::uint64_t scf_quartets = 0;
  std::printf("\nSCF of water4/6-31G* (incremental G builds): %d "
              "iterations, %s; quartets per iteration:\n ",
              scf.iterations, scf.converged ? "converged" : "NOT converged");
  for (const std::uint64_t q : incremental.quartets()) {
    std::printf(" %llu", static_cast<unsigned long long>(q));
    scf_quartets += q;
  }
  std::printf("\n  total %llu, against %zu per full build\n",
              static_cast<unsigned long long>(scf_quartets), mix_quartets);

  // The same SCF through the distributed builder, 2 ranks x 2 threads
  // under the static model (deterministic): the screen must make the
  // same decisions on every substrate, so the per-iteration quartet
  // counts are equal exactly and the energies agree to rounding.
  emc::pgas::Runtime runtime(2);
  emc::core::DistributedFockOptions dist_options;
  dist_options.model = emc::core::ExecModel::kStatic;
  dist_options.static_balancer = "lpt";
  dist_options.threads = 2;
  emc::core::DistributedFockBuilder dist_builder(water4, runtime,
                                                 dist_options);
  IncrementalGBuilder dist_incremental(dist_builder);
  const ScfResult dist_scf = run_rhf_with_builder(
      water4_molecule, water4, std::ref(dist_incremental));
  const bool dist_counts_equal =
      dist_incremental.quartets() == incremental.quartets();
  const double dist_energy_diff = std::abs(dist_scf.energy - scf.energy);
  const bool dist_ok = dist_counts_equal && dist_energy_diff <= 1e-10;
  std::printf("distributed SCF (2 ranks x 2 threads, static lpt): %d "
              "iterations, quartets per iteration %s, |dE| = %.1e Eh: %s\n",
              dist_scf.iterations, dist_counts_equal ? "equal" : "DIFFERENT",
              dist_energy_diff, dist_ok ? "ok" : "FAIL");

  const double rand_diff = random_quartet_max_diff(seed, 24);
  max_diff = std::max(max_diff, rand_diff);
  std::printf("randomized s/p/d quartet agreement: max |diff| = %.2e\n",
              rand_diff);

  const bool accuracy_ok = max_diff < 1e-10;
  const bool speed_ok = sweep.speedup() >= min_speedup;
  const bool passed = accuracy_ok && speed_ok && scf.converged && dist_ok;

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << json_path << "\n";
    return 1;
  }
  {
    emc::bench::JsonWriter json(out);
    json.begin_object();
    emc::bench::write_manifest(json, "bench_kernel", "smoke", seed);
    json.field("bench", "bench_kernel");
    json.field("mode", "smoke");
    json.field("seed", seed);
    json.begin_array("quartet_classes");
    for (const ClassResult& c : classes) {
      json.begin_object();
      json.field("class", c.name);
      json.field("prim_quartets", c.prim_quartets);
      json.field("direct_ns", c.direct_ns);
      json.field("cached_ns", c.cached_ns);
      json.field("speedup", c.speedup());
      json.field("max_diff", c.max_diff);
      json.end_object();
    }
    json.end_array();
    json.begin_object("fock_sweep");
    json.field("workload", "water2/6-31g");
    json.field("quartets", sweep.quartets);
    json.field("direct_ms", sweep.direct_ms);
    json.field("cached_ms", sweep.cached_ms);
    json.field("speedup", sweep.speedup());
    json.end_object();
    json.begin_object("eri_split");
    json.field("workload", "water2/6-31g");
    json.field("reps", split.reps);
    const std::pair<const char*, const Spread*> layers[] = {
        {"eri_ms", &split.eri_ms},
        {"build_ms", &split.build_ms},
        {"digest_ms", &split.digest_ms}};
    for (const auto& [name, spread] : layers) {
      json.begin_object(name);
      json.field("median", spread->median);
      json.field("q1", spread->q1);
      json.field("q3", spread->q3);
      json.end_object();
    }
    json.end_object();
    json.begin_object("class_mix");
    json.field("workload", "water4/6-31g*");
    json.field("quartets", mix_quartets);
    json.field("prim_quartets", mix_prims);
    json.field("eri_ms", mix_ms);
    json.begin_array("classes");
    for (const MixClass& c : mix) {
      json.begin_object();
      json.field("class", c.name);
      json.field("quartets", c.quartets);
      json.field("prim_quartets", c.prim_quartets);
      json.field("batches", c.batches);
      json.field("lanes_per_batch", c.lanes_per_batch());
      json.field("cpu_ms", c.cpu_ms);
      json.field("prim_quartet_ns", c.prim_quartet_ns());
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json.begin_object("scf_quartets");
    json.field("workload", "water4/6-31g*");
    json.field("converged", scf.converged);
    json.field("iterations", scf.iterations);
    json.field("total", scf_quartets);
    json.begin_array("per_iteration");
    for (const std::uint64_t q : incremental.quartets()) {
      json.value(static_cast<double>(q));
    }
    json.end_array();
    json.end_object();
    json.begin_object("checks");
    json.field("max_abs_diff", max_diff);
    json.field("min_speedup_gate", min_speedup);
    json.field("accuracy_ok", accuracy_ok);
    json.field("passed", passed);
    json.end_object();
    emc::bench::write_run_footer(json);
    json.end_object();
  }
  out.close();
  std::cout << "wrote " << json_path << "\n";

  if (const std::string bad = emc::bench::validate_report(json_path);
      !bad.empty()) {
    std::cerr << "FAIL: " << bad << "\n";
    return 1;
  }

  if (!accuracy_ok) {
    std::cerr << "FAIL: cached kernel disagrees with the direct kernel ("
              << max_diff << " > 1e-10)\n";
    return 1;
  }
  if (!speed_ok) {
    std::cerr << "FAIL: Fock-sweep speedup " << sweep.speedup()
              << "x below the regression gate " << min_speedup << "x\n";
    return 1;
  }
  if (!scf.converged) {
    std::cerr << "FAIL: the water4/6-31G* SCF did not converge\n";
    return 1;
  }
  if (!dist_ok) {
    std::cerr << "FAIL: the distributed water4/6-31G* SCF differs from "
                 "the sequential one (quartets per iteration or energy)\n";
    return 1;
  }
  std::cout << "smoke PASSED\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --calibrate: re-fit the analytic cost-model constants
// ---------------------------------------------------------------------------

int run_calibrate() {
  struct Workload {
    std::string molecule, basis;
  };
  const std::vector<Workload> workloads{{"water2", "sto-3g"},
                                        {"water2", "6-31g"},
                                        {"water", "6-31g*"},
                                        {"alkane4", "sto-3g"}};

  std::vector<std::vector<double>> features;  // [1, scan, nq, prim, prim_fn]
  std::vector<double> measured;
  // Tasks that Schwarz screening empties measure dispatch + scan alone:
  // the direct check of the fitted fixed terms.
  std::vector<double> empty_task_ns;

  for (const Workload& w : workloads) {
    emc::core::TaskModelOptions opts;
    opts.basis_name = w.basis;
    opts.measure_costs = true;
    const emc::core::TaskModel model =
        emc::core::build_task_model(w.molecule, opts);
    const FockBuilder builder(model.basis);
    for (std::size_t t = 0; t < model.task_count(); ++t) {
      const TaskCostFeatures f = builder.task_cost_features(model.tasks[t]);
      features.push_back({1.0, f.scan, f.quartets, f.prim_quartets,
                          f.prim_fn});
      measured.push_back(model.costs[t]);
      if (f.quartets == 0.0) empty_task_ns.push_back(model.costs[t] * 1e9);
    }
    std::cout << w.molecule << "/" << w.basis << ": " << model.task_count()
              << " tasks measured\n";
  }

  // Non-negative least squares (src/linalg/lstsq.hpp): active-set
  // elimination drops collinear or negative-weight features rather than
  // clamping, so the redistributed weight of a collinear feature (scan
  // vs quartets) never strands in the intercept. Each row is divided by
  // its measured time, so the fit minimizes relative error: unweighted,
  // the few largest tasks own the residual and the intercept soaks up
  // their misfit (tens of microseconds of "dispatch" against the ~0.2 us
  // a fully screened task measures).
  const std::size_t dim = 5;
  std::vector<std::vector<double>> rows = features;
  std::vector<double> ones(measured.size(), 1.0);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (double& x : rows[t]) x /= measured[t];
  }
  const emc::linalg::LstsqResult fit = emc::linalg::nnls(rows, ones);
  const std::vector<double>& c = fit.coefficients;
  for (const std::size_t dropped : fit.dropped) {
    std::cout << "  (dropped non-resolvable feature " << dropped << ")\n";
  }

  const double unit = c[4];  // seconds per prim-quartet-function unit
  std::cout << "\nfitted (seconds): dispatch " << c[0] << ", per-scan "
            << c[1] << ", per-quartet " << c[2] << ", per-prim-quartet "
            << c[3] << ", per-prim-fn " << c[4] << "\n";
  std::cout << "model constants (prim-fn units):\n"
            << "  kTaskDispatch   = " << c[0] / unit << "\n"
            << "  kKetScanPerPair = " << c[1] / unit << "\n"
            << "  kPerQuartet     = " << c[2] / unit << "\n"
            << "  kPerPrimQuartet = " << c[3] / unit << "\n"
            << "  analytic_cost_scale (s/unit) = " << unit << "\n";

  // Quality of the re-fitted model on the pooled sample.
  std::vector<double> estimated;
  estimated.reserve(features.size());
  for (const auto& f : features) {
    double e = 0.0;
    for (std::size_t i = 0; i < dim; ++i) e += c[i] * f[i];
    estimated.push_back(e / unit);
  }
  const auto report = emc::core::calibrate_cost_model(estimated, measured);
  if (!empty_task_ns.empty()) {
    std::cout << "fully screened tasks (" << empty_task_ns.size()
              << "): median " << emc::percentile(empty_task_ns, 0.5)
              << " ns measured, dispatch + scan\n";
  }
  std::cout << "fit quality: pearson " << report.pearson << ", spearman "
            << report.spearman << ", scale " << report.scale << " s/unit ("
            << report.samples << " samples)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernel.json";
  double min_speedup = 3.0;
  std::int64_t seed = 12345;
  bool smoke = false, calibrate = false;

  emc::Cli cli("bench_kernel", "ERI kernel gates and cost-model calibration");
  cli.add_flag("smoke", '\0', "seed-vs-cached accuracy + speedup gate",
               &smoke);
  cli.add_flag("calibrate", '\0', "re-fit the task-cost model", &calibrate);
  cli.add_string("json", '\0', "smoke JSON report path", &json_path);
  cli.add_double("min-speedup", '\0', "smoke speedup floor", &min_speedup);
  cli.add_int("seed", '\0', "smoke workload seed", &seed);
  if (!cli.parse(argc, argv)) return 2;

  if (calibrate) return run_calibrate();
  if (smoke) {
    return run_smoke(json_path, min_speedup, static_cast<std::uint64_t>(seed));
  }
  std::cerr << "bench_kernel: pass --smoke or --calibrate\n"
            << cli.help_text();
  return 2;
}
