// End-to-end tests of the GA-style distributed Fock builder: every
// execution model must reproduce the sequential SCF exactly (the same
// incremental G builds, the same screen decisions), and its execution
// statistics must be coherent.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>

#include "chem/scf.hpp"
#include "core/distributed_fock.hpp"
#include "pgas/runtime.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;
using core::DistributedFockBuilder;
using core::DistributedFockOptions;
using core::ExecModel;

class DistributedFockTest : public ::testing::Test {
 protected:
  DistributedFockTest()
      : mol(chem::make_water()),
        basis(chem::BasisSet::build(mol, "sto-3g")),
        reference(chem::run_rhf(mol, basis)) {}

  /// The incremental SCF through `builder`, as run_rhf runs it.
  chem::ScfResult incremental_scf(DistributedFockBuilder& builder) const {
    chem::IncrementalGBuilder g(builder);
    return chem::run_rhf_with_builder(mol, basis, std::ref(g));
  }

  chem::Molecule mol;
  chem::BasisSet basis;
  chem::ScfResult reference;
};

TEST_F(DistributedFockTest, StaticModelMatchesSequential) {
  pgas::Runtime runtime(3);
  DistributedFockOptions options;
  options.model = ExecModel::kStatic;
  options.static_balancer = "lpt";
  DistributedFockBuilder builder(basis, runtime, options);
  const chem::ScfResult r = incremental_scf(builder);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, reference.energy, 1e-10);
  EXPECT_EQ(builder.builds(), r.iterations);
}

TEST_F(DistributedFockTest, CounterModelMatchesSequential) {
  pgas::Runtime runtime(4);
  DistributedFockOptions options;
  options.model = ExecModel::kCounter;
  options.counter_chunk = 2;
  DistributedFockBuilder builder(basis, runtime, options);
  const chem::ScfResult r = incremental_scf(builder);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, reference.energy, 1e-10);
  EXPECT_GT(builder.last_stats().ranks[0].counter_ops, 0);
}

TEST_F(DistributedFockTest, WorkStealingModelMatchesSequential) {
  pgas::Runtime runtime(4);
  DistributedFockOptions options;
  options.model = ExecModel::kWorkStealing;
  DistributedFockBuilder builder(basis, runtime, options);
  const chem::ScfResult r = incremental_scf(builder);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, reference.energy, 1e-10);
}

TEST_F(DistributedFockTest, StatsAccountForAllTasks) {
  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime);
  const auto n = static_cast<std::size_t>(basis.function_count());
  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) density(i, i) = 1.0;

  builder.build_g(density);
  const std::size_t n_shells = basis.shell_count();
  EXPECT_EQ(builder.last_stats().total_tasks(),
            static_cast<std::int64_t>(n_shells * (n_shells + 1) / 2));
  EXPECT_EQ(builder.builds(), 1);
}

TEST_F(DistributedFockTest, PhaseMetricsAccountForEveryBuild) {
  // With a registry attached, each build times its three GA phases (get
  // P, execute the tasks, accumulate J/K) into gauges: the record of
  // where a real Fock build's time goes.
  util::MetricsRegistry registry;
  DistributedFockOptions options;
  options.metrics = &registry;
  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime, options);
  const auto n = static_cast<std::size_t>(basis.function_count());
  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) density(i, i) = 1.0;

  const double wall = timed_seconds([&] {
    builder.build_g(density);
    builder.build_g(density);
  });
  EXPECT_EQ(registry.counter("fock/builds").value(), 2);
  EXPECT_EQ(registry.counter("fock/tasks").value(),
            2 * builder.last_stats().total_tasks());
  double phases = 0.0;
  for (const char* name :
       {"fock/phase_get_seconds", "fock/phase_execute_seconds",
        "fock/phase_accumulate_seconds"}) {
    const double s = registry.gauge(name).value();
    EXPECT_GT(s, 0.0) << name;
    phases += s;
  }
  EXPECT_LE(phases, wall);
}

TEST_F(DistributedFockTest, GMatrixIdenticalAcrossModels) {
  const auto n = static_cast<std::size_t>(basis.function_count());
  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      density(i, j) = (i == j ? 1.0 : 0.03);
    }
  }

  pgas::Runtime runtime(3);
  linalg::Matrix results[3];
  const ExecModel models[] = {ExecModel::kStatic, ExecModel::kCounter,
                              ExecModel::kWorkStealing};
  for (int m = 0; m < 3; ++m) {
    DistributedFockOptions options;
    options.model = models[m];
    DistributedFockBuilder builder(basis, runtime, options);
    results[m] = builder.build_g(density);
  }
  EXPECT_TRUE(results[0].almost_equal(results[1], 1e-11));
  EXPECT_TRUE(results[1].almost_equal(results[2], 1e-11));
}

TEST_F(DistributedFockTest, RejectsUnknownBalancer) {
  // Bad options fail at construction, not on the first build.
  pgas::Runtime runtime(2);
  DistributedFockOptions options;
  options.model = ExecModel::kStatic;
  options.static_balancer = "voodoo";
  EXPECT_THROW(DistributedFockBuilder(basis, runtime, options),
               std::invalid_argument);
}

TEST_F(DistributedFockTest, RejectsNonPositiveChunks) {
  pgas::Runtime runtime(2);
  for (const std::int64_t chunk : {0, -3}) {
    DistributedFockOptions counter;
    counter.model = ExecModel::kCounter;
    counter.counter_chunk = chunk;
    EXPECT_THROW(DistributedFockBuilder(basis, runtime, counter),
                 std::invalid_argument);
    DistributedFockOptions intra;
    intra.model = ExecModel::kStatic;
    intra.intra_policy = core::IntraPolicy::kCounter;
    intra.intra_chunk = chunk;
    EXPECT_THROW(DistributedFockBuilder(basis, runtime, intra),
                 std::invalid_argument);
  }
}

TEST_F(DistributedFockTest, RejectsWrongDensityShape) {
  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime);
  EXPECT_THROW(builder.build_g(linalg::Matrix(2, 2)),
               std::invalid_argument);
}

TEST_F(DistributedFockTest, RejectsAsymmetricDensity) {
  // The digest folds each quartet's symmetry orbit assuming D = D^T.
  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime);
  const auto n = static_cast<std::size_t>(basis.function_count());
  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) density(i, i) = 1.0;
  density(0, 1) = 1e-9;
  EXPECT_THROW(builder.build_g(density), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Hybrid ranks × threads determinism suite. The contract (DESIGN.md
// "Hybrid execution"): for any deterministic task→rank assignment —
// the static model, or any model at 1 rank — the G matrix is BITWISE
// identical across thread counts, intra-rank policies and scheduling
// interleavings. 2 static ranks keep the
// cross-rank accumulate bitwise-commutative, so the whole pipeline is
// exact end to end.

using core::IntraPolicy;

class HybridFockTest : public DistributedFockTest {
 protected:
  linalg::Matrix make_density() const {
    const auto n = static_cast<std::size_t>(basis.function_count());
    linalg::Matrix density(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        density(i, j) = (i == j ? 1.0 : 0.03);
      }
    }
    return density;
  }

  static bool bitwise_equal(const linalg::Matrix& a,
                            const linalg::Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(double)) == 0;
  }

  static const char* intra_name(IntraPolicy p) {
    switch (p) {
      case IntraPolicy::kStatic: return "static";
      case IntraPolicy::kCounter: return "counter";
      case IntraPolicy::kWorkStealing: return "ws";
    }
    return "?";
  }
};

TEST_F(HybridFockTest, BitwiseIdenticalAcrossThreadsAndIntraPolicies) {
  const linalg::Matrix density = make_density();
  const std::size_t n = density.rows();

  // Reference: the classic serial-per-rank loop.
  DistributedFockOptions ref_options;
  ref_options.model = ExecModel::kStatic;
  ref_options.static_balancer = "lpt";
  ref_options.threads = 1;
  pgas::Runtime ref_runtime(2);
  DistributedFockBuilder ref_builder(basis, ref_runtime, ref_options);
  const linalg::Matrix g_ref = ref_builder.build_g(density);
  const std::int64_t n_tasks = ref_builder.last_stats().total_tasks();

  for (const int threads : {1, 2, 8}) {
    for (const IntraPolicy intra :
         {IntraPolicy::kStatic, IntraPolicy::kCounter,
          IntraPolicy::kWorkStealing}) {
      DistributedFockOptions options = ref_options;
      options.threads = threads;
      options.intra_policy = intra;
      options.intra_chunk = 2;
      pgas::Runtime runtime(2);
      DistributedFockBuilder builder(basis, runtime, options);
      const linalg::Matrix g = builder.build_g(density);
      EXPECT_TRUE(bitwise_equal(g_ref, g))
          << "threads=" << threads << " intra=" << intra_name(intra);
      // Stats stay in TASK units whatever the slot scheduling did.
      EXPECT_EQ(builder.last_stats().total_tasks(), n_tasks)
          << "threads=" << threads << " intra=" << intra_name(intra);
    }
  }
  ASSERT_EQ(g_ref.rows(), n);  // silences unused-variable pedantry
}

TEST_F(HybridFockTest, SingleRankBitwiseIdenticalAcrossInterModels) {
  // At 1 rank every inter model degenerates to "this rank executes all
  // slots", so even counter and work stealing must be bitwise stable
  // across thread counts — the tree grouping is all that matters.
  const linalg::Matrix density = make_density();
  linalg::Matrix reference;
  bool have_reference = false;
  for (const ExecModel model :
       {ExecModel::kStatic, ExecModel::kCounter, ExecModel::kWorkStealing}) {
    for (const int threads : {1, 2, 8}) {
      DistributedFockOptions options;
      options.model = model;
      options.threads = threads;
      options.intra_policy = IntraPolicy::kWorkStealing;
      pgas::Runtime runtime(1);
      DistributedFockBuilder builder(basis, runtime, options);
      const linalg::Matrix g = builder.build_g(density);
      if (!have_reference) {
        reference = g;
        have_reference = true;
        continue;
      }
      EXPECT_TRUE(bitwise_equal(reference, g))
          << "model=" << static_cast<int>(model) << " threads=" << threads;
    }
  }
}

TEST_F(HybridFockTest, HybridScfMatchesSequentialAndCountsCounterOps) {
  // Full SCF through the hybrid path: threads + intra counter under the
  // global-counter inter model (R·T contenders on one nxtval).
  pgas::Runtime runtime(2);
  DistributedFockOptions options;
  options.model = ExecModel::kCounter;
  options.counter_chunk = 2;
  options.threads = 4;
  options.intra_policy = IntraPolicy::kCounter;
  DistributedFockBuilder builder(basis, runtime, options);
  const chem::ScfResult r = incremental_scf(builder);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, reference.energy, 1e-10);
  EXPECT_GT(builder.last_stats().ranks[0].counter_ops, 0);
}

TEST_F(HybridFockTest, ReductionBufferPoolStaysBounded) {
  // The pool must grow with threads + log2(slots), NOT with
  // ranks · slots — the memory fix over the old 3·ranks·n² replicas.
  const linalg::Matrix density = make_density();
  util::MetricsRegistry registry;
  DistributedFockOptions options;
  options.model = ExecModel::kStatic;
  options.threads = 4;
  options.intra_policy = IntraPolicy::kWorkStealing;
  options.metrics = &registry;
  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime, options);
  builder.build_g(density);
  builder.build_g(density);  // second build reuses, never regrows
  const double buffers =
      registry.gauge("fock/reduction_buffers").value();
  const auto slots = static_cast<double>(builder.slot_count());
  EXPECT_GT(buffers, 0.0);
  EXPECT_LT(buffers, 2.0 * (4 + std::log2(slots + 1) + 1) + 4.0)
      << "pool grew beyond the ranks·(threads + log2 slots) envelope";
}

TEST_F(HybridFockTest, RejectsNonPositiveThreads) {
  pgas::Runtime runtime(2);
  DistributedFockOptions options;
  options.threads = 0;
  EXPECT_THROW(DistributedFockBuilder builder(basis, runtime, options),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Pinned digests. Every other check here compares one combo against a
// reference built by the same binary, so a change that moved the slot
// or tree order for EVERY combo at once would pass them all. These pin
// the bytes of G (FNV-1a 64) of each deterministic cell to the values
// the scheduler produced when they were recorded.

std::uint64_t fnv1a(const linalg::Matrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < m.rows() * m.cols() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

struct PinnedCell {
  ExecModel model;
  IntraPolicy intra;
  int threads;
  int ranks;
  std::uint64_t digest;
};

// Water/STO-3G, make_density(), lpt balancer. Every static cell at a
// given rank count shares one G; so do the 1-rank dynamic cells.
constexpr std::uint64_t kClean1 = 0x86ec6ac4edc0e2d0ULL;  // 1 rank
constexpr std::uint64_t kClean2 = 0x1c9308266e9cdd45ULL;  // 2 ranks

std::vector<PinnedCell> pinned_cells() {
  std::vector<PinnedCell> cells;
  const IntraPolicy intras[] = {IntraPolicy::kStatic, IntraPolicy::kCounter,
                                IntraPolicy::kWorkStealing};
  for (const int ranks : {1, 2}) {
    for (const IntraPolicy intra : intras) {
      for (const int threads : {1, 2, 8}) {
        cells.push_back({ExecModel::kStatic, intra, threads, ranks,
                         ranks == 1 ? kClean1 : kClean2});
      }
    }
  }
  for (const ExecModel model :
       {ExecModel::kCounter, ExecModel::kWorkStealing}) {
    for (const int threads : {1, 2, 8}) {
      cells.push_back({model, IntraPolicy::kStatic, threads, 1, kClean1});
    }
  }
  return cells;
}

TEST_F(HybridFockTest, PinnedDigestsOfDeterministicCells) {
  const linalg::Matrix density = make_density();
  for (const PinnedCell& cell : pinned_cells()) {
    DistributedFockOptions options;
    options.model = cell.model;
    options.intra_policy = cell.intra;
    options.threads = cell.threads;
    options.static_balancer = "lpt";
    options.intra_chunk = 2;
    pgas::Runtime runtime(cell.ranks);
    DistributedFockBuilder builder(basis, runtime, options);
    const std::uint64_t digest = fnv1a(builder.build_g(density));
    const std::string where =
        "model=" + std::to_string(static_cast<int>(cell.model)) +
        " intra=" + intra_name(cell.intra) +
        " threads=" + std::to_string(cell.threads) +
        " ranks=" + std::to_string(cell.ranks);
    EXPECT_EQ(digest, cell.digest) << where << " digest=0x" << std::hex
                                   << digest;
  }
}

// Seeded randomized differential harness: random ranks × threads ×
// inter/intra pair × chunks × balancer must reproduce the
// sequential FockBuilder's G and account for every task.
TEST_F(HybridFockTest, RandomizedDifferentialAgainstSequential) {
  const linalg::Matrix density = make_density();
  const chem::FockBuilder sequential(basis);
  const linalg::Matrix g_ref = sequential.build_g(density);
  const auto n_tasks =
      static_cast<std::int64_t>(sequential.make_tasks().size());
  const ExecModel models[] = {ExecModel::kStatic, ExecModel::kCounter,
                              ExecModel::kWorkStealing};
  const IntraPolicy intras[] = {IntraPolicy::kStatic, IntraPolicy::kCounter,
                                IntraPolicy::kWorkStealing};
  const char* balancers[] = {"block", "cyclic", "lpt"};
  // Fixed leading inputs: both fully dynamic combos at 2 ranks x 8
  // threads, where cross-rank accumulate order is racy and only
  // closeness is promised. They draw nothing from rng, so the seeded
  // trials see the same inputs with or without them.
  constexpr int kFixed = 2;
  const ExecModel fixed_models[kFixed] = {ExecModel::kCounter,
                                          ExecModel::kWorkStealing};
  const IntraPolicy fixed_intras[kFixed] = {IntraPolicy::kCounter,
                                            IntraPolicy::kWorkStealing};
  emc::Rng rng(20240917);
  for (int trial = -kFixed; trial < 27; ++trial) {
    DistributedFockOptions options;
    int ranks = 2;
    if (trial < 0) {
      options.model = fixed_models[trial + kFixed];
      options.intra_policy = fixed_intras[trial + kFixed];
      options.threads = 8;
      options.intra_chunk = 2;
    } else {
      options.model = models[trial % 3];
      options.intra_policy = intras[(trial / 3) % 3];
      ranks = 1 + static_cast<int>(rng.below(3));
      options.threads = 1 << rng.below(3);
      options.counter_chunk = 1 + static_cast<std::int64_t>(rng.below(4));
      options.intra_chunk = 1 + static_cast<std::int64_t>(rng.below(4));
      options.static_balancer = balancers[rng.below(3)];
      options.steal.seed = rng();
    }
    pgas::Runtime runtime(ranks);
    DistributedFockBuilder builder(basis, runtime, options);
    const linalg::Matrix g = builder.build_g(density);
    const std::string where =
        "trial=" + std::to_string(trial) +
        " model=" + std::to_string(static_cast<int>(options.model)) +
        " intra=" + intra_name(options.intra_policy) +
        " ranks=" + std::to_string(ranks) +
        " threads=" + std::to_string(options.threads);
    EXPECT_TRUE(g.almost_equal(g_ref, 1e-10)) << where;
    EXPECT_EQ(builder.last_stats().total_tasks(), n_tasks) << where;
  }
}

// ---------------------------------------------------------------------
// The distributed increment: the density screen through the slot loop.
// Its table is built once per build from the caller's density, so the
// screen decisions, and with them the quartet counts, are the same on
// every rank, thread, policy and substrate.

/// `base` plus a symmetric perturbation whose elements span six decades
/// below `scale`, so the density screen skips some quartets and keeps
/// others.
linalg::Matrix perturbed(const linalg::Matrix& base, double scale,
                         std::uint64_t seed) {
  emc::Rng rng(seed);
  linalg::Matrix d = base;
  for (std::size_t r = 0; r < d.rows(); ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      const double x = scale * std::pow(10.0, -rng.uniform(0.0, 6.0)) *
                       rng.uniform(-1.0, 1.0);
      d(r, c) += x;
      if (c != r) d(c, r) += x;
    }
  }
  return d;
}

TEST_F(HybridFockTest, ScreenedBuildsBitwiseAcrossThreadsAndIntraPolicies) {
  const linalg::Matrix d1 = make_density();
  const linalg::Matrix d2 = perturbed(d1, 1e-3, 1);
  const linalg::Matrix d3 = perturbed(d2, 1e-8, 2);
  linalg::Matrix delta = d3;
  delta -= d2;
  struct Run {
    linalg::Matrix screened;
    std::uint64_t screened_quartets = 0;
    std::vector<linalg::Matrix> steps;
    std::vector<std::uint64_t> step_quartets;
  };
  auto run = [&](int threads, IntraPolicy intra) {
    DistributedFockOptions options;
    options.model = ExecModel::kStatic;
    options.static_balancer = "lpt";
    options.threads = threads;
    options.intra_policy = intra;
    options.intra_chunk = 2;
    pgas::Runtime runtime(2);
    DistributedFockBuilder builder(basis, runtime, options);
    Run out;
    out.screened =
        builder.build_g(delta, chem::Screen::kDensity, &out.screened_quartets);
    chem::IncrementalGBuilder g(builder);
    for (const linalg::Matrix* d : {&d1, &d2, &d3}) out.steps.push_back(g(*d));
    out.step_quartets = g.quartets();
    return out;
  };
  const Run ref = run(1, IntraPolicy::kStatic);
  // The screen skips something at the last, smallest step.
  const chem::FockBuilder sequential(basis);
  std::uint64_t schwarz_quartets = 0;
  sequential.build_g(delta, chem::Screen::kSchwarz, &schwarz_quartets);
  EXPECT_GT(ref.screened_quartets, 0u);
  EXPECT_LT(ref.screened_quartets, schwarz_quartets);
  EXPECT_EQ(ref.step_quartets.back(), ref.screened_quartets);
  for (const int threads : {1, 2, 4}) {
    for (const IntraPolicy intra :
         {IntraPolicy::kStatic, IntraPolicy::kCounter,
          IntraPolicy::kWorkStealing}) {
      const std::string where = "threads=" + std::to_string(threads) +
                                " intra=" + intra_name(intra);
      const Run r = run(threads, intra);
      EXPECT_TRUE(bitwise_equal(ref.screened, r.screened)) << where;
      EXPECT_EQ(ref.screened_quartets, r.screened_quartets) << where;
      ASSERT_EQ(r.steps.size(), 3u) << where;
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(bitwise_equal(ref.steps[i], r.steps[i]))
            << where << " step " << i;
      }
      EXPECT_EQ(ref.step_quartets, r.step_quartets) << where;
    }
  }
}

TEST_F(HybridFockTest, ZeroDensityChangeEvaluatesNoQuartets) {
  // Twin of the sequential DensityScreenTest case.
  pgas::Runtime runtime(2);
  DistributedFockOptions options;
  options.threads = 2;
  DistributedFockBuilder builder(basis, runtime, options);
  const auto n = static_cast<std::size_t>(basis.function_count());
  std::uint64_t quartets = 1;
  const linalg::Matrix g =
      builder.build_g(linalg::Matrix(n, n), chem::Screen::kDensity, &quartets);
  EXPECT_EQ(quartets, 0u);
  EXPECT_EQ(g.max_abs(), 0.0);

  // Repeating a density adds nothing: the same G, bit for bit.
  const linalg::Matrix d = make_density();
  chem::IncrementalGBuilder incremental(builder);
  const linalg::Matrix first = incremental(d);
  const linalg::Matrix again = incremental(d);
  ASSERT_EQ(incremental.quartets().size(), 2u);
  EXPECT_GT(incremental.quartets()[0], 0u);
  EXPECT_EQ(incremental.quartets()[1], 0u);
  EXPECT_TRUE(bitwise_equal(first, again));
}

TEST_F(HybridFockTest, QuartetCounterSumsTheScfBuilds) {
  util::MetricsRegistry registry;
  DistributedFockOptions options;
  options.threads = 2;
  options.metrics = &registry;
  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime, options);
  chem::IncrementalGBuilder g(builder);
  const chem::ScfResult r = chem::run_rhf_with_builder(mol, basis, std::ref(g));
  ASSERT_TRUE(r.converged);
  const std::uint64_t total = std::accumulate(
      g.quartets().begin(), g.quartets().end(), std::uint64_t{0});
  EXPECT_GT(total, 0u);
  EXPECT_EQ(registry.counter("fock/quartets").value(),
            static_cast<std::int64_t>(total));
}

/// Water2/6-31G*: d shells and a density screen that bites.
class DistributedIncrementTest : public ::testing::Test {
 protected:
  DistributedIncrementTest()
      : mol(chem::make_water_cluster(2)),
        basis(chem::BasisSet::build(mol, "6-31g*")) {}

  static DistributedFockOptions two_threads() {
    DistributedFockOptions options;
    options.threads = 2;
    return options;
  }

  chem::Molecule mol;
  chem::BasisSet basis;
};

TEST_F(DistributedIncrementTest, IncrementMatchesSequentialAtEveryIteration) {
  // The sequential SCF's densities, replayed through the distributed
  // builder: each increment G(P_i) - G(P_{i-1}) agrees with the
  // sequential one and evaluates the same quartets.
  const chem::FockBuilder sequential(basis);
  chem::IncrementalGBuilder seq_g(sequential);
  std::vector<linalg::Matrix> densities, seq_steps;
  const chem::ScfResult r = chem::run_rhf_with_builder(
      mol, basis, [&](const linalg::Matrix& p) {
        densities.push_back(p);
        seq_steps.push_back(seq_g(p));
        return seq_steps.back();
      });
  ASSERT_TRUE(r.converged);

  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime, two_threads());
  chem::IncrementalGBuilder g(builder);
  linalg::Matrix seq_prev(seq_steps[0].rows(), seq_steps[0].cols());
  linalg::Matrix prev = seq_prev;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    const linalg::Matrix step = g(densities[i]);
    linalg::Matrix increment = step, seq_increment = seq_steps[i];
    increment -= prev;
    seq_increment -= seq_prev;
    EXPECT_TRUE(increment.almost_equal(seq_increment, 1e-10))
        << "iteration " << i;
    prev = step;
    seq_prev = seq_steps[i];
  }
  EXPECT_EQ(g.quartets(), seq_g.quartets());
}

TEST_F(DistributedIncrementTest, IncrementalScfMatchesFullBuildScf) {
  pgas::Runtime runtime(2);
  DistributedFockBuilder builder(basis, runtime, two_threads());
  chem::IncrementalGBuilder g(builder);
  const chem::ScfResult incremental =
      chem::run_rhf_with_builder(mol, basis, std::ref(g));
  const chem::ScfResult full = chem::run_rhf_with_builder(
      mol, basis, [&](const linalg::Matrix& p) { return builder.build_g(p); });
  EXPECT_TRUE(incremental.converged);
  EXPECT_EQ(incremental.iterations, full.iterations);
  EXPECT_NEAR(incremental.energy, full.energy, 1e-9);
  // The density change shrinks, so the last build screens more.
  EXPECT_LT(g.quartets().back(), g.quartets().front());
}

}  // namespace
