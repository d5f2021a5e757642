#include "core/distributed_fock.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "exec/tree_reduction.hpp"
#include "lb/simple.hpp"
#include "util/timer.hpp"

namespace emc::core {

namespace {

/// Upper bound on reduction slots per build. The task list is cut into
/// at most this many contiguous cost-balanced ranges — the unit of
/// scheduling AND of the deterministic tree reduction. The cut depends
/// only on the task list and this value, never on ranks/threads/policy:
/// that is the determinism anchor. More slots = finer dynamic balancing
/// but more buffer traffic; 64 is plenty for the paper's task counts.
constexpr std::int64_t kMaxSlots = 64;

}  // namespace

JkBuffer* JkBufferPool::acquire() {
  JkBuffer* buffer = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      buffer = free_.back();
      free_.pop_back();
    }
  }
  if (buffer == nullptr) {
    auto owned = std::make_unique<JkBuffer>();
    owned->j = linalg::Matrix(n_, n_);  // fresh matrices are zero
    owned->k = linalg::Matrix(n_, n_);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mutex_);
    storage_.push_back(std::move(owned));
    return buffer;
  }
  // Recycled buffer: zero outside the lock.
  std::fill(buffer->j.data(), buffer->j.data() + n_ * n_, 0.0);
  std::fill(buffer->k.data(), buffer->k.data() + n_ * n_, 0.0);
  return buffer;
}

void JkBufferPool::release(JkBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(buffer);
}

std::size_t JkBufferPool::allocated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return storage_.size();
}

DistributedFockBuilder::DistributedFockBuilder(
    const chem::BasisSet& basis, pgas::Runtime& runtime,
    DistributedFockOptions options)
    : basis_(&basis), runtime_(&runtime), options_(std::move(options)),
      fock_(basis), tasks_(fock_.make_tasks()),
      schedule_{options_.model, options_.intra_policy, options_.counter_chunk,
                options_.intra_chunk, options_.steal},
      scheduler_(runtime, options_.threads),
      buffer_pool_(static_cast<std::size_t>(basis.function_count())) {
  schedule_.validate();
  make_slots();
  slot_home_ = slot_assignment();
  if (options_.metrics != nullptr) attach_metrics();
}

void DistributedFockBuilder::make_slots() {
  const auto n_tasks = static_cast<std::int64_t>(tasks_.size());
  slots_.clear();
  slot_costs_.clear();
  if (n_tasks == 0) return;
  const std::int64_t n_slots = std::min(kMaxSlots, n_tasks);
  std::vector<double> costs(static_cast<std::size_t>(n_tasks));
  double total = 0.0;
  for (std::int64_t t = 0; t < n_tasks; ++t) {
    costs[static_cast<std::size_t>(t)] =
        fock_.estimate_task_cost(tasks_[static_cast<std::size_t>(t)]);
    total += costs[static_cast<std::size_t>(t)];
  }
  // Greedy cost-balanced cut into exactly n_slots contiguous non-empty
  // ranges. Depends only on the task list and kMaxSlots — never on
  // ranks, threads, or policy — so the reduction-tree leaf set is a
  // fixed function of the problem (the bitwise-determinism anchor).
  slots_.reserve(static_cast<std::size_t>(n_slots));
  slot_costs_.reserve(static_cast<std::size_t>(n_slots));
  std::int64_t first = 0;
  double acc = 0.0;
  double slot_cost = 0.0;
  for (std::int64_t t = 0; t < n_tasks; ++t) {
    acc += costs[static_cast<std::size_t>(t)];
    slot_cost += costs[static_cast<std::size_t>(t)];
    const std::int64_t tasks_left = n_tasks - t - 1;
    const std::int64_t slots_left =
        n_slots - static_cast<std::int64_t>(slots_.size()) - 1;
    const bool quota =
        slots_left > 0 &&
        acc >= total * static_cast<double>(slots_.size() + 1) /
                   static_cast<double>(n_slots);
    if (tasks_left == 0 || tasks_left == slots_left || quota) {
      slots_.emplace_back(first, t + 1);
      slot_costs_.push_back(slot_cost);
      first = t + 1;
      slot_cost = 0.0;
    }
  }
}

void DistributedFockBuilder::attach_metrics() {
  util::MetricsRegistry& reg = *options_.metrics;
  runtime_->set_metrics(&reg);
  metrics_.builds = &reg.counter("fock/builds");
  metrics_.tasks = &reg.counter("fock/tasks");
  metrics_.quartets = &reg.counter("fock/quartets");
  metrics_.phase_get = &reg.gauge("fock/phase_get_seconds");
  metrics_.phase_execute = &reg.gauge("fock/phase_execute_seconds");
  metrics_.phase_accumulate = &reg.gauge("fock/phase_accumulate_seconds");
  metrics_.reduction_buffers = &reg.gauge("fock/reduction_buffers");

  reg.gauge("fock/reduction_slots")
      .set(static_cast<double>(slots_.size()));

  // Shell-pair cache inventory: entries and primitive pairs held.
  const chem::ShellPairList& pairs = fock_.shell_pairs();
  std::int64_t prim_pairs = 0;
  const int n_shells = static_cast<int>(basis_->shell_count());
  for (int i = 0; i < n_shells; ++i) {
    for (int j = 0; j <= i; ++j) {
      prim_pairs += static_cast<std::int64_t>(pairs.pair(i, j).prims.size());
    }
  }
  reg.gauge("fock/shell_pair_cache_entries")
      .set(static_cast<double>(pairs.size()));
  reg.gauge("fock/shell_pair_cache_prim_pairs")
      .set(static_cast<double>(prim_pairs));
}

lb::Assignment DistributedFockBuilder::slot_assignment() const {
  const int ranks = runtime_->size();
  if (options_.static_balancer == "block") {
    return lb::block_assignment(slots_.size(), ranks);
  }
  if (options_.static_balancer == "cyclic") {
    return lb::cyclic_assignment(slots_.size(), ranks);
  }
  if (options_.static_balancer == "lpt") {
    return lb::lpt_assignment(slot_costs_, ranks);
  }
  throw std::invalid_argument(
      "DistributedFockBuilder: unknown static balancer '" +
      options_.static_balancer + "'");
}

exec::ExecutionStats DistributedFockBuilder::run_hybrid(
    const std::vector<linalg::Matrix>& density,
    const linalg::Matrix* block_max,
    std::vector<std::uint64_t>& slot_quartets,
    std::vector<JkBuffer*>& rank_roots) {
  const int ranks = runtime_->size();
  const auto n_slots = static_cast<std::int64_t>(slots_.size());
  rank_roots.assign(static_cast<std::size_t>(ranks), nullptr);

  // Per-rank reduction trees over the FULL slot index space. Leaves a
  // rank did not execute are completed empty after its loop drains, so
  // the tree shape — and therefore the grouping of the rank's partial
  // sum — is a pure function of (slot partition, executed-slot set).
  std::vector<std::unique_ptr<exec::TreeReduction<JkBuffer>>> trees;
  trees.reserve(static_cast<std::size_t>(ranks));
  const auto merge = [](JkBuffer& left, JkBuffer& right) {
    left.j += right.j;
    left.k += right.k;
  };
  const auto recycle = [this](JkBuffer* b) { buffer_pool_.release(b); };
  for (int r = 0; r < ranks; ++r) {
    trees.push_back(std::make_unique<exec::TreeReduction<JkBuffer>>(
        n_slots, merge, recycle));
  }

  // Executes one slot serially in ascending task order into a pooled
  // zeroed buffer, then delivers the partial to the rank's tree.
  const auto execute_slot = [&](std::int64_t s, int rank,
                                exec::RankStats& ts) {
    JkBuffer* buffer = buffer_pool_.acquire();
    emc::Timer busy;
    const auto su = static_cast<std::size_t>(s);
    const auto [task_first, task_last] = slots_[su];
    for (std::int64_t t = task_first; t < task_last; ++t) {
      slot_quartets[su] += fock_.execute_task(
          tasks_[static_cast<std::size_t>(t)],
          density[static_cast<std::size_t>(rank)], buffer->j, buffer->k,
          block_max);
    }
    ts.busy_seconds += busy.seconds();
    ts.tasks_executed += task_last - task_first;
    trees[static_cast<std::size_t>(rank)]->complete(s, buffer);
  };

  // Runs on each rank's thread once its executors drain: slots the rank
  // never executed are empty leaves; with them closed the tree
  // collapses to this rank's partial.
  const auto finalize_rank = [&](int rank) {
    const auto ru = static_cast<std::size_t>(rank);
    trees[ru]->complete_missing();
    rank_roots[ru] = trees[ru]->take_root();
  };

  return scheduler_.run(schedule_, slot_home_, execute_slot, finalize_rank);
}

linalg::Matrix DistributedFockBuilder::build_g(const linalg::Matrix& density,
                                               chem::Screen screen,
                                               std::uint64_t* quartets) {
  fock_.require_density(density);
  const auto n = static_cast<std::size_t>(basis_->function_count());
  const bool density_screen = screen == chem::Screen::kDensity;
  const linalg::Matrix block_max =
      density_screen ? fock_.shell_block_max(density) : linalg::Matrix();
  const int ranks = runtime_->size();

  // Publish the density; ranks will fetch it one-sided.
  pgas::GlobalArray density_ga(n, n, ranks);
  pgas::GlobalArray j_ga(n, n, ranks);
  pgas::GlobalArray k_ga(n, n, ranks);
  if (options_.metrics != nullptr) {
    density_ga.set_metrics(options_.metrics);
    j_ga.set_metrics(options_.metrics);
    k_ga.set_metrics(options_.metrics);
  }
  density_ga.put(0, 0, 0, n, n,
                 std::span<const double>(density.data(), n * n));

  // Per-rank density replicas (the one full-replica set the GA pattern
  // genuinely needs). J/K no longer get 2·ranks·n² replicas of their
  // own: threads accumulate into pooled per-slot buffers that fold
  // through the reduction tree, so the live set is bounded by
  // ranks·(threads + log2 slots) buffers.
  std::vector<linalg::Matrix> local_density(
      static_cast<std::size_t>(ranks), linalg::Matrix(n, n));
  std::vector<JkBuffer*> rank_roots;
  std::vector<std::uint64_t> slot_quartets(slots_.size());

  // Fetch + execute + accumulate are their own SPMD phases. This
  // mirrors GA codes: GA_Get(P) ... do work ... GA_Acc(F) with
  // barriers between phases.
  emc::Timer phase;
  runtime_->run([&](pgas::Context& ctx) {
    const auto ru = static_cast<std::size_t>(ctx.rank());
    density_ga.get(ctx.rank(), 0, 0, n, n,
                   std::span<double>(local_density[ru].data(), n * n));
  });
  if (metrics_.phase_get != nullptr) metrics_.phase_get->add(phase.seconds());

  phase.reset();
  last_stats_ = run_hybrid(local_density,
                           density_screen ? &block_max : nullptr,
                           slot_quartets, rank_roots);
  if (metrics_.phase_execute != nullptr) {
    metrics_.phase_execute->add(phase.seconds());
  }

  phase.reset();
  runtime_->run([&](pgas::Context& ctx) {
    const auto ru = static_cast<std::size_t>(ctx.rank());
    const JkBuffer* root = rank_roots[ru];
    if (root == nullptr) return;  // rank executed no slots
    j_ga.accumulate(ctx.rank(), 0, 0, n, n,
                    std::span<const double>(root->j.data(), n * n));
    k_ga.accumulate(ctx.rank(), 0, 0, n, n,
                    std::span<const double>(root->k.data(), n * n));
  });
  for (JkBuffer* root : rank_roots) {
    if (root != nullptr) buffer_pool_.release(root);
  }
  if (metrics_.phase_accumulate != nullptr) {
    metrics_.phase_accumulate->add(phase.seconds());
  }

  linalg::Matrix j_total(n, n), k_total(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      j_total(r, c) = j_ga.at(r, c);
      k_total(r, c) = k_ga.at(r, c);
    }
  }
  ++builds_;
  const std::uint64_t evaluated = std::accumulate(
      slot_quartets.begin(), slot_quartets.end(), std::uint64_t{0});
  if (quartets != nullptr) *quartets = evaluated;
  if (metrics_.builds != nullptr) {
    metrics_.builds->add(1);
    metrics_.tasks->add(static_cast<std::int64_t>(tasks_.size()));
    metrics_.quartets->add(static_cast<std::int64_t>(evaluated));
    metrics_.reduction_buffers->set(
        static_cast<double>(buffer_pool_.allocated()));
  }
  return chem::FockBuilder::combine_jk(j_total, k_total);
}

}  // namespace emc::core
