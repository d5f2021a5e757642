#include "pgas/runtime.hpp"

#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace emc::pgas {

void inject_delay(std::uint64_t nanoseconds) {
  if (nanoseconds == 0) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(nanoseconds);
  // Busy-wait: sleeping would invite the OS scheduler into measurements.
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

namespace {

/// Stateless drop decision, same construction as the simulator's
/// FaultSchedule::drop_op so both layers replay from a printed seed.
bool attempt_dropped(const CommCostModel& cost, int rank,
                     std::uint64_t op_seq, int attempt) {
  std::uint64_t h = cost.fault_seed ^
                    (static_cast<std::uint64_t>(rank) + 2) *
                        0x9e3779b97f4a7c15ULL ^
                    (op_seq + 1) * 0xbf58476d1ce4e5b9ULL ^
                    (static_cast<std::uint64_t>(attempt) + 1) *
                        0x94d049bb133111ebULL;
  return unit_interval(splitmix64(h)) < cost.drop_prob;
}

std::uint64_t backoff_ns(const CommCostModel& cost, int attempt) {
  double delay = static_cast<double>(cost.retry_backoff_ns);
  for (int i = 0; i < attempt; ++i) delay *= cost.backoff_multiplier;
  return static_cast<std::uint64_t>(delay);
}

}  // namespace

int resolve_with_retries(const CommCostModel& cost, int rank,
                         std::uint64_t op_seq,
                         std::uint64_t op_latency_ns) {
  if (!cost.faults_enabled()) return 0;
  int attempt = 0;
  while (attempt_dropped(cost, rank, op_seq, attempt)) {
    // The dropped attempt paid its full round trip before it was
    // declared lost; back off before reissuing.
    inject_delay(op_latency_ns + backoff_ns(cost, attempt));
    ++attempt;
    if (attempt >= cost.max_attempts) {
      throw std::runtime_error(
          "pgas: one-sided operation timed out after " +
          std::to_string(cost.max_attempts) + " attempts (rank " +
          std::to_string(rank) + ", op " + std::to_string(op_seq) + ")");
    }
  }
  return attempt;
}

int Context::size() const { return runtime_->size(); }

void Context::barrier() {
  Runtime& rt = *runtime_;
  if (rt.metrics_ == nullptr) {
    rt.barrier_.arrive_and_wait();
    return;
  }
  auto& mine = rt.rank_metrics_[static_cast<std::size_t>(rank_)];
  emc::Timer wait;
  rt.barrier_.arrive_and_wait();
  mine.wait_seconds->add(wait.seconds());
  mine.barriers->add(1);
}

const CommCostModel& Context::cost_model() const {
  return runtime_->cost_model_;
}

Runtime::Runtime(int n_ranks, CommCostModel cost_model)
    : n_ranks_(n_ranks), cost_model_(cost_model), barrier_(n_ranks) {
  if (n_ranks < 1) throw std::invalid_argument("Runtime: n_ranks < 1");
}

void Runtime::set_metrics(util::MetricsRegistry* registry) {
  metrics_ = registry;
  rank_metrics_.clear();
  if (registry == nullptr) return;
  rank_metrics_.resize(static_cast<std::size_t>(n_ranks_));
  for (int r = 0; r < n_ranks_; ++r) {
    const std::string prefix = "pgas/r" + std::to_string(r) + "/";
    auto& slot = rank_metrics_[static_cast<std::size_t>(r)];
    slot.barriers = &registry->counter(prefix + "barriers");
    slot.wait_seconds = &registry->gauge(prefix + "barrier_wait_seconds");
  }
}

void Runtime::run(const std::function<void(Context&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_ranks_));
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (int r = 0; r < n_ranks_; ++r) {
    threads.emplace_back([this, r, &body, &first_error, &error_mutex] {
      // Appended, not `"r" + ...`: gcc 12 warns falsely (-Wrestrict) on
      // a literal + std::string temporary at -O3.
      std::string tag = "r";
      tag += std::to_string(r);
      set_log_thread_tag(tag);
      Context ctx(this, r);
      try {
        body(ctx);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Other ranks may be waiting at a barrier; there is no safe way
        // to cancel them, so a throwing SPMD body must not use barriers
        // after the point of failure. Tests exercise the no-barrier case.
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void GlobalCounter::attach_metrics(util::MetricsRegistry& registry,
                                   int n_ranks) {
  total_ops_ = &registry.counter("pgas/nxtval_ops");
  retry_ops_ = &registry.counter("pgas/nxtval_retries");
  rank_ops_.clear();
  rank_ops_.reserve(static_cast<std::size_t>(std::max(n_ranks, 0)));
  for (int r = 0; r < n_ranks; ++r) {
    rank_ops_.push_back(
        &registry.counter("pgas/r" + std::to_string(r) + "/nxtval_ops"));
  }
}

}  // namespace emc::pgas
