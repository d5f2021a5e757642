#include "pgas/runtime.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/log.hpp"
#include "util/timer.hpp"

namespace emc::pgas {

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

Runtime::Runtime(int n_ranks) : n_ranks_(n_ranks), barrier_(n_ranks) {
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
  rank_ops_.clear();
  rank_ops_.reserve(static_cast<std::size_t>(std::max(n_ranks, 0)));
  for (int r = 0; r < n_ranks; ++r) {
    rank_ops_.push_back(
        &registry.counter("pgas/r" + std::to_string(r) + "/nxtval_ops"));
  }
}

}  // namespace emc::pgas
