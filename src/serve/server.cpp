#include "serve/server.hpp"

#include <bit>
#include <cstring>
#include <exception>
#include <functional>
#include <stdexcept>

#include "chem/scf.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace emc::serve {

namespace {

/// Stateless per-attempt loss decision — the splitmix64 idiom of
/// sim::FaultSchedule::drop_op, keyed on the job id so replays are exact
/// for a fixed submission order.
bool job_attempt_lost(const ServerOptions& options, std::int64_t job_id,
                      int attempt) {
  std::uint64_t h = options.fault_seed ^
                    (static_cast<std::uint64_t>(job_id) + 1) *
                        0x9e3779b97f4a7c15ULL ^
                    (static_cast<std::uint64_t>(attempt) + 1) *
                        0xbf58476d1ce4e5b9ULL;
  return unit_interval(splitmix64(h)) < options.fail_prob;
}

/// FNV-1a over the matrix's double bit patterns (row-major): a bitwise
/// determinism witness cheap enough to ship in a JobResult.
std::uint64_t matrix_digest(const linalg::Matrix& m) {
  std::uint64_t h = 14695981039346656037ULL;
  const double* data = m.data();
  const std::size_t n = m.rows() * m.cols();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(double));
    std::memcpy(&bits, &data[i], sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xffULL)) * 1099511628211ULL;
    }
  }
  return h;
}

/// An already-resolved future for a job that never ran.
std::future<JobResult> failed_result(const char* error) {
  std::promise<JobResult> p;
  JobResult r;
  r.error = error;
  p.set_value(std::move(r));
  return p.get_future();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ScfServer::ScfServer(const ServerOptions& options) : options_(options) {
  if (options_.workers < 1) {
    throw std::invalid_argument("ScfServer: workers must be >= 1");
  }
  if (options_.queue_capacity < 1) {
    throw std::invalid_argument("ScfServer: queue_capacity must be >= 1");
  }
  if (options_.max_attempts < 1) {
    throw std::invalid_argument("ScfServer: max_attempts must be >= 1");
  }
  cache_ = std::make_unique<FockCache>(options_.cache_capacity,
                                       options_.metrics);
}

ScfServer::~ScfServer() { stop(); }

ScfServer::Submission ScfServer::submit(const JobRequest& request) {
  Submission out;
  std::unique_ptr<Pending> displaced;  // fulfilled outside the lock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counts_.submitted;
    if (stopping_ || stopped_ ||
        (queue_.size() >= options_.queue_capacity &&
         options_.overload == ServerOptions::Overload::kReject)) {
      count_rejected(1);
      out.result = failed_result("rejected");
      return out;
    }
    if (queue_.size() >= options_.queue_capacity) {
      // kShed: one job is shed either way. The victim is the worst
      // queued job — lowest priority, then youngest (map rbegin). The
      // new arrival must STRICTLY outrank it to displace it; otherwise
      // the new arrival itself is shed (ties keep the incumbent: it was
      // admitted first).
      ++counts_.shed;
      if (options_.metrics != nullptr) {
        options_.metrics->counter("serve/shed").add();
      }
      auto victim = std::prev(queue_.end());
      const int victim_priority = -victim->first.first;
      if (request.priority <= victim_priority) {
        out.admit = Admit::kShedNew;
        out.result = failed_result("shed");
        return out;
      }
      displaced = std::move(victim->second);
      queue_.erase(victim);
    }
    auto pending = std::make_unique<Pending>();
    pending->request = request;
    pending->job_id = next_job_id_++;
    pending->enqueued_at = std::chrono::steady_clock::now();
    out.admit = Admit::kAccepted;
    out.job_id = pending->job_id;
    out.result = pending->promise.get_future();
    ++counts_.accepted;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("serve/accepted").add();
    }
    queue_.emplace(QueueKey{-request.priority, next_seq_++},
                   std::move(pending));
  }
  if (displaced) {
    JobResult r;
    r.job_id = displaced->job_id;
    r.error = "shed";
    displaced->promise.set_value(std::move(r));
  }
  work_cv_.notify_one();
  return out;
}

void ScfServer::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  pool_ = std::make_unique<exec::ThreadPool>(options_.workers);
  // ThreadPool::run is SPMD and blocks until every thread exits the
  // body, so it runs on a dedicated dispatcher thread; the dispatcher
  // itself participates as pool thread 0.
  dispatcher_ = std::thread(
      [this] { pool_->run([this](int t) { worker_loop(t); }); });
}

void ScfServer::worker_loop(int /*thread_id*/) {
  for (;;) {
    std::unique_ptr<Pending> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      auto it = queue_.begin();  // highest priority, earliest sequence
      job = std::move(it->second);
      queue_.erase(it);
      ++active_jobs_;
    }
    JobResult result = execute(*job);
    observe(job->request, result);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      result.completion_seq = counts_.completed;
      ++counts_.completed;
      if (!result.ok) ++counts_.failed;
      counts_.retries += result.attempts - 1;
      --active_jobs_;
      if (queue_.empty() && active_jobs_ == 0) idle_cv_.notify_all();
    }
    job->promise.set_value(std::move(result));
  }
}

JobResult ScfServer::execute(Pending& job) {
  JobResult result;
  result.job_id = job.job_id;
  result.queue_seconds = seconds_since(job.enqueued_at);
  const auto service_start = std::chrono::steady_clock::now();

  // Replay fault-lost attempts up front (the PR 3 pattern): losses are
  // a pure function of (seed, job id, attempt), and since every attempt
  // of a job computes identical bits, only the LAST attempt needs to
  // run. The final attempt is forced through.
  int attempt = 0;
  if (options_.fail_prob > 0.0) {
    while (attempt + 1 < options_.max_attempts &&
           job_attempt_lost(options_, job.job_id, attempt)) {
      ++attempt;
      if (options_.metrics != nullptr) {
        options_.metrics->counter("serve/retries").add();
      }
    }
  }
  result.attempts = attempt + 1;

  try {
    const auto entry = cache_->get(job.request.molecule, job.request.basis);
    const chem::FockBuilder& builder = *entry->builder;
    if (job.request.kind == JobRequest::Kind::kFockBuild) {
      // One G build against the deterministic unit-density guess; the
      // digest witnesses bitwise reproducibility across pool sizes.
      const std::size_t n =
          static_cast<std::size_t>(entry->basis.function_count());
      const linalg::Matrix density = linalg::Matrix::identity(n);
      const linalg::Matrix g = builder.build_g(density);
      result.g_digest = matrix_digest(g);
      result.g_norm = g.norm();
    } else {
      // The same incremental G builder as chem::run_rhf, over the cached
      // FockBuilder (which owns the screen threshold).
      chem::ScfOptions scf;
      scf.max_iterations = job.request.scf_max_iterations;
      chem::IncrementalGBuilder g(builder);
      const chem::ScfResult r = chem::run_rhf_with_builder(
          entry->molecule, entry->basis, std::ref(g), scf);
      result.energy = r.energy;
      result.scf_converged = r.converged;
      result.scf_iterations = r.iterations;
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.service_seconds = seconds_since(service_start);
  return result;
}

void ScfServer::count_rejected(std::int64_t jobs) {
  counts_.rejected += jobs;
  if (options_.metrics != nullptr && jobs > 0) {
    options_.metrics->counter("serve/rejected").add(jobs);
  }
}

void ScfServer::observe(const JobRequest& request, const JobResult& result) {
  if (options_.metrics == nullptr) return;
  const std::string prefix = "serve/t" + std::to_string(request.tenant);
  options_.metrics->histogram(prefix + "/queue_seconds")
      .record(result.queue_seconds);
  options_.metrics->histogram(prefix + "/service_seconds")
      .record(result.service_seconds);
  options_.metrics->histogram(prefix + "/latency_seconds")
      .record(result.queue_seconds + result.service_seconds);
  options_.metrics->counter(prefix + "/completed").add();
}

void ScfServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_ || stopped_) return;
  idle_cv_.wait(lock,
                [this] { return queue_.empty() && active_jobs_ == 0; });
}

void ScfServer::stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) return;
    if (!started_) {
      // Never started: fail any queued futures so callers don't hang.
      stopping_ = stopped_ = true;
      count_rejected(static_cast<std::int64_t>(queue_.size()));
      for (auto& [key, pending] : queue_) {
        JobResult r;
        r.job_id = pending->job_id;
        r.error = "rejected";
        pending->promise.set_value(std::move(r));
      }
      queue_.clear();
      return;
    }
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && active_jobs_ == 0; });
    stopping_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  pool_.reset();
}

ScfServer::Counts ScfServer::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

std::size_t ScfServer::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace emc::serve
