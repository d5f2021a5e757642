#pragma once

// SCF-as-a-service: a long-running in-process server that accepts a
// stream of Fock-build / SCF requests over mixed molecules and basis
// sets and multiplexes them over one shared exec::ThreadPool.
//
// The paper studies execution models WITHIN one large Fock build; the
// serving layer adds the axis the ROADMAP's "millions of users" north
// star implies — scheduling BETWEEN jobs. Design choices:
//
//  * Admission control: a bounded priority queue. When full, the
//    configured overload policy either REJECTS the new request or SHEDS
//    the cheapest queued victim (lowest priority, then youngest) to
//    make room for a higher-priority arrival. Rejected/shed jobs still
//    resolve their futures (ok = false) so callers never hang.
//  * Priorities: the dispatch order is a strict weak order (priority
//    descending, then admission sequence ascending), so for a fixed
//    submission order the execution order of queued jobs is
//    deterministic — testable without sleeps.
//  * Parallelism is ACROSS jobs only: each job runs sequentially on the
//    worker that claimed it, so a job's results (SCF energy bits, Fock
//    digest) are bitwise identical for any pool size — the request-
//    level analogue of the hybrid builder's bitwise contract.
//  * Faults: per-attempt job loss decided by the stateless splitmix64
//    hash idiom of sim::FaultSchedule::drop_op, keyed (seed, job id,
//    attempt) — retries are replayable and the final result is bitwise
//    identical to the fault-free run.
//  * Chemistry reuse: every job resolves its (molecule, basis) through
//    the shared cross-request FockCache (see fock_cache.hpp).
//
// Thread model: start() launches one dispatcher thread that parks
// inside ThreadPool::run(worker_loop); the pool's threads (dispatcher
// included, as thread 0) pull jobs until stop. submit() may be called
// from any thread, before or after start(); submitting before start()
// gives deterministic admission decisions (no worker races the queue).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "serve/fock_cache.hpp"
#include "util/metrics.hpp"

namespace emc::serve {

/// What a tenant asks for: one chemistry job.
struct JobRequest {
  enum class Kind {
    kFockBuild,  ///< one G(P) build against the superposition guess
    kScf,        ///< full RHF to convergence
  };
  std::string molecule;  ///< catalog name (chem::make_named_molecule)
  std::string basis;     ///< basis name (chem::BasisSet::build)
  Kind kind = Kind::kFockBuild;
  int tenant = 0;        ///< tenant class (indexes per-tenant metrics)
  int priority = 0;      ///< higher runs first among queued jobs
  int scf_max_iterations = 50;  ///< kScf iteration cap
};

struct JobResult {
  std::int64_t job_id = -1;
  bool ok = false;
  std::string error;        ///< "rejected", "shed", or exception text
  int attempts = 0;         ///< 1 + fault retries (0 if never started)
  // kFockBuild payload: FNV-1a digest over the G matrix bits — enough
  // to assert bitwise determinism without shipping the matrix.
  std::uint64_t g_digest = 0;
  double g_norm = 0.0;
  // kScf payload.
  double energy = 0.0;
  bool scf_converged = false;
  int scf_iterations = 0;
  /// Global completion order (0-based, assigned under the server lock
  /// as each job finishes); with ONE worker this equals the dispatch
  /// order, which is what the priority-ordering tests assert.
  std::int64_t completion_seq = -1;
  // Hostware timings (advisory; never gate on these).
  double queue_seconds = 0.0;
  double service_seconds = 0.0;
};

struct ServerOptions {
  int workers = 2;                 ///< ThreadPool size (>= 1)
  std::size_t queue_capacity = 64; ///< max queued (not yet running) jobs
  enum class Overload {
    kReject,  ///< full queue rejects the new request
    kShed,    ///< full queue sheds the worst queued victim if the new
              ///< request outranks it, else sheds the new request
  };
  Overload overload = Overload::kReject;
  std::size_t cache_capacity = 8;  ///< FockCache resident entries
  // Fault injection (PR 3 idiom): each attempt of job j is lost with
  // probability fail_prob, decided by hash(seed, j, attempt); the
  // max_attempts-th attempt is forced through so jobs always finish.
  double fail_prob = 0.0;
  int max_attempts = 4;
  std::uint64_t fault_seed = 17;
  /// Optional registry for serve/* counters and per-tenant latency
  /// histograms (serve/t<k>/{queue,service,latency}_seconds). Must
  /// outlive the server. nullptr disables.
  util::MetricsRegistry* metrics = nullptr;
};

class ScfServer {
 public:
  enum class Admit { kAccepted, kRejected, kShedNew };

  /// submit()'s receipt: the admission decision, the job id (assigned
  /// in submission order for accepted jobs, -1 otherwise), and a future
  /// that ALWAYS becomes ready — with ok = false and error set for
  /// rejected/shed jobs.
  struct Submission {
    Admit admit = Admit::kRejected;
    std::int64_t job_id = -1;
    std::future<JobResult> result;
  };

  explicit ScfServer(const ServerOptions& options);
  ~ScfServer();  ///< stop()s if still running

  ScfServer(const ScfServer&) = delete;
  ScfServer& operator=(const ScfServer&) = delete;

  /// Admits the request (or applies the overload policy). Thread-safe.
  Submission submit(const JobRequest& request);

  /// Spawns the worker pool. Idempotent.
  void start();
  /// Blocks until the queue is empty and no job is in flight. The
  /// server keeps accepting work; call from a non-worker thread.
  void drain();
  /// Drains, then joins the pool. Idempotent. Jobs submitted after
  /// stop() are rejected.
  void stop();

  const FockCache& cache() const { return *cache_; }
  FockCache& cache() { return *cache_; }
  const ServerOptions& options() const { return options_; }

  /// Lifetime counters (exact once drain()/stop() returned).
  struct Counts {
    std::int64_t submitted = 0;
    std::int64_t accepted = 0;
    std::int64_t rejected = 0;
    std::int64_t shed = 0;       ///< queued victims + shed new arrivals
    std::int64_t completed = 0;
    std::int64_t failed = 0;     ///< completed with ok = false
    std::int64_t retries = 0;    ///< fault-lost attempts replayed
  };
  Counts counts() const;

  /// Queued (not yet claimed) jobs right now.
  std::size_t queued() const;

 private:
  struct Pending {
    JobRequest request;
    std::int64_t job_id = -1;
    std::promise<JobResult> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };
  /// Dispatch key: (-priority, seq) so map order = execution order and
  /// rbegin() = shed victim (lowest priority, youngest).
  using QueueKey = std::pair<int, std::int64_t>;

  void worker_loop(int thread_id);
  JobResult execute(Pending& job);
  void observe(const JobRequest& request, const JobResult& result);
  /// Counts `jobs` rejections in Counts::rejected and the serve/rejected
  /// metric. Caller holds mutex_.
  void count_rejected(std::int64_t jobs);

  ServerOptions options_;
  std::unique_ptr<FockCache> cache_;
  std::unique_ptr<exec::ThreadPool> pool_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers: queue or stop
  std::condition_variable idle_cv_;   ///< drain(): queue empty + idle
  std::map<QueueKey, std::unique_ptr<Pending>> queue_;
  std::int64_t next_job_id_ = 0;
  std::int64_t next_seq_ = 0;
  int active_jobs_ = 0;
  bool started_ = false;
  bool stopping_ = false;
  bool stopped_ = false;
  Counts counts_;
  std::thread dispatcher_;
};

}  // namespace emc::serve
