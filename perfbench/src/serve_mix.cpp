// serve-mix: a closed loop against serve::ScfServer with nproc workers and
// 2 x workers callers, each waiting for its reply before it submits the
// next job. The traffic is the tiered multi-tenant mix of EXP-14
// (bench/bench_serve.cpp) widened to 6 (molecule, basis) keys, with a
// cache that holds 4 of them, so hits, misses and evictions all occur.
// The only workload where the queue, priority dispatch, the
// cross-request FockCache and across-job parallelism matter.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using emc::serve::JobRequest;
using emc::serve::JobResult;
using emc::serve::ScfServer;
using emc::serve::ServerOptions;

/// Tier 2 runs full SCFs; tiers 0 and 1 single Fock builds.
constexpr int kScfTier = 2;

struct Key {
  const char* molecule;
  const char* basis;
  int tier;       ///< the tenant and the priority of this key's jobs
  int jobs;       ///< jobs per block of kBlockJobs
  double pinned;  ///< converged RHF energy (SCF tier) or Frobenius norm
                  ///< of G(superposition guess) (build tiers)
};

// EXP-14's tiers, each one tenant whose priority is its tier number:
// free-tier small Fock builds, batch-tier medium builds at half the free
// tier's volume, and premium-tier full SCF runs. EXP-14 puts 60/30/10%
// of its jobs on 1-2 keys per tier; here each tier has two keys and the
// premium tier takes 20% of the jobs, so 16 + 8 + 6 jobs make a block.
// Pinned values come from the sequential kernel.
constexpr Key kKeys[] = {
    {"water", "sto-3g", 0, 8, 13.9025419977087},
    {"water2", "sto-3g", 0, 8, 24.9829345223754},
    {"methane", "6-31g", 1, 4, 41.5588270595784},
    {"alkane2", "sto-3g", 1, 4, 29.1389268279098},
    {"water", "6-31g*", kScfTier, 3, -76.010529972009},
    {"water2", "6-31g", kScfTier, 3, -151.961111700353},
};
constexpr int kBlockJobs = 30;
constexpr std::size_t kCacheCapacity = 4;
constexpr double kEnergyTolerance = 1e-8;
constexpr double kNormTolerance = 1e-10;  // relative
constexpr int kMinJobs = 200;
constexpr int kSetups = 201;  // each is sub-millisecond

struct Job {
  JobRequest request;
  std::size_t key = 0;
};

/// Blocks of kBlockJobs with a fixed mix, each shuffled by the seed, so
/// every run does the same work in a seeded order.
std::vector<Job> make_jobs(std::uint64_t seed, int blocks) {
  std::vector<Job> block;
  for (std::size_t k = 0; k < std::size(kKeys); ++k) {
    Job job;
    job.key = k;
    job.request.molecule = kKeys[k].molecule;
    job.request.basis = kKeys[k].basis;
    job.request.kind = kKeys[k].tier == kScfTier
                           ? JobRequest::Kind::kScf
                           : JobRequest::Kind::kFockBuild;
    job.request.tenant = kKeys[k].tier;
    job.request.priority = kKeys[k].tier;
    block.insert(block.end(), kKeys[k].jobs, job);
  }
  emc::Rng rng(seed);
  std::vector<Job> jobs;
  for (int b = 0; b < blocks; ++b) {
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.below(i + 1)]);
    }
    jobs.insert(jobs.end(), block.begin(), block.end());
  }
  return jobs;
}

struct Completed {
  const Job* job = nullptr;
  double latency = 0.0;
  JobResult result;
};

/// Constructs and starts a server with a cold cache; `seconds` receives
/// the time both took.
std::unique_ptr<ScfServer> start_server(int workers,
                                        emc::util::MetricsRegistry* metrics,
                                        double* seconds = nullptr) {
  ServerOptions o;
  o.workers = workers;
  o.cache_capacity = kCacheCapacity;
  o.metrics = metrics;
  std::unique_ptr<ScfServer> server;
  const double t = timed_seconds([&] {
    server = std::make_unique<ScfServer>(o);
    server->start();
  });
  if (seconds != nullptr) *seconds = t;
  return server;
}

/// Closed loop: `callers` threads each submit a job, wait for its reply,
/// and go on until the deadline has passed and at least `min_jobs` jobs
/// were taken (or the job list runs out).
std::vector<Completed> closed_loop(ScfServer& server,
                                   const std::vector<Job>& jobs, int callers,
                                   double seconds, int min_jobs) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::vector<Completed> done;
  const Timer measuring;
  auto caller = [&] {
    std::vector<Completed> mine;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size() || (static_cast<int>(i) >= min_jobs &&
                               measuring.seconds() >= seconds)) {
        break;
      }
      Completed c;
      c.job = &jobs[i];
      const Timer latency;
      ScfServer::Submission sub = server.submit(jobs[i].request);
      c.result = sub.result.get();
      c.latency = latency.seconds();
      mine.push_back(std::move(c));
    }
    std::lock_guard<std::mutex> lock(mutex);
    done.insert(done.end(), mine.begin(), mine.end());
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t) threads.emplace_back(caller);
  for (std::thread& t : threads) t.join();
  return done;
}

void check_jobs(const std::vector<Completed>& done, Report& report) {
  std::map<std::size_t, std::uint64_t> digest;
  for (const Completed& c : done) {
    const Key& key = kKeys[c.job->key];
    const std::string name = std::string(key.molecule) + "/" + key.basis;
    const JobResult& r = c.result;
    if (!r.ok) {
      report.op(false, name + ": job failed: " + r.error);
    } else if (key.tier == kScfTier) {
      const bool ok = r.scf_converged &&
                      std::abs(r.energy - key.pinned) <= kEnergyTolerance;
      report.op(ok, name + ": SCF energy " + std::to_string(r.energy) +
                        " differs from pinned");
    } else {
      const auto [it, first] = digest.emplace(c.job->key, r.g_digest);
      const bool ok =
          (first || it->second == r.g_digest) &&
          std::abs(r.g_norm - key.pinned) <= kNormTolerance * key.pinned;
      report.op(ok, name + ": G differs from the pinned norm or from "
                           "earlier builds of the same key");
    }
  }
}

/// Splits service times by whether the job found its key in the cache,
/// found by replaying the jobs' keys in completion order through an LRU
/// of the server's capacity. Under concurrency a job next to an eviction
/// may land on the wrong side.
void split_by_hit(const std::vector<Completed>& done,
                  std::vector<double>& hit_service,
                  std::vector<double>& miss_service) {
  std::vector<const Completed*> order;
  for (const Completed& c : done) order.push_back(&c);
  std::sort(order.begin(), order.end(), [](const Completed* a,
                                           const Completed* b) {
    return a->result.completion_seq < b->result.completion_seq;
  });
  std::list<std::size_t> lru;
  for (const Completed* c : order) {
    const auto it = std::find(lru.begin(), lru.end(), c->job->key);
    (it != lru.end() ? hit_service : miss_service)
        .push_back(c->result.service_seconds);
    if (it != lru.end()) lru.erase(it);
    lru.push_front(c->job->key);
    if (lru.size() > kCacheCapacity) lru.pop_back();
  }
}

void report_traced(const std::vector<Completed>& done, const ScfServer& server,
                   int workers, double wall_s, Report& report) {
  std::vector<double> queue, service, hit_service, miss_service;
  for (const Completed& c : done) {
    queue.push_back(c.result.queue_seconds);
    service.push_back(c.result.service_seconds);
  }
  split_by_hit(done, hit_service, miss_service);
  const emc::serve::FockCache::Stats cache = server.cache().stats();
  const ScfServer::Counts counts = server.counts();
  report.metric("serve.queue_s_p50", median(queue), "s");
  report.metric("serve.service_s_p50", median(service), "s");
  report.metric("serve.hit_service_s_p50", median(hit_service), "s");
  report.metric("serve.miss_service_s_p50", median(miss_service), "s");
  report.metric("serve.cache_hit_rate", server.cache().hit_rate(), "ratio");
  report.metric("serve.cache_misses", static_cast<double>(cache.misses),
                "count");
  report.metric("serve.cache_evictions", static_cast<double>(cache.evictions),
                "count");
  report.metric("serve.worker_busy", sum(service) / (workers * wall_s),
                "ratio");
  report.metric("serve.rejected", static_cast<double>(counts.rejected),
                "count");
  report.metric("serve.shed", static_cast<double>(counts.shed), "count");
  report.metric("serve.retries", static_cast<double>(counts.retries),
                "count");
}

std::vector<double> latencies(const std::vector<Completed>& done) {
  std::vector<double> out;
  for (const Completed& c : done) out.push_back(c.latency);
  return out;
}

double queued_and_served(const std::vector<Completed>& done) {
  double s = 0.0;
  for (const Completed& c : done) {
    s += c.result.queue_seconds + c.result.service_seconds;
  }
  return s;
}

}  // namespace

void run_serve_mix(const RunConfig& config, Report& report) {
  const int workers = workload_threads("serve-mix", config.nproc);
  const int callers = 2 * workers;
  const int min_jobs = config.smoke ? kBlockJobs : kMinJobs;
  const std::vector<Job> jobs =
      make_jobs(config.seed, config.smoke ? 1 : 400);
  report.info("callers", static_cast<double>(callers));
  report.info("keys", static_cast<double>(std::size(kKeys)));
  report.info("cache_capacity", static_cast<double>(kCacheCapacity));

  if (!config.trace) {
    const Timer wall;
    const std::unique_ptr<ScfServer> server = start_server(workers, nullptr);
    const std::vector<Completed> done =
        closed_loop(*server, jobs, callers, config.seconds, min_jobs);
    const double wall_s = wall.seconds();
    server->stop();
    check_jobs(done, report);
    report.info("cache_hit_rate", server->cache().hit_rate());
    // After the loop, so one-time process warm-up (first thread stacks,
    // allocator growth) does not land in the set-up figure.
    std::vector<double> setup_s(kSetups);
    for (double& s : setup_s) start_server(workers, nullptr, &s)->stop();
    const std::vector<double> lat = latencies(done);
    report_end_to_end(report, median(setup_s), lat, lat, 95.0,
                      static_cast<double>(done.size()) / wall_s);
    return;
  }

  double untraced_p50 = 0.0;
  {
    const std::unique_ptr<ScfServer> server = start_server(workers, nullptr);
    const std::vector<Completed> done =
        closed_loop(*server, jobs, callers, config.seconds / 2, min_jobs);
    server->stop();
    check_jobs(done, report);
    untraced_p50 = median(latencies(done));
  }
  emc::util::MetricsRegistry metrics;
  const Timer wall;
  const std::unique_ptr<ScfServer> server = start_server(workers, &metrics);
  const std::vector<Completed> done =
      closed_loop(*server, jobs, callers, config.seconds / 2, min_jobs);
  const double wall_s = wall.seconds();
  server->stop();
  check_jobs(done, report);
  report_traced(done, *server, workers, wall_s, report);
  // Each job's latency splits into the server's own queue and service
  // times; the rest is hand-off between caller and worker.
  const std::vector<double> lat = latencies(done);
  report_trace_closure(report, sum(lat), queued_and_served(done),
                       median(lat), untraced_p50);
}

}  // namespace perfbench
