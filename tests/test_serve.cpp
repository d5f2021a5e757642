// Serving-layer tests: cross-request FockCache (LRU + single-flight +
// metrics), ScfServer admission control (bounded-queue reject/shed),
// priority dispatch order, request-level bitwise determinism across
// pool sizes, fault-retry replay, and the const-shareability contract
// of FockBuilder/ShellPairList (run under TSan in CI).
//
// Determinism-sensitive tests submit every job BEFORE start() so that
// admission decisions and dispatch order are pure functions of the
// submission sequence — no sleeps, no timing assumptions.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "chem/basis.hpp"
#include "chem/fock.hpp"
#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"
#include "serve/fock_cache.hpp"
#include "serve/server.hpp"
#include "util/metrics.hpp"

namespace {

using namespace emc;
using serve::FockCache;
using serve::JobRequest;
using serve::JobResult;
using serve::ScfServer;
using serve::ServerOptions;

JobRequest make_request(const std::string& molecule,
                        const std::string& basis, int priority = 0,
                        int tenant = 0) {
  JobRequest req;
  req.molecule = molecule;
  req.basis = basis;
  req.priority = priority;
  req.tenant = tenant;
  return req;
}

std::map<std::int64_t, JobResult> run_batch(
    const std::vector<JobRequest>& jobs, int workers,
    double fail_prob = 0.0, util::MetricsRegistry* metrics = nullptr) {
  ServerOptions options;
  options.workers = workers;
  options.queue_capacity = jobs.size() + 1;
  options.fail_prob = fail_prob;
  options.metrics = metrics;
  ScfServer server(options);
  std::vector<std::future<JobResult>> futures;
  for (const JobRequest& req : jobs) {
    auto sub = server.submit(req);
    EXPECT_EQ(sub.admit, ScfServer::Admit::kAccepted);
    futures.push_back(std::move(sub.result));
  }
  server.start();
  server.drain();
  server.stop();
  std::map<std::int64_t, JobResult> results;
  for (auto& f : futures) {
    JobResult r = f.get();
    results.emplace(r.job_id, std::move(r));
  }
  return results;
}

// ---------------------------------------------------------------- cache

TEST(FockCacheTest, ConstructorValidatesCapacity) {
  EXPECT_THROW(FockCache cache(0), std::invalid_argument);
}

TEST(FockCacheTest, MissThenHitReturnsSameEntry) {
  FockCache cache(4);
  const auto a = cache.get("h2", "sto-3g");
  const auto b = cache.get("h2", "sto-3g");
  EXPECT_EQ(a.get(), b.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.hit_rate(), 0.0);
}

TEST(FockCacheTest, DistinctKeysAreDistinctEntries) {
  FockCache cache(4);
  const auto a = cache.get("h2", "sto-3g");
  const auto b = cache.get("h2", "6-31g");
  const auto c = cache.get("water", "sto-3g");
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(FockCacheTest, LruEvictionFollowsScript) {
  // Capacity 2, sequence A B A C A B: A,B miss; A hits (now MRU); C
  // misses and evicts B; A hits; B misses again and evicts C.
  FockCache cache(2);
  cache.get("h2", "sto-3g");   // A miss
  cache.get("h2", "6-31g");    // B miss
  cache.get("h2", "sto-3g");   // A hit
  cache.get("h2", "6-31g*");   // C miss, evicts B
  cache.get("h2", "sto-3g");   // A hit
  cache.get("h2", "6-31g");    // B miss, evicts C
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FockCacheTest, EvictedEntryStaysUsableWhileHeld) {
  FockCache cache(1);
  const auto held = cache.get("h2", "sto-3g");
  cache.get("water", "sto-3g");  // evicts the held entry
  EXPECT_EQ(cache.stats().evictions, 1);
  // The shared_ptr keeps the evicted chemistry fully alive.
  const auto n = static_cast<std::size_t>(held->basis.function_count());
  const linalg::Matrix g = held->builder->build_g(linalg::Matrix::identity(n));
  EXPECT_EQ(g.rows(), n);
  EXPECT_GT(g.norm(), 0.0);
}

TEST(FockCacheTest, ConstructionFailureIsNotCached) {
  FockCache cache(4);
  EXPECT_THROW(cache.get("not-a-molecule", "sto-3g"),
               std::invalid_argument);
  EXPECT_THROW(cache.get("not-a-molecule", "sto-3g"),
               std::invalid_argument);
  // Each failed lookup was a real construction attempt (miss), and
  // nothing became resident.
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FockCacheTest, SingleFlightMakesMissCountDistinctKeys) {
  // Many threads race the SAME cold key: single-flight must construct
  // exactly once (1 miss) and share the entry with every waiter. The
  // threads spin on a start flag so they call get() together, while
  // the first construction is still running. A single round can still
  // miss that window when the scheduler runs the first caller alone,
  // so the race is rerun on a fresh cold cache.
  constexpr int kRounds = 20;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; ++round) {
    FockCache cache(4);
    std::vector<std::shared_ptr<const serve::FockCacheEntry>> entries(
        kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &entries, &go, t] {
        while (!go.load()) std::this_thread::yield();
        entries[static_cast<std::size_t>(t)] = cache.get("water4", "6-31g");
      });
    }
    go.store(true);
    for (auto& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(entries[0].get(), entries[static_cast<std::size_t>(t)].get())
          << "round " << round;
    }
    const auto stats = cache.stats();
    ASSERT_EQ(stats.misses, 1) << "round " << round;
    ASSERT_EQ(stats.hits, kThreads - 1) << "round " << round;
  }
}

TEST(FockCacheTest, PublishesMetricsWhenRegistryGiven) {
  util::MetricsRegistry metrics;
  FockCache cache(1, &metrics);
  cache.get("h2", "sto-3g");
  cache.get("h2", "sto-3g");
  cache.get("h2", "6-31g");  // evicts
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve/cache_hits"), 1);
  EXPECT_EQ(snap.counters.at("serve/cache_misses"), 2);
  EXPECT_EQ(snap.counters.at("serve/cache_evictions"), 1);
  EXPECT_EQ(snap.gauges.at("serve/cache_entries"), 1.0);
}

// ------------------------------------------------------------ admission

TEST(ServeAdmissionTest, ConstructorValidatesOptions) {
  ServerOptions bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW(ScfServer s(bad_workers), std::invalid_argument);
  ServerOptions bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_THROW(ScfServer s(bad_queue), std::invalid_argument);
  ServerOptions bad_attempts;
  bad_attempts.max_attempts = 0;
  EXPECT_THROW(ScfServer s(bad_attempts), std::invalid_argument);
}

TEST(ServeAdmissionTest, BoundedQueueRejectsWhenFull) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 3;
  options.overload = ServerOptions::Overload::kReject;
  ScfServer server(options);
  std::vector<ScfServer::Submission> subs;
  for (int i = 0; i < 5; ++i) {
    subs.push_back(server.submit(make_request("h2", "sto-3g")));
  }
  EXPECT_EQ(subs[0].admit, ScfServer::Admit::kAccepted);
  EXPECT_EQ(subs[2].admit, ScfServer::Admit::kAccepted);
  EXPECT_EQ(subs[3].admit, ScfServer::Admit::kRejected);
  EXPECT_EQ(subs[4].admit, ScfServer::Admit::kRejected);
  // Rejected futures resolve immediately with ok = false.
  const JobResult r3 = subs[3].result.get();
  EXPECT_FALSE(r3.ok);
  EXPECT_EQ(r3.error, "rejected");
  server.start();
  server.drain();
  server.stop();
  const auto counts = server.counts();
  EXPECT_EQ(counts.submitted, 5);
  EXPECT_EQ(counts.accepted, 3);
  EXPECT_EQ(counts.rejected, 2);
  EXPECT_EQ(counts.completed, 3);
  EXPECT_EQ(counts.shed, 0);
}

TEST(ServeAdmissionTest, ShedDisplacesWorstVictimOrNewcomer) {
  // Capacity 2 fills with priority-0 A,B. Priority-5 C sheds B (lowest
  // priority, youngest). Priority-0 D cannot outrank the remaining
  // victim (A, priority 0 — ties keep the incumbent) and is shed.
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.overload = ServerOptions::Overload::kShed;
  ScfServer server(options);
  auto a = server.submit(make_request("h2", "sto-3g", 0));
  auto b = server.submit(make_request("h2", "sto-3g", 0));
  auto c = server.submit(make_request("h2", "sto-3g", 5));
  auto d = server.submit(make_request("h2", "sto-3g", 0));
  EXPECT_EQ(a.admit, ScfServer::Admit::kAccepted);
  EXPECT_EQ(b.admit, ScfServer::Admit::kAccepted);
  EXPECT_EQ(c.admit, ScfServer::Admit::kAccepted);
  EXPECT_EQ(d.admit, ScfServer::Admit::kShedNew);
  const JobResult rb = b.result.get();  // victim resolves pre-start
  EXPECT_FALSE(rb.ok);
  EXPECT_EQ(rb.error, "shed");
  EXPECT_EQ(rb.job_id, b.job_id);
  const JobResult rd = d.result.get();
  EXPECT_FALSE(rd.ok);
  EXPECT_EQ(rd.error, "shed");
  server.start();
  server.drain();
  server.stop();
  EXPECT_TRUE(a.result.get().ok);
  EXPECT_TRUE(c.result.get().ok);
  const auto counts = server.counts();
  EXPECT_EQ(counts.accepted, 3);
  EXPECT_EQ(counts.shed, 2);
  EXPECT_EQ(counts.completed, 2);
  EXPECT_EQ(counts.rejected, 0);
}

TEST(ServeAdmissionTest, SubmitAfterStopIsRejected) {
  ServerOptions options;
  options.workers = 1;
  ScfServer server(options);
  server.start();
  server.stop();
  auto sub = server.submit(make_request("h2", "sto-3g"));
  EXPECT_EQ(sub.admit, ScfServer::Admit::kRejected);
  EXPECT_FALSE(sub.result.get().ok);
}

TEST(ServeAdmissionTest, StopWithoutStartFailsQueuedFutures) {
  ServerOptions options;
  options.workers = 1;
  ScfServer server(options);
  auto sub = server.submit(make_request("h2", "sto-3g"));
  server.stop();
  const JobResult r = sub.result.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "rejected");
}

TEST(ServeAdmissionTest, SubmitAfterStopCountsTheRejection) {
  // Both counts see it, as they do a full-queue reject.
  util::MetricsRegistry metrics;
  ServerOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  ScfServer server(options);
  server.start();
  server.stop();
  auto sub = server.submit(make_request("h2", "sto-3g"));
  EXPECT_EQ(sub.result.get().error, "rejected");
  EXPECT_EQ(server.counts().rejected, 1);
  EXPECT_EQ(metrics.counter("serve/rejected").value(), 1);
}

TEST(ServeAdmissionTest, StopWithoutStartCountsQueuedJobsAsRejected) {
  util::MetricsRegistry metrics;
  ServerOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  ScfServer server(options);
  auto a = server.submit(make_request("h2", "sto-3g"));
  auto b = server.submit(make_request("h2", "sto-3g"));
  server.stop();
  EXPECT_EQ(a.result.get().error, "rejected");
  EXPECT_EQ(b.result.get().error, "rejected");
  const auto counts = server.counts();
  EXPECT_EQ(counts.accepted, 2);
  EXPECT_EQ(counts.rejected, 2);
  EXPECT_EQ(metrics.counter("serve/rejected").value(), 2);
}

// ------------------------------------------------------------- priority

TEST(ServePriorityTest, DispatchOrderIsPriorityDescThenSeqAsc) {
  // One worker, pre-start submission: completion_seq is the dispatch
  // order. Priorities [0,2,1,2,0] => jobs run as 1,3,2,0,4.
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  ScfServer server(options);
  const int priorities[] = {0, 2, 1, 2, 0};
  std::vector<std::future<JobResult>> futures;
  for (const int p : priorities) {
    futures.push_back(
        server.submit(make_request("h2", "sto-3g", p)).result);
  }
  server.start();
  server.drain();
  server.stop();
  const std::int64_t expected_seq[] = {3, 0, 2, 1, 4};
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.completion_seq, expected_seq[i])
        << "submission index " << i;
  }
}

// ---------------------------------------------------------- determinism

std::uint64_t energy_bits(const JobResult& r) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.energy, sizeof(bits));
  return bits;
}

std::vector<JobRequest> mixed_jobs() {
  std::vector<JobRequest> jobs;
  jobs.push_back(make_request("h2", "sto-3g"));
  jobs.push_back(make_request("h2", "6-31g"));
  jobs.push_back(make_request("h2", "sto-3g"));
  JobRequest scf = make_request("h2", "sto-3g");
  scf.kind = JobRequest::Kind::kScf;
  jobs.push_back(scf);
  jobs.push_back(make_request("water", "sto-3g"));
  jobs.push_back(make_request("h2", "6-31g"));
  return jobs;
}

TEST(ServeDeterminismTest, ResultsBitwiseIdenticalAcrossPoolSizes) {
  const auto jobs = mixed_jobs();
  const auto reference = run_batch(jobs, 1);
  for (const int workers : {2, 4}) {
    const auto results = run_batch(jobs, workers);
    ASSERT_EQ(results.size(), reference.size());
    for (const auto& [id, r] : results) {
      const JobResult& ref = reference.at(id);
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.g_digest, ref.g_digest) << "job " << id;
      EXPECT_EQ(energy_bits(r), energy_bits(ref)) << "job " << id;
      EXPECT_EQ(r.scf_converged, ref.scf_converged);
      EXPECT_EQ(r.scf_iterations, ref.scf_iterations);
    }
  }
}

TEST(ServeDeterminismTest, PerTenantMetricsCountEveryJob) {
  std::vector<JobRequest> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_request("h2", "sto-3g", 0, /*tenant=*/i % 2));
  }
  util::MetricsRegistry metrics;
  run_batch(jobs, 2, 0.0, &metrics);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve/t0/completed"), 2);
  EXPECT_EQ(snap.counters.at("serve/t1/completed"), 2);
  EXPECT_EQ(snap.histograms.at("serve/t0/latency_seconds").count, 2);
  EXPECT_EQ(snap.histograms.at("serve/t1/latency_seconds").count, 2);
  EXPECT_EQ(snap.counters.at("serve/accepted"), 4);
}

TEST(ServeScfTest, ZeroIterationScfJobFailsWithAMessage) {
  // A bad iteration cap fails at the SCF driver's boundary; the job
  // reports the reason instead of an energy.
  JobRequest scf = make_request("h2", "sto-3g");
  scf.kind = JobRequest::Kind::kScf;
  scf.scf_max_iterations = 0;
  const auto results = run_batch({scf}, 1);
  ASSERT_EQ(results.size(), 1u);
  const JobResult& r = results.begin()->second;
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("max_iterations"), std::string::npos) << r.error;
  EXPECT_EQ(r.energy, 0.0);
  EXPECT_EQ(r.scf_iterations, 0);
}

// --------------------------------------------------------------- faults

TEST(ServeFaultTest, RetriesReplayExactlyAndResultsMatchClean) {
  const auto jobs = mixed_jobs();
  const auto clean = run_batch(jobs, 1);
  std::int64_t retries_ref = -1;
  for (const int workers : {1, 2}) {
    util::MetricsRegistry metrics;
    const auto faulted = run_batch(jobs, workers, /*fail_prob=*/0.5,
                                   &metrics);
    ASSERT_EQ(faulted.size(), clean.size());
    std::int64_t retries = 0;
    for (const auto& [id, r] : faulted) {
      EXPECT_TRUE(r.ok);
      retries += r.attempts - 1;
      const JobResult& ref = clean.at(id);
      EXPECT_EQ(r.g_digest, ref.g_digest);
      EXPECT_EQ(energy_bits(r), energy_bits(ref));
    }
    // Losses are hash(seed, job id, attempt): the total is a pure
    // function of the job list, independent of the pool size.
    EXPECT_GT(retries, 0);
    if (retries_ref < 0) {
      retries_ref = retries;
    } else {
      EXPECT_EQ(retries, retries_ref);
    }
    EXPECT_EQ(metrics.snapshot().counters.at("serve/retries"), retries);
  }
}

// --------------------------------------- const-shareability (TSan gate)

TEST(SharedFockBuilderTest, ConcurrentBuildsOffOneBuilderAreBitwise) {
  // The cross-request cache hands ONE FockBuilder (and its
  // ShellPairList) to every concurrent job. All const methods must be
  // stateless per call: four threads building G off the same builder
  // must reproduce the sequential result bit for bit. Run under TSan in
  // CI — this is the shareability contract's race guard.
  const chem::Molecule molecule = chem::make_named_molecule("water");
  const chem::BasisSet basis = chem::BasisSet::build(molecule, "sto-3g");
  const chem::FockBuilder builder(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());
  linalg::Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      density(i, j) = (i == j ? 1.0 : 0.02);
    }
  }
  const linalg::Matrix reference = builder.build_g(density);

  constexpr int kThreads = 4;
  std::vector<linalg::Matrix> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&builder, &density, &results, t] {
      // Also exercise the shared ShellPairList read path directly.
      const chem::ShellPairList& pairs = builder.shell_pairs();
      (void)pairs.pair(0, 0);
      results[static_cast<std::size_t>(t)] = builder.build_g(density);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const linalg::Matrix& g = results[static_cast<std::size_t>(t)];
    ASSERT_EQ(g.rows(), reference.rows());
    EXPECT_EQ(std::memcmp(g.data(), reference.data(),
                          n * n * sizeof(double)),
              0)
        << "thread " << t;
  }
}

}  // namespace
