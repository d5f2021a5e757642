// EXP-14 driver: SCF-as-a-service under load. A multi-tenant stream of
// Fock-build / SCF requests (mixed molecules and basis sets, heavy-
// tailed sizes) is pushed through serve::ScfServer, and the driver
// GATES the serving layer's deterministic contracts while reporting
// advisory latency/throughput envelopes:
//
//   1. Request-level determinism. For a fixed job list, every job's
//      result bits (Fock G digest, SCF energy) are identical across
//      pool sizes {1, 2, 4} — parallelism is across jobs only.
//   2. Cache exactness. Single-flight lookups make the cross-request
//      FockCache's miss count equal the number of DISTINCT (molecule,
//      basis) keys and the hit count the remainder, for any worker
//      interleaving; the LRU eviction scenario replays an exact
//      hit/miss/eviction script.
//   3. Admission exactness. With submission completed before workers
//      start, bounded-queue reject and priority-shed decisions are pure
//      functions of the submission order — exact integers.
//   4. Priority order. With one worker, queued jobs complete in
//      (priority desc, admission seq asc) order — exact permutation.
//   5. Fault replay. Per-attempt job losses are a stateless hash of
//      (seed, job id, attempt): the retry total is exact and results
//      stay bitwise identical to the fault-free run.
//
// Latency percentiles (p50/p99 via the metrics histograms' log-linear
// sub-bins), throughput, and RSS are HOSTWARE: bench_compare treats
// them as advisory. This container is typically 1-core — the open/
// closed-loop cells are an honest envelope, not a scaling claim.
//
// Flags:
//   --smoke        small job counts for CI (default workload is bigger)
//   --seed=S       job-mix + fault seed (default 2014)
//   --jobs=N       jobs per load scenario (default 120; smoke 30)
//   --report=PATH  JSON report output (default BENCH_serve.json)
//
// Exit status: nonzero on any gate violation or an invalid report.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;
using serve::JobRequest;
using serve::JobResult;
using serve::ScfServer;
using serve::ServerOptions;

struct Options {
  bool smoke = false;
  std::uint64_t seed = 2014;
  int jobs = 120;
  std::string report_path = "BENCH_serve.json";
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic result fingerprint: the fields the bitwise-determinism
/// gate compares across pool sizes (timings excluded by construction).
struct ResultBits {
  std::uint64_t g_digest = 0;
  std::uint64_t energy_bits = 0;
  bool ok = false;
  int attempts = 0;
  bool operator==(const ResultBits&) const = default;
};

ResultBits bits_of(const JobResult& r) {
  ResultBits b;
  b.g_digest = r.g_digest;
  std::memcpy(&b.energy_bits, &r.energy, sizeof(b.energy_bits));
  b.ok = r.ok;
  b.attempts = r.attempts;
  return b;
}

/// The heavy-tailed multi-tenant job mix: mostly tiny free-tier Fock
/// builds, a batch tier of medium builds, and a premium tier whose jobs
/// are full SCF runs — drawn deterministically from the seed.
std::vector<JobRequest> make_job_mix(int n, std::uint64_t seed) {
  std::vector<JobRequest> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::uint64_t draw =
        splitmix64(seed ^ (static_cast<std::uint64_t>(i) + 1)) % 100;
    JobRequest req;
    if (draw < 60) {
      // free tier: tiny Fock builds
      req.molecule = "h2";
      req.basis = (draw % 2 == 0) ? "sto-3g" : "6-31g";
      req.kind = JobRequest::Kind::kFockBuild;
      req.tenant = 0;
      req.priority = 0;
    } else if (draw < 90) {
      // batch tier: medium Fock builds
      req.molecule = (draw % 2 == 0) ? "water" : "methane";
      req.basis = "sto-3g";
      req.kind = JobRequest::Kind::kFockBuild;
      req.tenant = 1;
      req.priority = 1;
    } else {
      // premium tier: the heavy tail — full SCF
      req.molecule = "water";
      req.basis = "sto-3g";
      req.kind = JobRequest::Kind::kScf;
      req.tenant = 2;
      req.priority = 2;
    }
    jobs.push_back(std::move(req));
  }
  return jobs;
}

/// Submits all jobs pre-start, runs them on `workers`, returns results
/// indexed by job id. Admission is deterministic (queue sized to fit).
std::map<std::int64_t, JobResult> run_batch(
    const std::vector<JobRequest>& jobs, int workers,
    util::MetricsRegistry* metrics, double fail_prob = 0.0,
    std::uint64_t fault_seed = 17) {
  ServerOptions options;
  options.workers = workers;
  options.queue_capacity = jobs.size() + 1;
  options.cache_capacity = 8;
  options.metrics = metrics;
  options.fail_prob = fail_prob;
  options.fault_seed = fault_seed;
  ScfServer server(options);
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (const JobRequest& req : jobs) {
    auto sub = server.submit(req);
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

int run(const Options& opt) {
  std::cout << "##############################################\n"
            << "# bench_serve (EXP-14)\n"
            << "# claim: multi-tenant SCF serving is deterministic at the\n"
            << "#   request level (bitwise across pool sizes), with exact\n"
            << "#   cache/admission/priority/fault accounting; latency and\n"
            << "#   throughput are reported as an advisory envelope\n"
            << "# seed: " << opt.seed << ", jobs per load scenario: "
            << opt.jobs << "\n"
            << "##############################################\n";

  bool passed = true;
  const auto fail = [&passed](const std::string& what) {
    std::cerr << "FAIL: " << what << "\n";
    passed = false;
  };

  // ---- Scenario 1: request-level determinism across pool sizes. ----
  const std::vector<JobRequest> det_jobs =
      make_job_mix(opt.smoke ? 10 : 24, opt.seed);
  std::map<std::int64_t, JobResult> det_ref;
  struct DetCell {
    int workers = 0;
    std::int64_t jobs_ok = 0;
    bool bitwise_identical_to_p1 = false;
  };
  std::vector<DetCell> det_cells;
  for (const int workers : {1, 2, 4}) {
    auto results = run_batch(det_jobs, workers, nullptr);
    DetCell cell;
    cell.workers = workers;
    for (const auto& [id, r] : results) {
      if (r.ok) ++cell.jobs_ok;
    }
    if (workers == 1) {
      det_ref = results;
      cell.bitwise_identical_to_p1 = true;
    } else {
      cell.bitwise_identical_to_p1 =
          results.size() == det_ref.size() &&
          std::all_of(results.begin(), results.end(), [&](const auto& kv) {
            const auto it = det_ref.find(kv.first);
            return it != det_ref.end() &&
                   bits_of(kv.second) == bits_of(it->second);
          });
    }
    if (cell.jobs_ok != static_cast<std::int64_t>(det_jobs.size())) {
      fail("determinism p" + std::to_string(workers) + ": " +
           std::to_string(cell.jobs_ok) + "/" +
           std::to_string(det_jobs.size()) + " jobs ok");
    }
    if (!cell.bitwise_identical_to_p1) {
      fail("determinism p" + std::to_string(workers) +
           ": results differ from the 1-worker reference");
    }
    det_cells.push_back(cell);
  }

  // ---- Scenario 2: cross-request cache exactness (single-flight). ----
  // Distinct chemistries in det_jobs are known; misses must equal that
  // count and hits the remainder even with 4 workers racing the cache.
  std::int64_t distinct_keys = 0;
  {
    std::map<std::string, int> keys;
    for (const JobRequest& req : det_jobs) {
      keys[req.molecule + "|" + req.basis] += 1;
    }
    distinct_keys = static_cast<std::int64_t>(keys.size());
  }
  util::MetricsRegistry cache_metrics;
  serve::FockCache::Stats cache_stats;
  double cache_hit_rate = 0.0;
  {
    ServerOptions options;
    options.workers = 4;
    options.queue_capacity = det_jobs.size() + 1;
    options.cache_capacity = 8;  // > distinct keys: no eviction noise
    options.metrics = &cache_metrics;
    ScfServer server(options);
    std::vector<std::future<JobResult>> futures;
    for (const JobRequest& req : det_jobs) {
      futures.push_back(server.submit(req).result);
    }
    server.start();
    server.drain();
    server.stop();
    for (auto& f : futures) f.get();
    cache_stats = server.cache().stats();
    cache_hit_rate = server.cache().hit_rate();
  }
  const auto n_det = static_cast<std::int64_t>(det_jobs.size());
  if (cache_stats.misses != distinct_keys) {
    fail("cache: " + std::to_string(cache_stats.misses) +
         " misses, expected " + std::to_string(distinct_keys));
  }
  if (cache_stats.hits != n_det - distinct_keys) {
    fail("cache: " + std::to_string(cache_stats.hits) +
         " hits, expected " + std::to_string(n_det - distinct_keys));
  }
  if (cache_stats.evictions != 0) {
    fail("cache: unexpected evictions");
  }
  if (!(cache_hit_rate > 0.0)) {
    fail("cache: hit rate not positive on repeated requests");
  }

  // ---- Scenario 3: LRU eviction script. ----
  // Capacity 2, one worker, same priority: requests run in FIFO order.
  // Key sequence A B A C A B: A,B miss; A hits; C misses evicting B
  // (LRU); A hits; B misses again evicting C => 4 misses, 2 hits,
  // 2 evictions — exact.
  serve::FockCache::Stats evict_stats;
  {
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 16;
    options.cache_capacity = 2;
    ScfServer server(options);
    const char* seq[] = {"sto-3g", "6-31g", "sto-3g",
                         "6-31g*", "sto-3g", "6-31g"};
    std::vector<std::future<JobResult>> futures;
    for (const char* basis : seq) {
      JobRequest req;
      req.molecule = "h2";
      req.basis = basis;
      futures.push_back(server.submit(req).result);
    }
    server.start();
    server.drain();
    server.stop();
    for (auto& f : futures) f.get();
    evict_stats = server.cache().stats();
  }
  if (evict_stats.misses != 4 || evict_stats.hits != 2 ||
      evict_stats.evictions != 2) {
    fail("eviction script: got " + std::to_string(evict_stats.hits) +
         " hits / " + std::to_string(evict_stats.misses) + " misses / " +
         std::to_string(evict_stats.evictions) +
         " evictions, expected 2/4/2");
  }

  // ---- Scenario 4: bounded-queue reject. ----
  // Submission completes before start(), so exactly capacity jobs are
  // accepted and the rest rejected, with rejected futures resolved.
  ScfServer::Counts reject_counts;
  std::int64_t reject_futures_resolved = 0;
  {
    ServerOptions options;
    options.workers = 2;
    options.queue_capacity = 4;
    options.overload = ServerOptions::Overload::kReject;
    ScfServer server(options);
    std::vector<std::future<JobResult>> futures;
    for (int i = 0; i < 6; ++i) {
      JobRequest req;
      req.molecule = "h2";
      req.basis = "sto-3g";
      futures.push_back(server.submit(req).result);
    }
    server.start();
    server.drain();
    server.stop();
    for (auto& f : futures) {
      const JobResult r = f.get();
      if (!r.ok && r.error == "rejected") ++reject_futures_resolved;
    }
    reject_counts = server.counts();
  }
  if (reject_counts.accepted != 4 || reject_counts.rejected != 2 ||
      reject_counts.completed != 4 || reject_futures_resolved != 2) {
    fail("reject: accepted/rejected/completed = " +
         std::to_string(reject_counts.accepted) + "/" +
         std::to_string(reject_counts.rejected) + "/" +
         std::to_string(reject_counts.completed) + ", expected 4/2/4");
  }

  // ---- Scenario 5: priority shed. ----
  // Capacity 2 fills with priority-0 A,B; a priority-5 arrival sheds
  // the youngest low-priority victim (B); a later priority-0 arrival
  // cannot displace anyone and is itself shed.
  ScfServer::Counts shed_counts;
  bool shed_victim_resolved = false;
  {
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 2;
    options.overload = ServerOptions::Overload::kShed;
    ScfServer server(options);
    JobRequest low;
    low.molecule = "h2";
    low.basis = "sto-3g";
    low.priority = 0;
    JobRequest high = low;
    high.priority = 5;
    auto a = server.submit(low);
    auto b = server.submit(low);
    auto c = server.submit(high);
    auto d = server.submit(low);
    const JobResult rb = b.result.get();  // ready immediately: shed
    shed_victim_resolved = !rb.ok && rb.error == "shed";
    server.start();
    server.drain();
    server.stop();
    a.result.get();
    c.result.get();
    d.result.get();
    shed_counts = server.counts();
  }
  if (shed_counts.accepted != 3 || shed_counts.shed != 2 ||
      shed_counts.completed != 2 || !shed_victim_resolved) {
    fail("shed: accepted/shed/completed = " +
         std::to_string(shed_counts.accepted) + "/" +
         std::to_string(shed_counts.shed) + "/" +
         std::to_string(shed_counts.completed) + ", expected 3/2/2");
  }

  // ---- Scenario 6: priority dispatch order. ----
  // One worker, pre-start submission with priorities [0,2,1,2,0] =>
  // completion order by (priority desc, seq asc): jobs 1,3,2,0,4.
  bool priority_order_exact = true;
  {
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 8;
    ScfServer server(options);
    const int priorities[] = {0, 2, 1, 2, 0};
    std::vector<std::future<JobResult>> futures;
    for (const int p : priorities) {
      JobRequest req;
      req.molecule = "h2";
      req.basis = "sto-3g";
      req.priority = p;
      futures.push_back(server.submit(req).result);
    }
    server.start();
    server.drain();
    server.stop();
    const std::int64_t expected_seq[] = {3, 0, 2, 1, 4};
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const JobResult r = futures[i].get();
      if (r.completion_seq != expected_seq[i]) priority_order_exact = false;
    }
  }
  if (!priority_order_exact) {
    fail("priority order: completion sequence deviates from "
         "(priority desc, seq asc)");
  }

  // ---- Scenario 7: chaos — fault-injected run vs clean run. ----
  util::MetricsRegistry chaos_metrics;
  std::int64_t chaos_retries = 0;
  bool chaos_bitwise = true;
  bool chaos_all_completed = true;
  {
    const auto faulted = run_batch(det_jobs, 2, &chaos_metrics,
                                   /*fail_prob=*/0.4, opt.seed);
    chaos_all_completed = faulted.size() == det_ref.size();
    for (const auto& [id, r] : faulted) {
      chaos_retries += r.attempts - 1;
      const auto it = det_ref.find(id);
      // attempts differ by design; everything else must match bitwise.
      ResultBits clean = it != det_ref.end() ? bits_of(it->second)
                                             : ResultBits{};
      ResultBits chaos = bits_of(r);
      clean.attempts = chaos.attempts = 0;
      if (it == det_ref.end() || !(clean == chaos)) chaos_bitwise = false;
    }
  }
  if (chaos_retries <= 0) fail("chaos: fault injection retried nothing");
  if (!chaos_bitwise) {
    fail("chaos: faulted results deviate from the clean run");
  }
  if (!chaos_all_completed) fail("chaos: not every job completed");

  // ---- Scenarios 8/9: open- and closed-loop load (advisory). ----
  const std::vector<JobRequest> load_jobs =
      make_job_mix(opt.jobs, opt.seed + 1);
  struct TenantStats {
    std::int64_t completed = 0;
    double p50 = 0.0, p99 = 0.0, mean = 0.0;
  };
  struct LoadCell {
    std::string name;
    std::int64_t jobs = 0;
    double wall_seconds = 0.0;
    double jobs_per_sec = 0.0;
    std::map<int, TenantStats> tenants;
  };
  std::vector<LoadCell> load_cells;
  const int load_workers = 2;
  for (const bool open_loop : {true, false}) {
    util::MetricsRegistry metrics;
    ServerOptions options;
    options.workers = load_workers;
    options.queue_capacity = load_jobs.size() + 1;
    options.cache_capacity = 8;
    options.metrics = &metrics;
    ScfServer server(options);
    emc::Timer timer;
    std::vector<std::future<JobResult>> futures;
    if (open_loop) {
      // Open loop: the whole arrival stream lands at t=0 regardless of
      // service progress — queueing delay dominates the tail.
      for (const JobRequest& req : load_jobs) {
        futures.push_back(server.submit(req).result);
      }
      server.start();
    } else {
      // Closed loop: at most 2x workers outstanding — each completion
      // admits the next arrival, so measured latency ~ service time.
      server.start();
      const std::size_t window = static_cast<std::size_t>(2 * load_workers);
      for (const JobRequest& req : load_jobs) {
        if (futures.size() >= window) {
          futures[futures.size() - window].wait();
        }
        futures.push_back(server.submit(req).result);
      }
    }
    server.drain();
    server.stop();
    for (auto& f : futures) f.get();
    LoadCell cell;
    cell.name = open_loop ? "open_loop" : "closed_loop";
    cell.jobs = static_cast<std::int64_t>(load_jobs.size());
    cell.wall_seconds = timer.seconds();
    cell.jobs_per_sec = cell.wall_seconds > 0.0
                            ? static_cast<double>(cell.jobs) /
                                  cell.wall_seconds
                            : 0.0;
    const util::MetricsSnapshot snap = metrics.snapshot();
    for (const int tenant : {0, 1, 2}) {
      TenantStats ts;
      const std::string prefix = "serve/t" + std::to_string(tenant);
      const auto cit = snap.counters.find(prefix + "/completed");
      if (cit != snap.counters.end()) ts.completed = cit->second;
      const auto hit = snap.histograms.find(prefix + "/latency_seconds");
      if (hit != snap.histograms.end()) {
        ts.p50 = hit->second.p50;
        ts.p99 = hit->second.p99;
        ts.mean = hit->second.mean;
      }
      cell.tenants.emplace(tenant, ts);
    }
    std::int64_t total_completed = 0;
    for (const auto& [tenant, ts] : cell.tenants) {
      total_completed += ts.completed;
    }
    if (total_completed != cell.jobs) {
      fail(cell.name + ": completed " + std::to_string(total_completed) +
           " of " + std::to_string(cell.jobs) + " jobs");
    }
    load_cells.push_back(std::move(cell));
  }

  // ---- Human-readable summary. ----
  std::cout << "\ndeterminism: ";
  for (const DetCell& cell : det_cells) {
    std::cout << "p" << cell.workers << "="
              << (cell.bitwise_identical_to_p1 ? "bitwise" : "MISMATCH")
              << " ";
  }
  std::cout << "(" << det_jobs.size() << " jobs, " << distinct_keys
            << " distinct chemistries)\n"
            << "cache: " << cache_stats.hits << " hits / "
            << cache_stats.misses << " misses (rate "
            << cache_hit_rate << "), eviction script "
            << evict_stats.hits << "/" << evict_stats.misses << "/"
            << evict_stats.evictions << "\n"
            << "admission: reject 4/2/4, shed "
            << shed_counts.accepted << "/" << shed_counts.shed << "/"
            << shed_counts.completed << "; priority order "
            << (priority_order_exact ? "exact" : "BROKEN") << "\n"
            << "chaos: " << chaos_retries << " retries, "
            << (chaos_bitwise ? "bitwise vs clean" : "MISMATCH") << "\n";
  for (const LoadCell& cell : load_cells) {
    std::cout << cell.name << ": " << cell.jobs << " jobs in "
              << cell.wall_seconds << "s (" << cell.jobs_per_sec
              << " jobs/s; hostware, "
              << std::thread::hardware_concurrency() << " core(s)):\n";
    for (const auto& [tenant, ts] : cell.tenants) {
      std::printf("  t%d: %lld done, p50=%.2gms p99=%.2gms mean=%.2gms\n",
                  tenant, static_cast<long long>(ts.completed),
                  ts.p50 * 1e3, ts.p99 * 1e3, ts.mean * 1e3);
    }
  }

  // ---- JSON report. ----
  {
    std::ofstream out(opt.report_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << opt.report_path << "\n";
      return 1;
    }
    emc::bench::JsonWriter json(out);
    json.begin_object();
    emc::bench::write_manifest(json, "bench_serve",
                               opt.smoke ? "smoke" : "full", opt.seed);
    json.field("bench", "bench_serve");
    json.field("experiment", "EXP-14");
    json.field("det_jobs", n_det);
    json.field("distinct_chemistries", distinct_keys);
    json.begin_array("determinism_cells");
    for (const DetCell& cell : det_cells) {
      json.begin_object();
      json.field("name", "pool" + std::to_string(cell.workers));
      json.field("workers", cell.workers);
      json.field("jobs_ok", cell.jobs_ok);
      json.field("bitwise_identical_to_p1", cell.bitwise_identical_to_p1);
      json.end_object();
    }
    json.end_array();
    json.begin_object("cache_check");
    json.field("hits", cache_stats.hits);
    json.field("misses", cache_stats.misses);
    json.field("evictions", cache_stats.evictions);
    json.field("hit_rate_positive", cache_hit_rate > 0.0);
    json.end_object();
    json.begin_object("eviction_check");
    json.field("hits", evict_stats.hits);
    json.field("misses", evict_stats.misses);
    json.field("evictions", evict_stats.evictions);
    json.end_object();
    json.begin_object("admission_check");
    json.field("reject_accepted", reject_counts.accepted);
    json.field("reject_rejected", reject_counts.rejected);
    json.field("reject_completed", reject_counts.completed);
    json.field("shed_accepted", shed_counts.accepted);
    json.field("shed_shed", shed_counts.shed);
    json.field("shed_completed", shed_counts.completed);
    json.field("priority_order_exact", priority_order_exact);
    json.end_object();
    json.begin_object("chaos_check");
    json.field("retries", chaos_retries);
    json.field("bitwise_identical_to_clean", chaos_bitwise);
    json.field("all_completed", chaos_all_completed);
    json.end_object();
    json.begin_array("load_cells");
    for (const LoadCell& cell : load_cells) {
      json.begin_object();
      json.field("name", cell.name);
      json.field("jobs", cell.jobs);
      json.field("wall_seconds", cell.wall_seconds);
      json.field("jobs_per_sec", cell.jobs_per_sec);
      json.begin_array("tenants");
      for (const auto& [tenant, ts] : cell.tenants) {
        json.begin_object();
        json.field("name", "t" + std::to_string(tenant));
        json.field("completed", ts.completed);
        json.field("p50_seconds", ts.p50);
        json.field("p99_seconds", ts.p99);
        json.field("mean_seconds", ts.mean);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.begin_object("checks");
    json.field("passed", passed);
    json.end_object();
    emc::bench::write_run_footer(json);
    json.end_object();
  }

  if (const std::string bad = emc::bench::validate_report(opt.report_path);
      !bad.empty()) {
    std::cerr << "FAIL: " << bad << "\n";
    return 1;
  }
  std::cout << "wrote " << opt.report_path << " (validated)\n";

  if (!passed) return 1;
  std::cout << "PASS\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (emc::bench::has_flag(argc, argv, "--smoke")) opt.jobs = 30;
  auto seed = static_cast<std::int64_t>(opt.seed);
  emc::Cli cli("bench_serve", "EXP-14 Fock/SCF service load sweep and gate");
  cli.add_flag("smoke", '\0', "small job mix + gates (CI)", &opt.smoke);
  cli.add_int("seed", '\0', "job-mix seed", &seed);
  cli.add_int("jobs", '\0', "jobs per load point", &opt.jobs);
  cli.add_string("report", '\0', "JSON report path", &opt.report_path);
  if (!cli.parse(argc, argv)) return 2;
  opt.seed = static_cast<std::uint64_t>(seed);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
