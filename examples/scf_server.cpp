// SCF-as-a-service quickstart: stand up an in-process ScfServer, submit
// a small multi-tenant request mix, and print per-job results plus the
// cross-request cache and admission accounting.
//
//   ./scf_server [--workers N] [--queue N] [--cache N]
//
// Three tenants share the server: a free tier of tiny Fock builds, a
// batch tier of medium builds, and a premium tier running full SCF at
// the highest priority. Repeated (molecule, basis) pairs hit the shared
// FockCache, so only the distinct chemistries pay shell-pair + Schwarz
// construction.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"

int main(int argc, char** argv) try {
  using emc::serve::JobRequest;
  using emc::serve::JobResult;
  using emc::serve::ScfServer;
  using emc::serve::ServerOptions;

  int workers = 2;
  std::int64_t queue = 32;
  std::int64_t cache = 4;
  emc::Cli cli("scf_server", "Multi-tenant SCF-as-a-service quickstart");
  cli.add_int("workers", '\0', "worker threads", &workers);
  cli.add_int("queue", '\0', "queue capacity in jobs", &queue);
  cli.add_int("cache", '\0', "FockCache capacity in entries", &cache);
  if (!cli.parse(argc, argv)) return 2;
  if (workers < 1 || queue < 1 || cache < 1) {
    std::cerr << "scf_server: --workers, --queue and --cache must be >= 1\n";
    return 2;
  }

  ServerOptions options;
  options.workers = workers;
  options.queue_capacity = static_cast<std::size_t>(queue);
  options.cache_capacity = static_cast<std::size_t>(cache);
  emc::util::MetricsRegistry metrics;
  options.metrics = &metrics;

  ScfServer server(options);
  server.start();

  struct Spec {
    const char* molecule;
    const char* basis;
    JobRequest::Kind kind;
    int tenant;
    int priority;
  };
  const Spec specs[] = {
      {"h2", "sto-3g", JobRequest::Kind::kFockBuild, 0, 0},
      {"h2", "6-31g", JobRequest::Kind::kFockBuild, 0, 0},
      {"water", "sto-3g", JobRequest::Kind::kFockBuild, 1, 1},
      {"h2", "sto-3g", JobRequest::Kind::kFockBuild, 0, 0},
      {"water", "sto-3g", JobRequest::Kind::kScf, 2, 2},
      {"methane", "sto-3g", JobRequest::Kind::kFockBuild, 1, 1},
      {"h2", "6-31g", JobRequest::Kind::kFockBuild, 0, 0},
      {"h2", "sto-3g", JobRequest::Kind::kScf, 2, 2},
  };
  std::vector<std::future<JobResult>> futures;
  for (const Spec& s : specs) {
    JobRequest req;
    req.molecule = s.molecule;
    req.basis = s.basis;
    req.kind = s.kind;
    req.tenant = s.tenant;
    req.priority = s.priority;
    auto sub = server.submit(req);
    if (sub.admit != ScfServer::Admit::kAccepted) {
      std::cout << "request " << s.molecule << "/" << s.basis
                << " not admitted\n";
    }
    futures.push_back(std::move(sub.result));
  }

  server.drain();
  std::cout << "job  tenant  chemistry           result\n";
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    const Spec& s = specs[i];
    std::printf("%3lld  t%d      %-8s/%-8s  ",
                static_cast<long long>(r.job_id), s.tenant, s.molecule,
                s.basis);
    if (!r.ok) {
      std::cout << "FAILED: " << r.error << "\n";
    } else if (s.kind == JobRequest::Kind::kScf) {
      std::printf("E = %.10f Ha (%d iterations)\n", r.energy,
                  r.scf_iterations);
    } else {
      std::printf("|G| = %.6f (digest %016llx)\n", r.g_norm,
                  static_cast<unsigned long long>(r.g_digest));
    }
  }

  const auto cache_stats = server.cache().stats();
  const auto counts = server.counts();
  server.stop();
  std::cout << "\ncache: " << cache_stats.hits << " hits, "
            << cache_stats.misses << " misses, " << cache_stats.evictions
            << " evictions (hit rate " << server.cache().hit_rate()
            << ")\n"
            << "admission: " << counts.accepted << " accepted, "
            << counts.rejected << " rejected, " << counts.shed
            << " shed; " << counts.completed << " completed\n";

  const auto snap = metrics.snapshot();
  for (const int tenant : {0, 1, 2}) {
    const std::string name =
        "serve/t" + std::to_string(tenant) + "/latency_seconds";
    const auto it = snap.histograms.find(name);
    if (it == snap.histograms.end()) continue;
    std::printf("t%d latency: p50=%.2gms p99=%.2gms (%lld jobs)\n", tenant,
                it->second.p50 * 1e3, it->second.p99 * 1e3,
                static_cast<long long>(it->second.count));
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "scf_server: " << e.what() << "\n";
  return 2;
}
