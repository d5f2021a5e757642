#pragma once

// Cross-request Fock-builder memo table.
//
// PR 1's shell-pair cache amortizes pair-table construction across the
// quartets of ONE Fock build; a server handling a stream of requests
// re-pays that construction for every request on the same chemistry.
// FockCache promotes the cache one level up: a bounded LRU memo table
// keyed by (molecule name, basis name) whose entries own the parsed
// Molecule, the built BasisSet, and a fully constructed FockBuilder
// (shell pairs + Schwarz bounds). Entries are immutable after
// construction and handed out as shared_ptr<const ...>, so any number of
// concurrent jobs can run builds off one entry (FockBuilder's const
// methods are stateless per call — see chem/fock.hpp) and eviction never
// invalidates an entry a job still holds.
//
// Lookups are single-flight: when several jobs miss on the same key at
// once, exactly one thread constructs the entry while the others block
// on a shared_future — so the miss count equals the number of DISTINCT
// keys built, deterministically, regardless of interleaving. Waiters on
// an in-flight build count as hits (the work was shared, not repeated).

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "chem/basis.hpp"
#include "chem/fock.hpp"
#include "chem/molecule.hpp"
#include "util/metrics.hpp"

namespace emc::serve {

/// One cached chemistry: geometry, basis, and the ready-to-run builder.
/// Heap-allocated exactly once and never moved, so the FockBuilder's
/// internal BasisSet pointer stays valid for the entry's lifetime.
struct FockCacheEntry {
  std::string molecule_name;
  std::string basis_name;
  chem::Molecule molecule;
  chem::BasisSet basis;
  std::unique_ptr<chem::FockBuilder> builder;
};

class FockCache {
 public:
  struct Stats {
    std::int64_t hits = 0;        ///< cache hits + in-flight waits
    std::int64_t misses = 0;      ///< entries actually constructed
    std::int64_t evictions = 0;   ///< entries dropped by LRU pressure
  };

  /// `capacity` bounds the number of RESIDENT entries (>= 1); in-flight
  /// constructions and entries still referenced by jobs live beyond it.
  /// When `metrics` is non-null the cache also publishes
  /// serve/cache_{hits,misses,evictions} counters and a
  /// serve/cache_entries gauge there (registry must outlive the cache).
  explicit FockCache(std::size_t capacity,
                     util::MetricsRegistry* metrics = nullptr);

  /// Returns the entry for (molecule, basis), constructing it on first
  /// use. Blocks if another thread is already constructing the same key.
  /// Throws std::invalid_argument (propagated from the molecule/basis
  /// catalogs) for unknown names; the failure is NOT cached.
  std::shared_ptr<const FockCacheEntry> get(const std::string& molecule,
                                            const std::string& basis);

  Stats stats() const;
  std::size_t size() const;       ///< resident entries
  std::size_t capacity() const { return capacity_; }
  double hit_rate() const;        ///< hits / (hits + misses), 0 when cold

 private:
  struct Resident {
    std::shared_ptr<const FockCacheEntry> entry;
    std::list<std::string>::iterator lru_pos;
  };

  std::shared_ptr<const FockCacheEntry> build_entry(
      const std::string& molecule, const std::string& basis) const;

  std::size_t capacity_;
  util::Counter* hits_metric_ = nullptr;
  util::Counter* misses_metric_ = nullptr;
  util::Counter* evictions_metric_ = nullptr;
  util::Gauge* entries_metric_ = nullptr;

  mutable std::mutex mutex_;
  std::map<std::string, Resident> resident_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::map<std::string,
           std::shared_future<std::shared_ptr<const FockCacheEntry>>>
      inflight_;
  Stats stats_;
};

}  // namespace emc::serve
