#include "serve/fock_cache.hpp"

#include <stdexcept>
#include <utility>

namespace emc::serve {

FockCache::FockCache(std::size_t capacity, util::MetricsRegistry* metrics)
    : capacity_(capacity) {
  if (capacity_ < 1) {
    throw std::invalid_argument("FockCache: capacity must be >= 1");
  }
  if (metrics != nullptr) {
    hits_metric_ = &metrics->counter("serve/cache_hits");
    misses_metric_ = &metrics->counter("serve/cache_misses");
    evictions_metric_ = &metrics->counter("serve/cache_evictions");
    entries_metric_ = &metrics->gauge("serve/cache_entries");
  }
}

std::shared_ptr<const FockCacheEntry> FockCache::build_entry(
    const std::string& molecule, const std::string& basis) const {
  auto entry = std::make_shared<FockCacheEntry>();
  entry->molecule_name = molecule;
  entry->basis_name = basis;
  entry->molecule = chem::make_named_molecule(molecule);
  entry->basis = chem::BasisSet::build(entry->molecule, basis);
  // The builder keeps a pointer to entry->basis; the entry is
  // shared_ptr-owned and never moved, so the address is stable.
  entry->builder = std::make_unique<chem::FockBuilder>(entry->basis);
  return entry;
}

std::shared_ptr<const FockCacheEntry> FockCache::get(
    const std::string& molecule, const std::string& basis) {
  const std::string key = molecule + "|" + basis;

  std::promise<std::shared_ptr<const FockCacheEntry>> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = resident_.find(key);
    if (it != resident_.end()) {
      ++stats_.hits;
      if (hits_metric_ != nullptr) hits_metric_->add();
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.entry;
    }
    const auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      // Another thread is constructing this key; wait on its future
      // outside the lock. The construction is shared, so this counts as
      // a hit and the miss count stays equal to distinct keys built.
      ++stats_.hits;
      if (hits_metric_ != nullptr) hits_metric_->add();
      auto future = fit->second;
      lock.unlock();
      return future.get();
    }
    ++stats_.misses;
    if (misses_metric_ != nullptr) misses_metric_->add();
    inflight_.emplace(key, promise.get_future().share());
  }

  // Construct outside the lock: basis + shell-pair + Schwarz setup is
  // the expensive part and must not serialize unrelated lookups.
  std::shared_ptr<const FockCacheEntry> entry;
  try {
    entry = build_entry(molecule, basis);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.push_front(key);
    resident_.emplace(key, Resident{entry, lru_.begin()});
    while (resident_.size() > capacity_) {
      const std::string& victim = lru_.back();
      resident_.erase(victim);  // holders' shared_ptrs keep it alive
      lru_.pop_back();
      ++stats_.evictions;
      if (evictions_metric_ != nullptr) evictions_metric_->add();
    }
    if (entries_metric_ != nullptr) {
      entries_metric_->set(static_cast<double>(resident_.size()));
    }
    inflight_.erase(key);
  }
  promise.set_value(entry);
  return entry;
}

FockCache::Stats FockCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t FockCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_.size();
}

double FockCache::hit_rate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t total = stats_.hits + stats_.misses;
  return total > 0
             ? static_cast<double>(stats_.hits) / static_cast<double>(total)
             : 0.0;
}

}  // namespace emc::serve
