#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace emc::util {

namespace {

/// Relaxed CAS accumulate for atomic<double> (no fetch_add pre-C++20 on
/// all targets, and we only need eventual consistency).
void atomic_add(std::atomic<double>& target, double delta) {
  double observed = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double observed = target.load(std::memory_order_relaxed);
  while (value < observed &&
         !target.compare_exchange_weak(observed, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double observed = target.load(std::memory_order_relaxed);
  while (value > observed &&
         !target.compare_exchange_weak(observed, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::add(double delta) { atomic_add(value_, delta); }

void Histogram::record(double value) {
  int fine = 0;
  if (value > 0.0) {
    int exp = 0;
    const double m = std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
    int bin = exp - 1 - kMinExp;  // floor(log2(value)) - kMinExp
    int sub = 0;
    if (bin < 0) {
      bin = 0;  // below range: clamp to the very first sub-bin
    } else if (bin >= kBins) {
      bin = kBins - 1;  // above range: clamp to the very last sub-bin
      sub = kSubBins - 1;
    } else {
      // Mantissa in [0.5, 1) maps linearly onto the kSubBins sub-bins.
      sub = static_cast<int>((m - 0.5) * 2.0 * kSubBins);
      if (sub < 0) sub = 0;
      if (sub >= kSubBins) sub = kSubBins - 1;
    }
    fine = bin * kSubBins + sub;
  }
  bins_[static_cast<std::size_t>(fine)].fetch_add(1,
                                                  std::memory_order_relaxed);
  const std::int64_t before =
      count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  if (before == 0) {
    // First sample initializes min/max; races with concurrent first
    // samples resolve through the min/max CAS loops below.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, value, std::memory_order_relaxed);
  }
  atomic_min(min_, value);
  atomic_max(max_, value);
}

double Histogram::mean() const {
  const std::int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

std::array<std::int64_t, Histogram::kBins> Histogram::bins() const {
  std::array<std::int64_t, kBins> out{};
  for (int f = 0; f < kFineBins; ++f) {
    out[static_cast<std::size_t>(f / kSubBins)] +=
        bins_[static_cast<std::size_t>(f)].load(std::memory_order_relaxed);
  }
  return out;
}

std::array<std::int64_t, Histogram::kFineBins> Histogram::fine_bins() const {
  std::array<std::int64_t, kFineBins> out{};
  for (int f = 0; f < kFineBins; ++f) {
    out[static_cast<std::size_t>(f)] =
        bins_[static_cast<std::size_t>(f)].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::bin_lower_bound(int bin) {
  return std::ldexp(1.0, bin + kMinExp);
}

double Histogram::fine_lower_bound(int fine) {
  const int bin = fine / kSubBins;
  const int sub = fine % kSubBins;
  return bin_lower_bound(bin) *
         (1.0 + static_cast<double>(sub) / static_cast<double>(kSubBins));
}

double Histogram::fine_upper_bound(int fine) {
  const int bin = fine / kSubBins;
  const int sub = fine % kSubBins;
  return bin_lower_bound(bin) *
         (1.0 + static_cast<double>(sub + 1) / static_cast<double>(kSubBins));
}

void Histogram::reset() {
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

namespace {

/// Create-or-get under the registry lock; `others` are the same-name
/// maps of the other metric kinds (cross-kind reuse is a bug).
template <typename Map, typename... OtherMaps>
typename Map::mapped_type::element_type& resolve(
    std::shared_mutex& mutex, Map& map, const std::string& name,
    const OtherMaps&... others) {
  {
    std::shared_lock lock(mutex);
    const auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex);
  if ((... || (others.find(name) != others.end()))) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as another kind");
  }
  auto& slot = map[name];
  if (!slot) {
    slot = std::make_unique<typename Map::mapped_type::element_type>();
  }
  return *slot;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  return resolve(mutex_, counters_, name, gauges_, histograms_);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return resolve(mutex_, gauges_, name, counters_, histograms_);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return resolve(mutex_, histograms_, name, counters_, gauges_);
}

double MetricsSnapshot::HistogramValue::percentile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Prefer the linear sub-bins (1/kSubBins-of-a-power-of-2 resolution);
  // hand-built snapshot values without them fall back to the log2 bins.
  const bool have_fine = !fine.empty();
  const auto& support = have_fine ? fine : bins;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (const auto& [lower, n] : support) {
    const double here = static_cast<double>(n);
    if (seen + here >= target) {
      const double frac = here > 0.0 ? (target - seen) / here : 0.0;
      // Recover the bin's exclusive upper edge from its lower edge: a
      // linear sub-bin spans 1/kSubBins of its power-of-two bracket
      // [L, 2L) (lower is in [L, 2L), so L = 2^(exp-1)); a log2 bin
      // spans the whole bracket.
      double upper;
      if (have_fine) {
        int exp = 0;
        std::frexp(lower, &exp);
        upper = lower + std::ldexp(1.0, exp - 1) /
                            static_cast<double>(Histogram::kSubBins);
      } else {
        upper = 2.0 * lower;
      }
      // Interpolate over the bin's support intersected with the
      // observed sample range, so the first/last bins don't smear the
      // estimate below min or above max.
      double lo = std::max(lower, min);
      double hi = std::min(upper, max);
      if (hi < lo) {
        lo = lower;
        hi = upper;
      }
      const double estimate = lo + frac * (hi - lo);
      return std::clamp(estimate, min, max);
    }
    seen += here;
  }
  return max;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::shared_lock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue v;
    v.count = h->count();
    v.sum = h->sum();
    v.min = h->min();
    v.max = h->max();
    v.mean = h->mean();
    const auto bins = h->bins();
    for (int b = 0; b < Histogram::kBins; ++b) {
      const std::int64_t n = bins[static_cast<std::size_t>(b)];
      if (n > 0) v.bins.emplace_back(Histogram::bin_lower_bound(b), n);
    }
    const auto fine = h->fine_bins();
    for (int f = 0; f < Histogram::kFineBins; ++f) {
      const std::int64_t n = fine[static_cast<std::size_t>(f)];
      if (n > 0) v.fine.emplace_back(Histogram::fine_lower_bound(f), n);
    }
    v.p50 = v.percentile(0.50);
    v.p90 = v.percentile(0.90);
    v.p99 = v.percentile(0.99);
    snap.histograms.emplace(name, std::move(v));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::shared_lock lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::clear() {
  std::unique_lock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::size_t MetricsRegistry::size() const {
  std::shared_lock lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace emc::util
