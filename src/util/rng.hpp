#pragma once

// Deterministic, seedable pseudo-random number generation.
//
// Every stochastic component in this library (work-stealing victim
// selection, simulator noise models, synthetic workload generators) draws
// from emc::Rng so that experiments are exactly replayable from a printed
// seed. The generator is xoshiro256**, seeded through splitmix64 so that
// small consecutive seeds yield well-decorrelated streams.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace emc {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Maps 64 random bits to a double in [0, 1): the top 53 bits scaled by
/// 2^-53. Rng::uniform and every stateless per-attempt loss decision
/// (splitmix64 of a mixed key, compared against a probability) use it.
constexpr double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// xoshiro256** — fast, high-quality 64-bit PRNG.
/// Satisfies UniformRandomBitGenerator so it can feed <random> adapters.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return unit_interval((*this)()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Uses Lemire's method with rejection to
  /// avoid modulo bias. n == 0 denotes an empty range — e.g. victim
  /// selection on a 1-proc machine, where there is no one to steal from
  /// — and returns 0 without consuming a draw, so degenerate callers
  /// stay replayable and never hit the multiply-by-zero Lemire path.
  std::uint64_t below(std::uint64_t n) {
    if (n == 0) return 0;
    __uint128_t m = static_cast<__uint128_t>((*this)()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate) {
    return -std::log1p(-uniform()) / rate;
  }

  /// Split off an independent child stream (for per-worker RNGs).
  Rng split() {
    std::uint64_t child_seed = (*this)();
    return Rng(child_seed);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace emc
