// Deterministic pseudo-random number generation for simulation.
//
// All stochastic behaviour in the simulator flows through dm::util::Rng so a
// scenario is fully reproducible from a single 64-bit seed. The generator is
// xoshiro256++ (public domain, Blackman & Vigna), seeded via splitmix64.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace dm::util {

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator, so it
/// can also drive <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from `seed` via splitmix64 so that nearby
  /// seeds yield decorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit draw.
  result_type operator()() noexcept;

  /// Forks an independent child stream; used to give each simulated entity
  /// (VIP, attack episode) its own stream so entities stay decorrelated when
  /// the scenario configuration changes.
  [[nodiscard]] Rng fork() noexcept;

  /// Counter-based stream split: derives the child stream for shard
  /// `stream` as a pure function of the current state and the index,
  /// WITHOUT advancing this generator. split(i) therefore yields the same
  /// stream no matter how many shards exist, which shard asks first, or on
  /// which thread — the property the parallel pipeline leans on to stay
  /// byte-identical across thread counts.
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's rejection
  /// method to avoid modulo bias.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept;

  /// Poisson draw with the given mean. Uses Knuth for small means and a
  /// normal approximation above 64 (adequate for traffic synthesis).
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// The Knuth small-mean Poisson draw, parameterized by exp(-mean)
  /// directly. poisson() computes the exponential on every call; hot
  /// callers whose means repeat (the benign model's day-periodic rates)
  /// memoize exp(-mean) and feed it here — the drawn uniforms, and hence
  /// the stream position, are identical to poisson(mean) for mean < 64.
  [[nodiscard]] std::uint64_t poisson_knuth(double exp_neg_mean) noexcept;

  /// Binomial(n, p) draw. Exact inversion for small n*p, normal
  /// approximation for large — matches how NetFlow sampling thins packets.
  [[nodiscard]] std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  /// Exponential with the given mean (mean > 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Standard normal via Box-Muller (one value per call; no caching so the
  /// stream position is deterministic).
  [[nodiscard]] double normal() noexcept;

  /// Normal with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Log-normal parameterized by the *median* and the multiplicative spread
  /// sigma (of the underlying normal). Heavy-tailed attack intensities and
  /// durations use this.
  [[nodiscard]] double lognormal_median(double median, double sigma) noexcept;

  /// Bounded Pareto with shape alpha on [lo, hi]. Used for tail-heavy fan-in
  /// and campaign sizes.
  [[nodiscard]] double pareto(double alpha, double lo, double hi) noexcept;

  /// Samples an index from an unnormalized weight vector. Returns
  /// weights.size()-1 on accumulated rounding error. Requires a positive sum.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace dm::util
