// Deterministic random number generation for the simulator.
//
// All randomness in a simulation flows from a single seed through
// explicitly-split substreams, so any experiment is reproducible from its
// seed alone (required for the ground-truth validation experiments, where
// the same world must be measured twice).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace dohperf::netsim {

/// xoshiro256** generator seeded via splitmix64.
///
/// Small, fast, and good enough statistically for latency sampling; we do
/// not use std::mt19937 because its state is bulky to split per-client.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Lognormal parameterised by its *median* and the underlying normal's
  /// sigma: exp(ln(median) + sigma*Z). Median-parameterisation matches how
  /// the paper reports latencies (medians everywhere).
  double lognormal_median(double median, double sigma);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Derives an independent substream labelled by `tag`; deterministic in
  /// (parent seed, tag).
  [[nodiscard]] Rng split(std::uint64_t tag) const;

  /// Derives a substream from a string label (FNV-1a hashed).
  [[nodiscard]] Rng split(std::string_view tag) const;

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;  ///< Original seed, kept for split().
};

/// The FNV-1a 64 offset basis, 14695981039346656037.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// 1469598103934665603: the offset basis with its last decimal digit
/// missing. Spec hashes (stamped into every output) and the
/// regional-blackout phase were computed from it, so they keep it.
inline constexpr std::uint64_t kShortFnvBasis = 1469598103934665603ULL;

/// FNV-1a 64 of `s` from `basis`: the string hash behind
/// Rng::split(tag), spec hashes and every other stable per-string value.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s,
                                    std::uint64_t basis = kFnvOffsetBasis);

}  // namespace dohperf::netsim
