#include "netsim/random.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace dohperf::netsim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t fnv1a64(std::string_view s, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(next() % range);
}

double Rng::normal() {
  // Box-Muller; discard the second variate for statelessness.
  double u1 = uniform();
  const double u2 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal_median(double median, double sigma) {
  return median * std::exp(sigma * normal());
}

double Rng::exponential(double mean) {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) {
  return uniform() < std::clamp(p, 0.0, 1.0);
}

Rng Rng::split(std::uint64_t tag) const {
  // Mix seed and tag through splitmix so substreams are uncorrelated.
  std::uint64_t x = seed_ ^ (tag * 0x9e3779b97f4a7c15ULL + 0x1234abcd5678ef01ULL);
  return Rng(splitmix64(x));
}

Rng Rng::split(std::string_view tag) const {
  return split(fnv1a64(tag));
}

}  // namespace dohperf::netsim
