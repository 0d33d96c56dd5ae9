#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace sybiltd {

namespace {

// SplitMix64 step, used to expand the seed into the xoshiro state.
std::uint64_t split_mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = split_mix(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split() { return Rng(next() ^ 0xa5a5a5a55a5a5a5aULL); }

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SYBILTD_CHECK(lo <= hi, "uniform bounds out of order");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  SYBILTD_CHECK(n > 0, "uniform_index needs n > 0");
  // Lemire's nearly-divisionless bounded sampling with rejection.
  while (true) {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l >= n || l >= (-n) % n) return static_cast<std::uint64_t>(m >> 64);
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SYBILTD_CHECK(lo <= hi, "uniform_int bounds out of order");
  std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  SYBILTD_CHECK(stddev >= 0.0, "normal stddev must be non-negative");
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  SYBILTD_CHECK(p >= 0.0 && p <= 1.0, "bernoulli p out of [0,1]");
  return uniform() < p;
}

double Rng::exponential(double lambda) {
  SYBILTD_CHECK(lambda > 0.0, "exponential rate must be positive");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  SYBILTD_CHECK(k <= n, "cannot sample more items than the population");
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  // Partial Fisher–Yates: the first k slots become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + static_cast<std::size_t>(uniform_index(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace sybiltd
