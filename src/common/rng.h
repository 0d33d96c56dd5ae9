// Deterministic, splittable random number generation.
//
// Every stochastic component in sybiltd takes an explicit seed so that
// experiments are reproducible bit-for-bit.  Rng wraps a SplitMix64-seeded
// xoshiro256++ generator and offers the distributions the rest of the code
// needs.  split() derives an independent child stream, which lets a scenario
// hand out per-user / per-device generators without correlation.
#pragma once

#include <cstdint>
#include <vector>

namespace sybiltd {

// xoshiro256++ PRNG with convenience distributions.  Satisfies the
// UniformRandomBitGenerator requirements so it can also drive <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  // Derive an independent child generator.  Successive calls yield distinct
  // streams; the parent's own sequence advances as well.
  Rng split();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Box–Muller (cached spare value).
  double normal();
  // Normal with mean/stddev.
  double normal(double mean, double stddev);
  // Bernoulli trial.
  bool bernoulli(double p);
  // Exponential with rate lambda (> 0).
  double exponential(double lambda);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) in random order (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace sybiltd
