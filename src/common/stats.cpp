#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace sybiltd {

void RunningMoments::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

void RunningMoments::merge(const RunningMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double new_mean = mean_ + delta * nb / n;
  const double new_m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double new_m3 = m3_ + other.m3_ +
                        delta3 * na * nb * (na - nb) / (n * n) +
                        3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double new_m4 =
      m4_ + other.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ = new_mean;
  m2_ = new_m2;
  m3_ = new_m3;
  m4_ = new_m4;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningMoments::mean() const { return n_ > 0 ? mean_ : 0.0; }

double RunningMoments::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningMoments::sample_variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

double RunningMoments::skewness() const {
  if (n_ < 2 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double RunningMoments::excess_kurtosis() const {
  if (n_ < 2 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_) - 3.0;
}

double RunningMoments::min() const { return n_ > 0 ? min_ : 0.0; }
double RunningMoments::max() const { return n_ > 0 ? max_ : 0.0; }

namespace {
RunningMoments accumulate(std::span<const double> xs) {
  RunningMoments m;
  for (double x : xs) m.add(x);
  return m;
}

// The mean and m2 updates of RunningMoments::add alone: the same operations
// in the same order, so the results equal accumulate(xs) to the bit, at a
// fraction of the cost (the Eq. 3 aggregate and the CRH normalizers call
// these once per cell and per task).
struct MeanM2 {
  double mean = 0.0;
  double m2 = 0.0;
};
// Adds x as the (i + 1)-th sample.
void add_mean_m2(MeanM2& acc, double x, std::size_t i) {
  const double n1 = static_cast<double>(i);
  const double delta = x - acc.mean;
  const double delta_n = delta / static_cast<double>(i + 1);
  acc.mean += delta_n;
  acc.m2 += delta * delta_n * n1;
}
MeanM2 accumulate_mean_m2(std::span<const double> xs) {
  MeanM2 out;
  for (std::size_t i = 0; i < xs.size(); ++i) add_mean_m2(out, xs[i], i);
  return out;
}
}  // namespace

double mean(std::span<const double> xs) {
  return xs.empty() ? 0.0 : accumulate_mean_m2(xs).mean;
}
double variance(std::span<const double> xs) {
  return xs.empty() ? 0.0
                    : accumulate_mean_m2(xs).m2 / static_cast<double>(xs.size());
}
double sample_variance(std::span<const double> xs) {
  return xs.size() > 1 ? accumulate_mean_m2(xs).m2 /
                             static_cast<double>(xs.size() - 1)
                       : 0.0;
}
double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }
void stddev8(const std::span<const double> (&xs)[8], double (&out)[8]) {
  MeanM2 acc[8];
  std::size_t common = xs[0].size();
  for (int l = 1; l < 8; ++l) common = std::min(common, xs[l].size());
  for (std::size_t i = 0; i < common; ++i) {
    for (int l = 0; l < 8; ++l) add_mean_m2(acc[l], xs[l][i], i);
  }
  for (int l = 0; l < 8; ++l) {
    for (std::size_t i = common; i < xs[l].size(); ++i) {
      add_mean_m2(acc[l], xs[l][i], i);
    }
    out[l] = std::sqrt(
        xs[l].empty() ? 0.0 : acc[l].m2 / static_cast<double>(xs[l].size()));
  }
}
double skewness(std::span<const double> xs) {
  return accumulate(xs).skewness();
}
double excess_kurtosis(std::span<const double> xs) {
  return accumulate(xs).excess_kurtosis();
}

double root_mean_square(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum_sq = 0.0;
  for (double x : xs) sum_sq += x * x;
  return std::sqrt(sum_sq / static_cast<double>(xs.size()));
}

double min_value(std::span<const double> xs) {
  SYBILTD_CHECK(!xs.empty(), "min of empty span");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  SYBILTD_CHECK(!xs.empty(), "max of empty span");
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  SYBILTD_CHECK(!xs.empty(), "quantile of empty span");
  SYBILTD_CHECK(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double trimmed_mean(std::span<const double> xs, double trim) {
  SYBILTD_CHECK(!xs.empty(), "trimmed mean of empty span");
  SYBILTD_CHECK(trim >= 0.0 && trim < 0.5, "trim must be in [0, 0.5)");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t cut = static_cast<std::size_t>(
      trim * static_cast<double>(sorted.size()));
  double total = 0.0;
  std::size_t kept = 0;
  for (std::size_t i = cut; i + cut < sorted.size(); ++i) {
    total += sorted[i];
    ++kept;
  }
  // Over-aggressive trimming on tiny samples falls back to the median.
  if (kept == 0) return median(xs);
  return total / static_cast<double>(kept);
}

double median_absolute_deviation(std::span<const double> xs) {
  SYBILTD_CHECK(!xs.empty(), "MAD of empty span");
  const double center = median(xs);
  std::vector<double> deviations;
  deviations.reserve(xs.size());
  for (double x : xs) deviations.push_back(std::abs(x - center));
  return median(deviations);
}

double huber_location(std::span<const double> xs, double k,
                      std::size_t max_iterations, double tol) {
  SYBILTD_CHECK(!xs.empty(), "Huber location of empty span");
  SYBILTD_CHECK(k > 0.0, "Huber k must be positive");
  double center = median(xs);
  // Scale from the MAD (consistent for Gaussians up to 1.4826).
  const double scale = 1.4826 * median_absolute_deviation(xs);
  if (scale <= 1e-12) return center;  // majority identical: done
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    double num = 0.0, den = 0.0;
    for (double x : xs) {
      const double r = (x - center) / scale;
      const double w = std::abs(r) <= k ? 1.0 : k / std::abs(r);
      num += w * x;
      den += w;
    }
    const double next = num / den;
    const bool done = std::abs(next - center) < tol;
    center = next;
    if (done) break;
  }
  return center;
}

double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) {
  SYBILTD_CHECK(xs.size() == ys.size(), "correlation needs equal lengths");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double zero_crossing_rate(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  std::size_t crossings = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if ((xs[i - 1] >= 0.0) != (xs[i] >= 0.0)) ++crossings;
  }
  return static_cast<double>(crossings) / static_cast<double>(xs.size() - 1);
}

std::size_t non_negative_count(std::span<const double> xs) {
  std::size_t count = 0;
  for (double x : xs) {
    if (x >= 0.0) ++count;
  }
  return count;
}

}  // namespace sybiltd
