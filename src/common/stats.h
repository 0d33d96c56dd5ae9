// Descriptive statistics shared across the feature extractors, truth
// discovery algorithms and the evaluation harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sybiltd {

// Single-pass accumulator for mean / variance / skewness / kurtosis using
// the numerically stable online moment updates (Pébay 2008).
class RunningMoments {
 public:
  void add(double x);
  void merge(const RunningMoments& other);

  std::size_t count() const { return n_; }
  double mean() const;
  // Population variance (divide by n).  sample_variance divides by n-1.
  double variance() const;
  double sample_variance() const;
  double stddev() const;
  // Fisher–Pearson skewness g1 = m3 / m2^(3/2).  0 for n < 2 or zero var.
  double skewness() const;
  // Excess kurtosis g2 = m4 / m2^2 - 3.  0 for n < 2 or zero variance.
  double excess_kurtosis() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Convenience batch statistics over a span of samples.
double mean(std::span<const double> xs);
double variance(std::span<const double> xs);          // population
double sample_variance(std::span<const double> xs);   // n-1 denominator
double stddev(std::span<const double> xs);            // population
// Eight population standard deviations at once: out[l] equals
// stddev(xs[l]) to the bit.  The eight accumulations are independent, so
// one loop over them overlaps their division chains.
void stddev8(const std::span<const double> (&xs)[8], double (&out)[8]);
double skewness(std::span<const double> xs);
double excess_kurtosis(std::span<const double> xs);
double root_mean_square(std::span<const double> xs);
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);
// Linearly interpolated quantile; q in [0, 1].
double quantile(std::span<const double> xs, double q);
double median(std::span<const double> xs);
// Mean after discarding the `trim` fraction from each tail (trim < 0.5);
// degenerates to the plain mean at trim = 0 and toward the median as
// trim -> 0.5.
double trimmed_mean(std::span<const double> xs, double trim);
// Huber M-estimator of location: iteratively reweighted mean where
// residuals beyond k·MAD get linear (not quadratic) influence.  Robust to
// a minority of outliers while staying efficient on Gaussian data.
double huber_location(std::span<const double> xs, double k = 1.345,
                      std::size_t max_iterations = 50, double tol = 1e-9);
// Median absolute deviation (unscaled).
double median_absolute_deviation(std::span<const double> xs);
// Pearson correlation coefficient; 0 when either side has zero variance.
double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys);

// Rate of sign changes between consecutive samples, in [0, 1].
double zero_crossing_rate(std::span<const double> xs);
// Number of samples >= 0.
std::size_t non_negative_count(std::span<const double> xs);

}  // namespace sybiltd
