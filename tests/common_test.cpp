// Unit tests for src/common: RNG determinism and distributions, running
// moments, batch statistics, matrices, and table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/error.h"
#include "common/linalg.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace sybiltd {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  Rng parent2(7);
  Rng child2 = parent2.split();
  EXPECT_EQ(child.next(), child2.next());  // deterministic split
  // Child and parent streams differ.
  Rng p(9);
  Rng c = p.split();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (p.next() == c.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, NormalMomentsReasonable) {
  Rng rng(8);
  RunningMoments m;
  for (int i = 0; i < 20000; ++i) m.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(m.mean(), 3.0, 0.1);
  EXPECT_NEAR(m.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.03);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(10);
  double total = 0.0;
  for (int i = 0; i < 20000; ++i) total += rng.exponential(2.0);
  EXPECT_NEAR(total / 20000.0, 0.5, 0.03);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  const auto sample = rng.sample_without_replacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (std::size_t s : sample) EXPECT_LT(s, 20u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningMoments, MatchesBatchFormulas) {
  const std::vector<double> xs{1.0, 2.0, 2.0, 3.0, 7.0, -1.0};
  RunningMoments m;
  for (double x : xs) m.add(x);
  EXPECT_NEAR(m.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(m.variance(), variance(xs), 1e-12);
  EXPECT_NEAR(m.min(), -1.0, 1e-12);
  EXPECT_NEAR(m.max(), 7.0, 1e-12);
}

// The batch mean / variance / stddev take a leaner path than
// RunningMoments but must agree with it to the bit (Eq. 3 and the CRH
// normalizers are pinned bit-identical to the RunningMoments results).
TEST(RunningMoments, BatchMeanAndVarianceAreBitIdentical) {
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  Rng rng(14);
  std::vector<std::vector<double>> samples = {{}, {-0.0}, {3.5}, {-50.0, -50.0}};
  for (std::size_t n = 1; n < 40; ++n) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.normal(-60.0, 10.0) * (rng.bernoulli(0.1) ? 1e6 : 1.0);
    samples.push_back(std::move(xs));
  }
  for (const auto& xs : samples) {
    RunningMoments m;
    for (double x : xs) m.add(x);
    EXPECT_TRUE(same_bits(mean(xs), m.mean())) << "n " << xs.size();
    EXPECT_TRUE(same_bits(variance(xs), m.variance())) << "n " << xs.size();
    EXPECT_TRUE(same_bits(sample_variance(xs), m.sample_variance()))
        << "n " << xs.size();
    EXPECT_TRUE(same_bits(stddev(xs), m.stddev())) << "n " << xs.size();
  }
}

TEST(RunningMoments, MergeEqualsSequential) {
  Rng rng(13);
  RunningMoments all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(1.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(a.skewness(), all.skewness(), 1e-9);
  EXPECT_NEAR(a.excess_kurtosis(), all.excess_kurtosis(), 1e-9);
}

TEST(Stats, SkewnessSignsMakeSense) {
  // Right-tailed data has positive skew.
  const std::vector<double> right{1, 1, 1, 2, 2, 10};
  EXPECT_GT(skewness(right), 0.0);
  const std::vector<double> left{-10, -2, -2, -1, -1, -1};
  EXPECT_LT(skewness(left), 0.0);
  const std::vector<double> sym{-1, 0, 1};
  EXPECT_NEAR(skewness(sym), 0.0, 1e-12);
}

TEST(Stats, KurtosisOfUniformIsNegative) {
  std::vector<double> xs;
  for (int i = 0; i <= 1000; ++i) xs.push_back(i / 1000.0);
  EXPECT_LT(excess_kurtosis(xs), 0.0);  // uniform: -1.2
  EXPECT_NEAR(excess_kurtosis(xs), -1.2, 0.05);
}

TEST(Stats, QuantileAndMedian) {
  const std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_NEAR(median(xs), 3.0, 1e-12);
  EXPECT_NEAR(quantile(xs, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(quantile(xs, 1.0), 5.0, 1e-12);
  EXPECT_NEAR(quantile(xs, 0.25), 2.0, 1e-12);
  EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
}

TEST(Stats, ZeroCrossingRate) {
  const std::vector<double> alternating{1, -1, 1, -1, 1};
  EXPECT_NEAR(zero_crossing_rate(alternating), 1.0, 1e-12);
  const std::vector<double> constant{2, 2, 2};
  EXPECT_NEAR(zero_crossing_rate(constant), 0.0, 1e-12);
}

TEST(Stats, NonNegativeCount) {
  const std::vector<double> xs{-1.0, 0.0, 2.0, -0.5, 3.0};
  EXPECT_EQ(non_negative_count(xs), 3u);
}

TEST(Stats, PearsonCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(xs, zs), -1.0, 1e-12);
  const std::vector<double> constant{5, 5, 5, 5};
  EXPECT_NEAR(pearson_correlation(xs, constant), 0.0, 1e-12);
}

TEST(Stats, RootMeanSquare) {
  const std::vector<double> xs{3.0, -4.0};
  EXPECT_NEAR(root_mean_square(xs), std::sqrt(12.5), 1e-12);
}

TEST(Stats, TrimmedMeanDropsTails) {
  const std::vector<double> xs{1, 2, 3, 4, 100};
  EXPECT_NEAR(trimmed_mean(xs, 0.0), 22.0, 1e-12);
  EXPECT_NEAR(trimmed_mean(xs, 0.2), 3.0, 1e-12);  // drops 1 and 100
  EXPECT_THROW(trimmed_mean(xs, 0.5), std::invalid_argument);
  EXPECT_THROW(trimmed_mean({}, 0.1), std::invalid_argument);
  // Tiny sample with aggressive trim falls back to the median.
  const std::vector<double> pair{1.0, 9.0};
  EXPECT_NEAR(trimmed_mean(pair, 0.49), 5.0, 1e-12);
}

TEST(Stats, MedianAbsoluteDeviation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_NEAR(median_absolute_deviation(xs), 1.0, 1e-12);
  const std::vector<double> constant{7, 7, 7};
  EXPECT_NEAR(median_absolute_deviation(constant), 0.0, 1e-12);
}

TEST(Stats, HuberLocationRobustToOutliers) {
  // 9 values near 10, one wild outlier: Huber stays near 10 while the
  // mean is dragged.
  std::vector<double> xs{9.8, 10.1, 9.9, 10.2, 10.0,
                         9.7, 10.3, 10.0, 9.9,  500.0};
  const double huber = huber_location(xs);
  EXPECT_NEAR(huber, 10.0, 0.5);
  EXPECT_GT(mean(xs), 50.0);
  // On clean Gaussian-ish data it tracks the mean closely.
  const std::vector<double> clean{9.8, 10.1, 9.9, 10.2, 10.0};
  EXPECT_NEAR(huber_location(clean), mean(clean), 0.1);
  // Majority-identical data returns that value untouched.
  const std::vector<double> dup{5.0, 5.0, 5.0, 9.0};
  EXPECT_NEAR(huber_location(dup), 5.0, 1e-9);
  EXPECT_THROW(huber_location(xs, 0.0), std::invalid_argument);
}

TEST(Linalg, SolveSpdMatchesDirectInverse) {
  const Matrix a{{3, 1}, {1, 2}};
  const std::vector<double> b{5.0, 5.0};
  const auto x = solve_spd(a, b);
  // A x = b  =>  x = (1, 2).
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 6.0);
  EXPECT_THROW(m(2, 0), std::invalid_argument);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, TransposeAndProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
  Matrix t = a.transpose();
  EXPECT_EQ(t(0, 1), 3.0);
  EXPECT_THROW(a * Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplication) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ(a * Matrix::identity(2), a);
  EXPECT_EQ(Matrix::identity(2) * a, a);
}

TEST(Matrix, VectorMultiply) {
  Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{1.0, 1.0};
  const auto out = a.multiply(v);
  EXPECT_EQ(out[0], 3.0);
  EXPECT_EQ(out[1], 7.0);
}

TEST(Matrix, ColumnMeansAndCentering) {
  Matrix a{{1, 10}, {3, 20}};
  const auto means = a.column_means();
  EXPECT_EQ(means[0], 2.0);
  EXPECT_EQ(means[1], 15.0);
  a.subtract_row_vector(means);
  EXPECT_EQ(a(0, 0), -1.0);
  EXPECT_EQ(a(1, 1), 5.0);
}

TEST(Matrix, FrobeniusDistance) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{0, 0}, {0, 0}};
  EXPECT_NEAR(a.distance_frobenius(b), std::sqrt(2.0), 1e-12);
}

TEST(TextTable, RendersAlignedTable) {
  TextTable t({"name", "v1", "v2"});
  t.add_row("row", {1.5, std::numeric_limits<double>::quiet_NaN()});
  const std::string rendered = t.render();
  EXPECT_NE(rendered.find("row"), std::string::npos);
  EXPECT_NE(rendered.find("1.50"), std::string::npos);
  EXPECT_NE(rendered.find(" x "), std::string::npos);
  EXPECT_THROW(t.add_row("bad", {1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(TextTable, CsvOutput) {
  const std::string csv =
      to_csv({"a", "b"}, {{1.0, 2.0}, {3.0, 4.0}}, 1);
  EXPECT_NE(csv.find("a,b"), std::string::npos);
  EXPECT_NE(csv.find("1.0,2.0"), std::string::npos);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SYBILTD_CHECK(false, "context message");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sybiltd
