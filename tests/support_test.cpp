// Unit tests for src/support: rng, stats, format, table, ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <sstream>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/id.hpp"
#include "src/support/rng.hpp"
#include "src/support/stats.hpp"
#include "src/support/table.hpp"

namespace automap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalFactorHasMedianOne) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.lognormal_factor(0.1));
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], 1.0, 0.01);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, LognormalSigmaZeroIsIdentity) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.lognormal_factor(0.0), 1.0);
  EXPECT_EQ(rng.next(), Rng(3).next()) << "sigma = 0 makes no draw";
}

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

TEST(Rng, NormalMatchesStandardNormalDistribution) {
  // 10^6 draws per seed. Each tolerance is about 5 standard errors of its
  // statistic; the KS bound is the 1% critical value 1.63 / sqrt(n).
  constexpr int n = 1'000'000;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<double> xs(n);
    double sum = 0.0;
    for (double& x : xs) sum += (x = rng.normal());
    const double mean = sum / n;
    double m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (const double x : xs) {
      const double d = x - mean;
      m2 += d * d;
      m3 += d * d * d;
      m4 += d * d * d * d;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    EXPECT_NEAR(mean, 0.0, 0.005);
    EXPECT_NEAR(m2, 1.0, 0.007);
    EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 0.012);
    EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.025);

    // Tail masses beyond 2, beyond R (the base strip's edge) and beyond 4,
    // each within 4 binomial standard deviations of the exact value.
    for (const double t : {2.0, ziggurat::kR, 4.0}) {
      const double p = std::erfc(t / std::numbers::sqrt2);
      const auto beyond = std::count_if(
          xs.begin(), xs.end(), [t](double x) { return std::abs(x) > t; });
      EXPECT_NEAR(static_cast<double>(beyond), n * p,
                  4.0 * std::sqrt(n * p * (1.0 - p)))
          << "P(|Z| > " << t << ")";
    }

    std::sort(xs.begin(), xs.end());
    double ks = 0.0;
    for (int i = 0; i < n; ++i) {
      const double cdf = phi(xs[i]);
      ks = std::max({ks, (i + 1.0) / n - cdf, cdf - static_cast<double>(i) / n});
    }
    EXPECT_LT(ks, 1.63 / std::sqrt(static_cast<double>(n)));
  }
}

TEST(Rng, NormalReachesRectangleWedgeAndTail) {
  // Replays each draw's first next() on a copy of the generator to tell
  // which path the ziggurat took: a rectangle accepts u * x[i] from that
  // value alone, an accepted wedge point costs one more uniform, and a tail
  // draw (layer 0 outside the rectangle) lands beyond R with u's sign.
  Rng rng(1);
  int rectangles = 0, wedges = 0, tails = 0;
  for (int draw = 0; draw < 1'000'000 && (!rectangles || !wedges || !tails);
       ++draw) {
    Rng probe = rng;
    const std::uint64_t bits = probe.next();
    const std::size_t layer = bits & 0xff;
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    const double z = rng.normal();
    if (std::abs(u) < ziggurat::kRatio[layer]) {
      ++rectangles;
      EXPECT_EQ(z, u * ziggurat::kX[layer]);
      EXPECT_EQ(Rng(rng).next(), probe.next()) << "one next() per rectangle";
    } else if (layer == 0) {
      ++tails;
      EXPECT_GT(std::abs(z), ziggurat::kR);
      EXPECT_EQ(z < 0.0, u < 0.0);
    } else if (z == u * ziggurat::kX[layer]) {
      ++wedges;
      EXPECT_GE(std::abs(z), ziggurat::kX[layer + 1]);
      probe.next();
      EXPECT_EQ(Rng(rng).next(), probe.next()) << "one uniform per wedge test";
    }
  }
  EXPECT_GT(rectangles, 0);
  EXPECT_GT(wedges, 0);
  EXPECT_GT(tails, 0);
}

TEST(Rng, ZigguratTableHasEqualAreaStrips) {
  using ziggurat::kR, ziggurat::kV, ziggurat::kX, ziggurat::kRatio;
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  EXPECT_EQ(kX[1], kR);
  EXPECT_EQ(kX[256], 0.0);
  EXPECT_NEAR(kX[0] * f(kR), kV, 1e-12 * kV) << "base strip width";
  // Layer i >= 1 spans heights f(x[i]) to f(x[i+1]); the recurrence gives
  // every layer below the top the area kV.
  for (std::size_t i = 1; i < 255; ++i) {
    EXPECT_LT(kX[i + 1], kX[i]) << i;
    EXPECT_NEAR(kX[i] * (f(kX[i + 1]) - f(kX[i])), kV, 1e-12 * kV)
        << "strip " << i;
  }
  for (std::size_t i = 0; i < 256; ++i)
    EXPECT_EQ(kRatio[i], kX[i + 1] / kX[i]) << i;
  // (R, V) is the pair for which the recurrence closes: the top strip,
  // capped by f(0) = 1, and the base strip, whose true area is the
  // rectangle plus the tail integral, both have area V to within the 12
  // significant digits V is quoted with.
  EXPECT_NEAR(kX[255] * (1.0 - f(kX[255])), kV, 1e-8 * kV) << "top strip";
  const double tail =
      std::sqrt(std::numbers::pi / 2) * std::erfc(kR / std::numbers::sqrt2);
  EXPECT_NEAR(kR * f(kR) + tail, kV, 1e-10 * kV) << "base strip area";
}

TEST(Rng, NormalStreamIsPinned) {
  // The first draws of Rng(1). A change to the generator shows up here and
  // is a deliberate re-pin (with sim_golden_test's noisy rows).
  constexpr double kFirst[] = {
      0x1.b7cf9d5ef7cdcp-2,  0x1.dd9d669d7aa6fp-6,  0x1.8c40ffdda60cbp-2,
      -0x1.1b5bddfb977b1p-2, 0x1.48073d257a9b8p-1,  -0x1.afd136e743774p+0,
      -0x1.4e09a7ab3de64p-1, -0x1.46447c58c0d17p-2};
  Rng rng(1);
  for (const double pinned : kFirst) {
    const double z = rng.normal();
    std::ostringstream os;
    os << std::hexfloat << z;
    EXPECT_EQ(z, pinned) << "actual " << os.str();
  }
  EXPECT_EQ(sizeof(Rng), 32u) << "xoshiro256** state only, no cached draw";
}

TEST(Rng, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
  EXPECT_THROW(rng.lognormal_factor(-0.5), Error);
}

TEST(OnlineStats, MeanAndVarianceMatchClosedForm) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(17), "17 B");
  EXPECT_EQ(format_bytes(1024), "1.0 KiB");
  EXPECT_EQ(format_bytes(16ull << 30), "16.0 GiB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
  EXPECT_EQ(format_seconds(0.0123), "12.30 ms");
  EXPECT_EQ(format_seconds(45e-6), "45.0 us");
}

TEST(Format, FixedAndSpeedup) {
  EXPECT_EQ(format_fixed(1.005, 2), "1.00");
  EXPECT_EQ(format_speedup(2.414), "2.41x");
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"app", "speedup"});
  t.add_row({"circuit", "2.41x"});
  t.add_row({"stencil", "1.85x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| app     |"), std::string::npos);
  EXPECT_NE(out.find("2.41x"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Id, StrongTyping) {
  const TaskId t(3);
  EXPECT_EQ(t.value(), 3u);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(TaskId().valid());
  EXPECT_LT(TaskId(1), TaskId(2));
}

TEST(Id, HashIsUsable) {
  std::hash<TaskId> h;
  EXPECT_NE(h(TaskId(1)), h(TaskId(2)));
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
}

}  // namespace
}  // namespace automap
