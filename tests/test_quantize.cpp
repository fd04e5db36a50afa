#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "data/matrix.h"
#include "ml/quantize.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wefr::ml {
namespace {

using data::Matrix;

TEST(QuantizedDataset, CodesRoundTripToBins) {
  util::Rng rng(1);
  Matrix x(500, 3);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t f = 0; f < x.cols(); ++f) x(i, f) = rng.normal();
  QuantizedDataset q;
  q.build(x, 64);
  EXPECT_EQ(q.rows(), 500u);
  EXPECT_EQ(q.cols(), 3u);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    const auto codes = q.codes(f);
    ASSERT_EQ(codes.size(), x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const std::size_t b = codes[i];
      ASSERT_LT(b, q.num_bins(f));
      EXPECT_GE(x(i, f), q.bin_lower(f, b));
      EXPECT_LE(x(i, f), q.bin_upper(f, b));
    }
  }
}

TEST(QuantizedDataset, SingletonBinsWhenFewUniques) {
  // 7 distinct values, budget 256: every value gets its own bin.
  Matrix x(70, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = static_cast<double>(i % 7);
  QuantizedDataset q;
  q.build(x, 256);
  ASSERT_EQ(q.num_bins(0), 7u);
  for (std::size_t b = 0; b < 7; ++b) {
    EXPECT_DOUBLE_EQ(q.bin_lower(0, b), static_cast<double>(b));
    EXPECT_DOUBLE_EQ(q.bin_upper(0, b), static_cast<double>(b));
  }
  const auto codes = q.codes(0);
  for (std::size_t i = 0; i < x.rows(); ++i)
    EXPECT_EQ(static_cast<double>(codes[i]), x(i, 0));
}

TEST(QuantizedDataset, EqualFrequencyRespectsBudgetAndOrder) {
  util::Rng rng(2);
  Matrix x(10000, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = rng.normal();
  QuantizedDataset q;
  q.build(x, 32);
  const std::size_t bins = q.num_bins(0);
  EXPECT_GE(bins, 2u);
  EXPECT_LE(bins, 32u);
  // Bin edges are ordered and disjoint.
  for (std::size_t b = 0; b < bins; ++b) {
    EXPECT_LE(q.bin_lower(0, b), q.bin_upper(0, b));
    if (b > 0) EXPECT_LT(q.bin_upper(0, b - 1), q.bin_lower(0, b));
  }
  // Codes are monotone in the underlying value.
  const auto codes = q.codes(0);
  for (std::size_t i = 1; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (x(j, 0) < x(i, 0)) {
        ASSERT_LE(codes[j], codes[i]);
      }
      if (j > 32) break;  // spot-check, full O(n^2) is overkill
    }
  }
}

TEST(QuantizedDataset, TiesNeverStraddleBins) {
  // 1000 rows but only 300 distinct values drawn with heavy ties; every
  // occurrence of a value must land in the same bin even when the
  // equal-frequency path (budget 16) is in effect.
  util::Rng rng(3);
  Matrix x(1000, 1);
  for (std::size_t i = 0; i < x.rows(); ++i)
    x(i, 0) = static_cast<double>(rng.uniform_index(300)) / 300.0;
  QuantizedDataset q;
  q.build(x, 16);
  const auto codes = q.codes(0);
  std::map<double, std::uint8_t> value_bin;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto [it, inserted] = value_bin.emplace(x(i, 0), codes[i]);
    if (!inserted) EXPECT_EQ(it->second, codes[i]);
  }
}

TEST(QuantizedDataset, ConstantFeatureOneBin) {
  Matrix x(50, 2, 3.25);
  QuantizedDataset q;
  q.build(x);
  EXPECT_EQ(q.num_bins(0), 1u);
  EXPECT_EQ(q.num_bins(1), 1u);
  EXPECT_DOUBLE_EQ(q.bin_lower(0, 0), 3.25);
  EXPECT_DOUBLE_EQ(q.bin_upper(0, 0), 3.25);
}

TEST(QuantizedDataset, ThresholdBetweenSeparatesBins) {
  Matrix x(4, 1);
  x(0, 0) = 1.0;
  x(1, 0) = 3.0;
  x(2, 0) = 1.0;
  x(3, 0) = std::nextafter(3.0, 4.0);
  QuantizedDataset q;
  q.build(x);
  ASSERT_EQ(q.num_bins(0), 3u);
  // Ordinary gap: midpoint.
  EXPECT_DOUBLE_EQ(q.threshold_between(0, 0, 1), 2.0);
  // Adjacent doubles: the threshold must stay strictly below the right
  // bin (the guard snaps to the left edge when the midpoint rounds up).
  const double thr = q.threshold_between(0, 1, 2);
  EXPECT_GE(thr, 3.0);
  EXPECT_LT(thr, std::nextafter(3.0, 4.0));
}

TEST(QuantizedDataset, MaxBinsClamped) {
  util::Rng rng(4);
  Matrix x(200, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = rng.uniform();
  QuantizedDataset q;
  q.build(x, 1);  // clamped up to 2
  EXPECT_GE(q.num_bins(0), 1u);
  EXPECT_LE(q.num_bins(0), 2u);
  QuantizedDataset q2;
  q2.build(x, 100000);  // clamped down to 256 (codes are uint8)
  EXPECT_LE(q2.num_bins(0), 256u);
}

TEST(QuantizedDataset, PoolBuildMatchesSerial) {
  // More columns than blocks, mixing continuous, tied and constant ones.
  util::Rng rng(9);
  Matrix x(700, 37);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      if (f % 3 == 0) x(i, f) = rng.normal();
      if (f % 3 == 1) x(i, f) = static_cast<double>(rng.uniform_index(5));
      if (f % 3 == 2) x(i, f) = 1.0;
    }
  }
  QuantizedDataset serial, pooled;
  serial.build(x, 64);
  util::ThreadPool pool(3);
  pooled.build(x, 64, &pool);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    ASSERT_EQ(serial.num_bins(f), pooled.num_bins(f));
    for (std::size_t b = 0; b < serial.num_bins(f); ++b) {
      EXPECT_EQ(serial.bin_lower(f, b), pooled.bin_lower(f, b));
      EXPECT_EQ(serial.bin_upper(f, b), pooled.bin_upper(f, b));
    }
    const auto a = serial.codes(f), c = pooled.codes(f);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), c.begin()));
  }
}

TEST(QuantizedDataset, ThrowsOnEmptyMatrix) {
  QuantizedDataset q;
  Matrix empty(0, 0);
  EXPECT_THROW(q.build(empty), std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace wefr::ml
