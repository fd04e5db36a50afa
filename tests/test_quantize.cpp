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

/// Bin edges and codes of one column, as built before the argsort walk:
/// sort the values, cut bins along them, then code every row by binary
/// search over the bin upper edges.
struct ReferenceColumn {
  std::vector<double> lower, upper;
  std::vector<std::uint8_t> codes;
};

ReferenceColumn reference_bin_column(const std::vector<double>& values, std::size_t max_bins) {
  ReferenceColumn ref;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rows = sorted.size();
  std::size_t uniques = 1;
  for (std::size_t r = 1; r < rows; ++r) uniques += sorted[r] != sorted[r - 1] ? 1 : 0;
  if (uniques <= max_bins) {
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == 0 || sorted[r] != sorted[r - 1]) {
        ref.lower.push_back(sorted[r]);
        ref.upper.push_back(sorted[r]);
      }
    }
  } else {
    const std::size_t target = (rows + max_bins - 1) / max_bins;
    std::size_t bin_start = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const bool last = r + 1 == rows;
      const bool boundary = !last && sorted[r] != sorted[r + 1];
      const bool full = r + 1 - bin_start >= target;
      const bool budget_left = ref.lower.size() + 1 < max_bins;
      if (last || (boundary && full && budget_left)) {
        ref.lower.push_back(sorted[bin_start]);
        ref.upper.push_back(sorted[r]);
        bin_start = r + 1;
      }
    }
  }
  for (const double v : values) {
    const auto it = std::lower_bound(ref.upper.begin(), ref.upper.end(), v);
    ref.codes.push_back(static_cast<std::uint8_t>(
        it == ref.upper.end() ? ref.upper.size() - 1
                              : static_cast<std::size_t>(it - ref.upper.begin())));
  }
  return ref;
}

TEST(QuantizedDataset, ArgsortBuildMatchesReference) {
  // One column per case, rows in shuffled order so codes are written
  // out of row order.
  const std::size_t rows = 1024;
  util::Rng rng(11);
  std::vector<std::size_t> order(rows);
  for (std::size_t i = 0; i < rows; ++i) order[i] = i;
  for (std::size_t i = rows - 1; i > 0; --i) std::swap(order[i], order[rng.uniform_index(i + 1)]);

  Matrix x(rows, 6);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t k = order[i];
    x(i, 0) = static_cast<double>(k % 7);  // few distinct values
    // Runs of 30 equal values against a target of 103 (budget 10): the
    // run that fills a bin continues past the target and closes it late.
    x(i, 1) = static_cast<double>(k / 30);
    // Distinct values, rows == 8 * target: every bin is used and the
    // last one takes the tail.
    x(i, 2) = rng.normal();
    // Distinct values, then a long run of ties at the top that the
    // final bin must absorb.
    x(i, 3) = k < 900 ? static_cast<double>(k) : 900.0;
    x(i, 4) = 2.5;                         // constant
    x(i, 5) = k % 3 == 0 ? -1.0 : 4.0;     // two values
  }
  const std::size_t budgets[] = {256, 10, 8, 3, 256, 2};

  util::ThreadPool pool(3);
  for (const bool pooled : {false, true}) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      SCOPED_TRACE(::testing::Message() << "feature " << f << (pooled ? " pooled" : " serial"));
      Matrix col(rows, 1);
      std::vector<double> values(rows);
      for (std::size_t i = 0; i < rows; ++i) col(i, 0) = values[i] = x(i, f);
      const ReferenceColumn ref = reference_bin_column(values, budgets[f]);
      QuantizedDataset q;
      q.build(col, budgets[f], pooled ? &pool : nullptr);
      ASSERT_EQ(q.num_bins(0), ref.lower.size());
      for (std::size_t b = 0; b < ref.lower.size(); ++b) {
        EXPECT_EQ(q.bin_lower(0, b), ref.lower[b]);
        EXPECT_EQ(q.bin_upper(0, b), ref.upper[b]);
      }
      const auto codes = q.codes(0);
      EXPECT_TRUE(std::equal(codes.begin(), codes.end(), ref.codes.begin()));
    }
  }

  // The whole matrix at one budget, serial and pooled: same edges and
  // codes as the reference on every column.
  QuantizedDataset serial, pooled;
  serial.build(x, 8);
  pooled.build(x, 8, &pool);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    std::vector<double> values(rows);
    for (std::size_t i = 0; i < rows; ++i) values[i] = x(i, f);
    const ReferenceColumn ref = reference_bin_column(values, 8);
    for (const QuantizedDataset* q : {&serial, &pooled}) {
      ASSERT_EQ(q->num_bins(f), ref.lower.size());
      for (std::size_t b = 0; b < ref.lower.size(); ++b) {
        EXPECT_EQ(q->bin_lower(f, b), ref.lower[b]);
        EXPECT_EQ(q->bin_upper(f, b), ref.upper[b]);
      }
      const auto codes = q->codes(f);
      EXPECT_TRUE(std::equal(codes.begin(), codes.end(), ref.codes.begin()));
    }
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
