#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "data/matrix.h"
#include "ml/metrics.h"
#include "ml/quantize.h"
#include "ml/tree.h"
#include "util/rng.h"

namespace wefr::ml {
namespace {

using data::Matrix;

/// Two well-separated Gaussian blobs on feature 0; feature 1 is noise.
void make_blobs(std::size_t n, Matrix& x, std::vector<int>& y, util::Rng& rng,
                double gap = 4.0) {
  x = Matrix(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = i % 2 == 0 ? 0 : 1;
    x(i, 0) = rng.normal(y[i] == 0 ? 0.0 : gap, 1.0);
    x(i, 1) = rng.normal();
  }
}

TEST(DecisionTree, LearnsSeparableData) {
  util::Rng rng(1);
  Matrix x;
  std::vector<int> y;
  make_blobs(400, x, y, rng, 8.0);
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    correct += ((tree.predict_proba(x.row(i)) >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.98);
}

TEST(DecisionTree, PureNodeIsSingleLeaf) {
  util::Rng rng(2);
  Matrix x(10, 1);
  std::vector<int> y(10, 1);
  for (std::size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_proba(x.row(0)), 1.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  util::Rng rng(3);
  Matrix x(512, 1);
  std::vector<int> y(512);
  for (std::size_t i = 0; i < 512; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<int>((i / 2) % 2);  // alternating pairs: hard to separate
  }
  TreeOptions opt;
  opt.max_depth = 3;
  DecisionTree tree;
  tree.fit(x, y, opt, rng);
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTree, MinSamplesLeafHonored) {
  util::Rng rng(4);
  Matrix x;
  std::vector<int> y;
  make_blobs(100, x, y, rng);
  TreeOptions opt;
  opt.min_samples_leaf = 40;
  DecisionTree tree;
  tree.fit(x, y, opt, rng);
  // With leaves of >= 40 of 100 samples, at most one split chain.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTree, ConstantFeaturesYieldLeaf) {
  util::Rng rng(5);
  Matrix x(20, 2, 1.0);
  std::vector<int> y(20);
  for (std::size_t i = 0; i < 20; ++i) y[i] = i % 2;
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict_proba(x.row(0)), 0.5, 1e-12);
}

TEST(DecisionTree, ImportanceConcentratesOnSignal) {
  util::Rng rng(6);
  Matrix x;
  std::vector<int> y;
  make_blobs(600, x, y, rng, 6.0);
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  const auto& imp = tree.impurity_importance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 10.0 * imp[1]);
}

TEST(DecisionTree, BootstrapIndicesWithRepeats) {
  util::Rng rng(7);
  Matrix x;
  std::vector<int> y;
  make_blobs(50, x, y, rng, 8.0);
  // Degenerate bootstrap: one sample drawn 50 times.
  const std::vector<std::size_t> rows = {3};
  const std::vector<std::uint32_t> counts = {50};
  DecisionTree tree;
  tree.fit(x, y, rows, counts, TreeOptions{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_proba(x.row(3)), static_cast<double>(y[3]));
}

TEST(DecisionTree, ThrowsBeforeFitAndOnBadInput) {
  DecisionTree tree;
  const std::vector<double> row = {0.0};
  EXPECT_THROW(tree.predict_proba(row), std::logic_error);
  util::Rng rng(8);
  Matrix x(2, 1);
  std::vector<int> y = {0};
  EXPECT_THROW(tree.fit(x, y, TreeOptions{}, rng), std::invalid_argument);
}

TEST(DecisionTree, DeterministicForSeed) {
  util::Rng rng1(9), rng2(9);
  Matrix x;
  std::vector<int> y;
  util::Rng data_rng(10);
  make_blobs(200, x, y, data_rng);
  TreeOptions opt;
  opt.max_features = 1;  // makes the rng matter
  DecisionTree t1, t2;
  t1.fit(x, y, opt, rng1);
  t2.fit(x, y, opt, rng2);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(t1.predict_proba(x.row(i)), t2.predict_proba(x.row(i)));
  }
}

TEST(DecisionTree, XorNeedsDepthTwo) {
  util::Rng rng(11);
  const std::size_t n = 400;
  Matrix x(n, 2);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = rng.bernoulli(0.5) ? 1 : 0;
    const int b = rng.bernoulli(0.5) ? 1 : 0;
    x(i, 0) = a + rng.normal(0, 0.1);
    x(i, 1) = b + rng.normal(0, 0.1);
    y[i] = a ^ b;
  }
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    correct += ((tree.predict_proba(x.row(i)) >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(n), 0.95);
  EXPECT_GE(tree.depth(), 2);
}

// ---------- histogram vs exact splitter ----------

std::string tree_dump(const DecisionTree& t) {
  std::ostringstream os;
  t.save(os);
  return os.str();
}

/// Noisy integer-grid data: every feature has <= 12 distinct values, so
/// the quantizer gives each value its own bin and the histogram split
/// search must reproduce the exact splitter's thresholds verbatim.
void make_grid(std::size_t n, Matrix& x, std::vector<int>& y, util::Rng& rng) {
  x = Matrix(n, 3);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = static_cast<int>(rng.uniform_index(12));
    const int b = static_cast<int>(rng.uniform_index(8));
    x(i, 0) = static_cast<double>(a);
    x(i, 1) = static_cast<double>(b);
    x(i, 2) = static_cast<double>(rng.uniform_index(5));
    y[i] = (a >= 6) ^ (b >= 4 && rng.bernoulli(0.3)) ? 1 : 0;
  }
}

TEST(DecisionTree, HistogramMatchesExactOnCoarseData) {
  util::Rng data_rng(21);
  Matrix x;
  std::vector<int> y;
  make_grid(800, x, y, data_rng);

  TreeOptions exact, hist;
  exact.split_method = SplitMethod::kExact;
  hist.split_method = SplitMethod::kHistogram;
  util::Rng r1(5), r2(5);
  DecisionTree te, th;
  te.fit(x, y, exact, r1);
  th.fit(x, y, hist, r2);
  EXPECT_EQ(tree_dump(te), tree_dump(th));
  for (std::size_t i = 0; i < x.rows(); ++i)
    EXPECT_DOUBLE_EQ(te.predict_proba(x.row(i)), th.predict_proba(x.row(i)));
}

TEST(DecisionTree, AutoRoutesByCutoff) {
  util::Rng data_rng(22);
  Matrix x;
  std::vector<int> y;
  make_grid(600, x, y, data_rng);

  TreeOptions lo, hi, hist, exact;
  lo.split_method = SplitMethod::kAuto;
  lo.histogram_cutoff = 1;  // everything goes histogram
  hi.split_method = SplitMethod::kAuto;
  hi.histogram_cutoff = 100000;  // everything stays exact
  hist.split_method = SplitMethod::kHistogram;
  exact.split_method = SplitMethod::kExact;

  util::Rng r(9);
  DecisionTree t_lo, t_hi, t_hist, t_exact;
  t_lo.fit(x, y, lo, r);
  t_hi.fit(x, y, hi, r);
  t_hist.fit(x, y, hist, r);
  t_exact.fit(x, y, exact, r);
  EXPECT_EQ(tree_dump(t_lo), tree_dump(t_hist));
  EXPECT_EQ(tree_dump(t_hi), tree_dump(t_exact));
}

TEST(DecisionTree, SharedQuantizedMatchesLocalQuantization) {
  util::Rng data_rng(23);
  Matrix x;
  std::vector<int> y;
  make_grid(500, x, y, data_rng);
  QuantizedDataset q;
  q.build(x, 256);

  std::vector<std::size_t> rows(x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::vector<std::uint32_t> counts(x.rows(), 1);
  TreeOptions opt;
  opt.split_method = SplitMethod::kHistogram;
  util::Rng r1(3), r2(3);
  DecisionTree shared, local;
  shared.fit(x, y, rows, counts, opt, r1, &q);
  local.fit(x, y, rows, counts, opt, r2, nullptr);
  EXPECT_EQ(tree_dump(shared), tree_dump(local));
}

TEST(DecisionTree, SharedQuantizedShapeMismatchThrows) {
  util::Rng data_rng(24);
  Matrix x;
  std::vector<int> y;
  make_grid(100, x, y, data_rng);
  Matrix other(100, 1, 0.0);
  QuantizedDataset q;
  q.build(other);
  std::vector<std::size_t> rows(x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::vector<std::uint32_t> counts(x.rows(), 1);
  TreeOptions opt;
  opt.split_method = SplitMethod::kHistogram;
  util::Rng r(3);
  DecisionTree t;
  EXPECT_THROW(t.fit(x, y, rows, counts, opt, r, &q), std::invalid_argument);
}

/// Fits `opt` on (rows, counts) and on a matrix holding `counts[i]`
/// physical copies of row `rows[i]`; the two dumps must match.
void expect_counts_match_copies(const Matrix& x, const std::vector<int>& y,
                                const std::vector<std::size_t>& rows,
                                const std::vector<std::uint32_t>& counts, const TreeOptions& opt) {
  std::size_t total = 0;
  for (std::uint32_t c : counts) total += c;
  Matrix copies(total, x.cols());
  std::vector<int> copy_y;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::uint32_t k = 0; k < counts[i]; ++k) {
      for (std::size_t f = 0; f < x.cols(); ++f) copies(copy_y.size(), f) = x(rows[i], f);
      copy_y.push_back(y[rows[i]]);
    }
  }
  util::Rng r1(17), r2(17);
  DecisionTree weighted, repeated;
  weighted.fit(x, y, rows, counts, opt, r1);
  repeated.fit(copies, copy_y, opt, r2);
  EXPECT_EQ(tree_dump(weighted), tree_dump(repeated));
}

TEST(DecisionTree, CountsMatchMaterializedRepeats) {
  // Continuous and tied columns: ties put several distinct rows into one
  // run of equal values, on top of the bootstrap's repeated rows.
  util::Rng data_rng(26);
  Matrix x;
  std::vector<int> y;
  make_blobs(300, x, y, data_rng, 1.5);
  Matrix wide(x.rows(), 3);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    wide(i, 0) = x(i, 0);
    wide(i, 1) = x(i, 1);
    wide(i, 2) = static_cast<double>(data_rng.uniform_index(4));
  }

  std::vector<std::uint32_t> drawn(wide.rows(), 0);
  for (std::size_t k = 0; k < wide.rows(); ++k) ++drawn[data_rng.uniform_index(wide.rows())];
  std::vector<std::size_t> rows;
  std::vector<std::uint32_t> counts;
  for (std::size_t i = 0; i < drawn.size(); ++i) {
    if (drawn[i] == 0) continue;
    rows.push_back(i);
    counts.push_back(drawn[i]);
  }
  ASSERT_LT(rows.size(), wide.rows());  // the bootstrap did repeat rows

  for (const std::size_t leaf : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE(leaf);
    TreeOptions opt;
    opt.split_method = SplitMethod::kExact;
    opt.min_samples_leaf = leaf;
    opt.max_features = 2;  // the rng picks candidates, as in a forest
    expect_counts_match_copies(wide, y, rows, counts, opt);
  }
}

TEST(DecisionTree, BucketedExactMatchesSortedExact) {
  // An exact_node_cutoff above the weighted sample count sends every
  // node of the histogram fit to the exact search, which then orders
  // rows by their bin codes; the kExact fit is never quantized and
  // comparison-sorts raw values. The two trees must be byte-identical.
  util::Rng data_rng(28);
  const std::size_t n = 1500;
  Matrix x(n, 5);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(data_rng.uniform_index(40));      // one value per bin
    x(i, 1) = 0.5 * static_cast<double>(data_rng.uniform_index(200));
    // ~1000 distinct values with ties: several values and repeats per bin.
    x(i, 2) = std::round(data_rng.normal() * 200.0) / 200.0;
    // Continuous, with a block of signed zeros inside one bin.
    const std::size_t zero = data_rng.uniform_index(10);
    x(i, 3) = zero == 0 ? -0.0 : zero == 1 ? 0.0 : data_rng.normal();
    x(i, 4) = data_rng.normal();
    const double score = 0.1 * x(i, 0) + x(i, 2) - 0.5 * x(i, 3) + data_rng.normal();
    y[i] = score > 2.5 ? 1 : 0;
  }

  std::vector<std::uint32_t> drawn(n, 0);
  for (std::size_t k = 0; k < n; ++k) ++drawn[data_rng.uniform_index(n)];
  std::vector<std::size_t> rows;
  std::vector<std::uint32_t> counts;
  for (std::size_t i = 0; i < n; ++i) {
    if (drawn[i] == 0) continue;
    rows.push_back(i);
    counts.push_back(drawn[i]);
  }

  QuantizedDataset q;
  q.build(x, 256);
  ASSERT_LE(q.num_bins(0), 40u);
  ASSERT_GT(q.num_bins(3), 100u);
  std::size_t multi_value_bins = 0;
  for (std::size_t b = 0; b < q.num_bins(2); ++b)
    multi_value_bins += q.bin_lower(2, b) < q.bin_upper(2, b) ? 1 : 0;
  ASSERT_GT(multi_value_bins, 100u);

  TreeOptions bucketed, sorted;
  for (TreeOptions* opt : {&bucketed, &sorted}) {
    opt->min_samples_leaf = 5;
    opt->max_features = 3;
  }
  bucketed.split_method = SplitMethod::kHistogram;
  bucketed.exact_node_cutoff = n + 1;
  sorted.split_method = SplitMethod::kExact;
  util::Rng r1(29), r2(29);
  DecisionTree tb, ts;
  tb.fit(x, y, rows, counts, bucketed, r1, &q);
  ts.fit(x, y, rows, counts, sorted, r2);
  EXPECT_GT(tb.node_count(), 50u);
  EXPECT_EQ(tree_dump(tb), tree_dump(ts));
}

TEST(DecisionTree, RejectsBadCounts) {
  util::Rng rng(27);
  Matrix x;
  std::vector<int> y;
  make_blobs(10, x, y, rng);
  const std::vector<std::size_t> rows = {0, 1};
  const std::vector<std::uint32_t> one = {1};
  const std::vector<std::uint32_t> zero = {1, 0};
  const std::vector<std::size_t> out_of_range = {0, 10};
  const std::vector<std::uint32_t> ones = {1, 1};
  DecisionTree t;
  EXPECT_THROW(t.fit(x, y, rows, one, TreeOptions{}, rng), std::invalid_argument);
  EXPECT_THROW(t.fit(x, y, rows, zero, TreeOptions{}, rng), std::invalid_argument);
  EXPECT_THROW(t.fit(x, y, out_of_range, ones, TreeOptions{}, rng), std::invalid_argument);
}

TEST(DecisionTree, HistogramCloseToExactOnContinuousData) {
  // Continuous features exceed the bin budget, so the trees differ —
  // but the learned ranking should be nearly as good.
  util::Rng data_rng(25);
  Matrix x;
  std::vector<int> y;
  make_blobs(4000, x, y, data_rng, 2.0);

  TreeOptions exact, hist;
  exact.split_method = SplitMethod::kExact;
  hist.split_method = SplitMethod::kHistogram;
  hist.max_bins = 64;
  util::Rng r1(7), r2(7);
  DecisionTree te, th;
  te.fit(x, y, exact, r1);
  th.fit(x, y, hist, r2);

  std::vector<double> pe(x.rows()), ph(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    pe[i] = te.predict_proba(x.row(i));
    ph[i] = th.predict_proba(x.row(i));
  }
  const double auc_e = auc(pe, y);
  const double auc_h = auc(ph, y);
  EXPECT_GT(auc_h, 0.8);
  EXPECT_NEAR(auc_e, auc_h, 0.02);
}

}  // namespace
}  // namespace wefr::ml
