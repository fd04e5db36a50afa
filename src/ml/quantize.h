#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"
#include "util/thread_pool.h"

namespace wefr::ml {

/// Per-feature equal-frequency quantization of a sample matrix, the
/// standard histogram-GBDT representation (cf. LightGBM): bin edges are
/// computed once per fit, every value is replaced by a <= 256-valued
/// bin code stored column-major, and split finding then accumulates
/// per-bin label/gradient histograms in O(n + bins) per feature per
/// node instead of sorting the node's rows.
///
/// Each column is binned from one argsort: its (value, row) pairs are
/// sorted by value, bins are cut along that order, and every row takes
/// the code of the bin open at its sorted position. Bins are contiguous
/// runs of the sorted values and ties never straddle two bins, so codes
/// are monotone in value: a lower code means a smaller value.
///
/// When a feature has at most `max_bins` distinct values every value
/// gets its own bin (lower == upper), which makes histogram split
/// finding reproduce the exact splitter bit-for-bit — the equivalence
/// the tests pin down. A bin that holds both -0.0 and +0.0 may record
/// either zero as an edge. Values are assumed finite (the data layer
/// imputes NaNs before matrices reach the models).
class QuantizedDataset {
 public:
  QuantizedDataset() = default;

  /// Quantizes all rows of `x` into at most `max_bins` bins per feature
  /// (clamped to [2, 256] so codes fit in a uint8_t). With `pool`,
  /// columns are binned in parallel; the result is identical. Throws
  /// std::invalid_argument on an empty matrix or one with more than
  /// 2^32 - 1 rows.
  void build(const data::Matrix& x, std::size_t max_bins = 256,
             util::ThreadPool* pool = nullptr);

  bool empty() const { return rows_ == 0; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Number of occupied bins for feature `f` (>= 1; 1 for a constant
  /// feature).
  std::size_t num_bins(std::size_t f) const { return lower_[f].size(); }

  /// Column-major code span for feature `f` (length rows()): the bin
  /// index of every row's value.
  std::span<const std::uint8_t> codes(std::size_t f) const {
    return {codes_.data() + f * rows_, rows_};
  }

  /// Smallest / largest raw value that fell into bin `b` of feature `f`.
  double bin_lower(std::size_t f, std::size_t b) const { return lower_[f][b]; }
  double bin_upper(std::size_t f, std::size_t b) const { return upper_[f][b]; }

  /// Split threshold between bins `left` and `right` of feature `f`
  /// (right must be a later bin): the midpoint between the adjacent
  /// raw values, with the exact splitter's guard against the midpoint
  /// rounding up to the right value for adjacent doubles. `x <= threshold`
  /// routes left.
  double threshold_between(std::size_t f, std::size_t left, std::size_t right) const {
    const double lo = upper_[f][left];
    const double hi = lower_[f][right];
    double thr = lo + (hi - lo) / 2.0;
    if (thr >= hi) thr = lo;
    return thr;
  }

 private:
  /// One value of a column and the row it came from.
  struct ValueRow {
    double value;
    std::uint32_t row;
  };

  /// Bins feature `f` into lower_/upper_/codes_; `sorted` is scratch of
  /// length rows().
  void bin_column(const data::Matrix& x, std::size_t f, std::size_t max_bins,
                  std::vector<ValueRow>& sorted);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> codes_;        ///< column-major: codes_[f * rows_ + r]
  std::vector<std::vector<double>> lower_; ///< per feature, per bin: min value
  std::vector<std::vector<double>> upper_; ///< per feature, per bin: max value
};

}  // namespace wefr::ml
