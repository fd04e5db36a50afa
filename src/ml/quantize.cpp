#include "ml/quantize.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace wefr::ml {

void QuantizedDataset::build(const data::Matrix& x, std::size_t max_bins,
                             util::ThreadPool* pool) {
  if (x.rows() == 0 || x.cols() == 0)
    throw std::invalid_argument("QuantizedDataset::build: empty matrix");
  if (x.rows() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("QuantizedDataset::build: too many rows");
  max_bins = std::clamp<std::size_t>(max_bins, 2, 256);

  rows_ = x.rows();
  cols_ = x.cols();
  codes_.assign(rows_ * cols_, 0);
  lower_.assign(cols_, {});
  upper_.assign(cols_, {});

  // Columns are independent, so a pool bins contiguous blocks of them
  // in parallel (a few blocks per worker for balance); each block
  // reuses one argsort buffer.
  const std::size_t blocks = pool != nullptr ? std::min(cols_, 4 * pool->size()) : 1;
  auto bin_block = [&](std::size_t b) {
    std::vector<ValueRow> sorted(rows_);
    for (std::size_t f = b * cols_ / blocks; f < (b + 1) * cols_ / blocks; ++f)
      bin_column(x, f, max_bins, sorted);
  };
  if (blocks > 1) {
    pool->parallel_for(blocks, bin_block);
  } else {
    bin_block(0);
  }
}

void QuantizedDataset::bin_column(const data::Matrix& x, std::size_t f, std::size_t max_bins,
                                  std::vector<ValueRow>& sorted) {
  for (std::size_t r = 0; r < rows_; ++r) sorted[r] = {x(r, f), static_cast<std::uint32_t>(r)};
  std::sort(sorted.begin(), sorted.end(),
            [](const ValueRow& a, const ValueRow& b) { return a.value < b.value; });

  auto& lo = lower_[f];
  auto& hi = upper_[f];
  std::uint8_t* col = codes_.data() + f * rows_;

  std::size_t uniques = 1;
  for (std::size_t r = 1; r < rows_; ++r) {
    if (sorted[r].value != sorted[r - 1].value) ++uniques;
  }

  // Each row is coded as the walk passes it: its code is the index of
  // the bin that is open at its sorted position.
  if (uniques <= max_bins) {
    // One bin per distinct value: histogram splits reproduce the
    // exact splitter bit-for-bit on this feature.
    lo.reserve(uniques);
    hi.reserve(uniques);
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == 0 || sorted[r].value != sorted[r - 1].value) {
        lo.push_back(sorted[r].value);
        hi.push_back(sorted[r].value);
      }
      col[sorted[r].row] = static_cast<std::uint8_t>(lo.size() - 1);
    }
  } else {
    // Equal-frequency bins: close a bin once it holds ~rows/max_bins
    // values and the next value differs (ties never straddle bins).
    const std::size_t target = (rows_ + max_bins - 1) / max_bins;
    std::size_t bin_start = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      col[sorted[r].row] = static_cast<std::uint8_t>(lo.size());
      const bool last = r + 1 == rows_;
      const bool boundary = !last && sorted[r].value != sorted[r + 1].value;
      const bool full = r + 1 - bin_start >= target;
      const bool budget_left = lo.size() + 1 < max_bins;
      if (last || (boundary && full && budget_left)) {
        lo.push_back(sorted[bin_start].value);
        hi.push_back(sorted[r].value);
        bin_start = r + 1;
      }
    }
    // Budget exhaustion folds the tail into the final bin above.
  }
}

}  // namespace wefr::ml
