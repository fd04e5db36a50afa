#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ml/quantize.h"

namespace wefr::ml {

namespace {

double gini(std::size_t pos, std::size_t n) {
  if (n == 0) return 0.0;
  const double p = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

/// Best split of one feature over the node's samples.
struct SplitCandidate {
  bool valid = false;
  double threshold = 0.0;
  double impurity_decrease = -1.0;  // weighted by node fraction later
};

}  // namespace

/// Everything one fit's recursion shares: the training data, the
/// resolved options, and scratch buffers that would otherwise be
/// reallocated at every node (candidate features, the exact splitter's
/// ordered entries and bucket offsets, the histogram accumulators).
struct DecisionTree::BuildContext {
  /// Exact splitter entry: one distinct row's value, weight and the
  /// positive part of that weight.
  struct ValueCount {
    double value;
    std::uint32_t count;
    std::uint32_t pos;
  };

  const data::Matrix& x;
  const TreeOptions& opt;
  util::Rng& rng;
  std::size_t n_total = 0;  ///< weighted sample count of the whole fit
  /// Non-null selects histogram split finding.
  const QuantizedDataset* quantized = nullptr;

  std::vector<std::size_t> features;
  std::vector<ValueCount> sorted;       ///< exact: node entries by value
  std::vector<std::uint32_t> bucket;    ///< exact, quantized: entries per code, then offsets
  std::vector<std::size_t> bin_count;  ///< histogram: weighted samples per bin
  std::vector<std::size_t> bin_pos;    ///< histogram: weighted positives per bin
};

namespace {

using Sample = DecisionTree::Sample;

/// Fills `ctx.sorted` with the node's entries for `feature` in value
/// order without a comparison sort across bins. Codes are monotone in
/// value, so a counting sort on them orders the bins; a row in a
/// single-value bin takes that value from the bin edge instead of a
/// gather from the row-major matrix, and only rows that share a
/// multi-value bin compare raw values (insertion sort: such a bin holds
/// a handful of a small node's rows).
void bucket_by_code(DecisionTree::BuildContext& ctx, std::span<const Sample> node,
                    std::size_t feature) {
  const QuantizedDataset& q = *ctx.quantized;
  const std::uint8_t* codes = q.codes(feature).data();
  auto& start = ctx.bucket;  // all zero between calls

  std::size_t first = 255, last = 0;
  for (const Sample& s : node) {
    const std::uint8_t b = codes[s.row];
    ++start[b];
    first = std::min<std::size_t>(first, b);
    last = std::max<std::size_t>(last, b);
  }
  std::uint32_t offset = 0;
  for (std::size_t b = first; b <= last; ++b) {
    const std::uint32_t size = start[b];
    start[b] = offset;
    offset += size;
  }

  auto& entries = ctx.sorted;
  entries.resize(node.size());
  for (const Sample& s : node) {
    const std::uint8_t b = codes[s.row];
    const double lower = q.bin_lower(feature, b);
    const double value = lower == q.bin_upper(feature, b) ? lower : ctx.x(s.row, feature);
    entries[start[b]++] = {value, s.count, s.pos};
  }

  // start[b] is now the end of bin b's run, so a run begins where the
  // previous bin's ends.
  std::uint32_t begin = 0;
  for (std::size_t b = first; b <= last; ++b) {
    const std::uint32_t end = start[b];
    start[b] = 0;
    if (end - begin < 2 || q.bin_lower(feature, b) == q.bin_upper(feature, b)) {
      begin = end;
      continue;
    }
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const auto e = entries[i];
      std::uint32_t j = i;
      for (; j > begin && entries[j - 1].value > e.value; --j) entries[j] = entries[j - 1];
      entries[j] = e;
    }
    begin = end;
  }
}

/// `n` and `node_pos` are the node's weighted size and positives. Entries
/// are ordered by value alone (bucketed by code when the fit is
/// quantized, comparison-sorted otherwise); each run of equal values is
/// accumulated before its boundary is scored, so the candidates,
/// thresholds and tie-breaks are those of a sort over every repeated
/// sample, whatever the order inside a run.
SplitCandidate best_split_exact(DecisionTree::BuildContext& ctx,
                                std::span<const Sample> node, std::size_t feature,
                                std::size_t n, std::size_t node_pos) {
  const TreeOptions& opt = ctx.opt;

  auto& scratch = ctx.sorted;
  if (ctx.quantized != nullptr) {
    bucket_by_code(ctx, node, feature);
  } else {
    scratch.clear();
    for (const Sample& s : node) scratch.push_back({ctx.x(s.row, feature), s.count, s.pos});
    std::sort(scratch.begin(), scratch.end(),
              [](const auto& a, const auto& b) { return a.value < b.value; });
  }

  SplitCandidate best;
  if (scratch.front().value == scratch.back().value) return best;  // constant feature

  const double parent = gini(node_pos, n);
  std::size_t n_left = 0, pos_left = 0;
  for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
    n_left += scratch[i].count;
    pos_left += scratch[i].pos;
    if (scratch[i].value == scratch[i + 1].value) continue;  // not a boundary
    const std::size_t n_right = n - n_left;
    if (n_left < opt.min_samples_leaf || n_right < opt.min_samples_leaf) continue;
    const std::size_t pos_right = node_pos - pos_left;
    const double child =
        (static_cast<double>(n_left) * gini(pos_left, n_left) +
         static_cast<double>(n_right) * gini(pos_right, n_right)) /
        static_cast<double>(n);
    const double decrease = parent - child;
    if (decrease > best.impurity_decrease) {
      best.valid = true;
      best.impurity_decrease = decrease;
      // Midpoint threshold; `x <= threshold` routes left.
      const double lo = scratch[i].value, hi = scratch[i + 1].value;
      best.threshold = lo + (hi - lo) / 2.0;
      // Guard: midpoint can round to the upper value for adjacent doubles.
      if (best.threshold >= hi) best.threshold = lo;
    }
  }
  return best;
}

SplitCandidate best_split_histogram(DecisionTree::BuildContext& ctx,
                                    std::span<const Sample> node, std::size_t feature,
                                    std::size_t n, std::size_t node_pos) {
  const QuantizedDataset& q = *ctx.quantized;
  const TreeOptions& opt = ctx.opt;
  const std::size_t bins = q.num_bins(feature);

  SplitCandidate best;
  if (bins < 2) return best;  // constant feature

  const std::uint8_t* codes = q.codes(feature).data();
  auto& cnt = ctx.bin_count;
  auto& pos = ctx.bin_pos;
  std::fill(cnt.begin(), cnt.begin() + static_cast<std::ptrdiff_t>(bins), 0);
  std::fill(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(bins), 0);
  for (const Sample& s : node) {
    const std::uint8_t b = codes[s.row];
    cnt[b] += s.count;
    pos[b] += s.pos;
  }

  const double parent = gini(node_pos, n);
  // Scan boundaries between consecutive *node-occupied* bins so the
  // threshold is the midpoint of the node's adjacent raw values — the
  // exact splitter's choice whenever bins hold single distinct values.
  std::size_t n_left = 0, pos_left = 0;
  std::size_t prev = bins;  // sentinel: no occupied bin seen yet
  for (std::size_t b = 0; b < bins; ++b) {
    if (cnt[b] == 0) continue;
    if (prev != bins) {
      const std::size_t n_right = n - n_left;
      if (n_left >= opt.min_samples_leaf && n_right >= opt.min_samples_leaf) {
        const std::size_t pos_right = node_pos - pos_left;
        const double child =
            (static_cast<double>(n_left) * gini(pos_left, n_left) +
             static_cast<double>(n_right) * gini(pos_right, n_right)) /
            static_cast<double>(n);
        const double decrease = parent - child;
        if (decrease > best.impurity_decrease) {
          best.valid = true;
          best.impurity_decrease = decrease;
          best.threshold = q.threshold_between(feature, prev, b);
        }
      }
    }
    n_left += cnt[b];
    pos_left += pos[b];
    prev = b;
  }
  return best;
}

}  // namespace

void DecisionTree::fit(const data::Matrix& x, std::span<const int> y,
                       std::span<const std::size_t> rows, std::span<const std::uint32_t> counts,
                       const TreeOptions& opt, util::Rng& rng,
                       const QuantizedDataset* quantized) {
  if (x.rows() != y.size()) throw std::invalid_argument("DecisionTree::fit: shape mismatch");
  if (rows.size() != counts.size())
    throw std::invalid_argument("DecisionTree::fit: rows/counts size mismatch");
  if (rows.empty()) throw std::invalid_argument("DecisionTree::fit: no samples");
  if (x.rows() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("DecisionTree::fit: too many rows");

  std::vector<Sample> samples(rows.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= x.rows()) throw std::invalid_argument("DecisionTree::fit: row out of range");
    if (counts[i] == 0) throw std::invalid_argument("DecisionTree::fit: zero count");
    samples[i] = {static_cast<std::uint32_t>(rows[i]), counts[i], y[rows[i]] != 0 ? counts[i] : 0};
    total += counts[i];
  }

  bool histogram = false;
  switch (opt.split_method) {
    case SplitMethod::kExact:
      histogram = false;
      break;
    case SplitMethod::kHistogram:
      histogram = true;
      break;
    case SplitMethod::kAuto:
      histogram = quantized != nullptr || total >= opt.histogram_cutoff;
      break;
  }

  QuantizedDataset local;
  const QuantizedDataset* q = nullptr;
  if (histogram) {
    if (quantized != nullptr) {
      if (quantized->rows() != x.rows() || quantized->cols() != x.cols())
        throw std::invalid_argument("DecisionTree::fit: quantized shape mismatch");
      q = quantized;
    } else {
      local.build(x, opt.max_bins);
      q = &local;
    }
  }

  nodes_.clear();
  importance_.assign(x.cols(), 0.0);
  // Every leaf holds at least one distinct row and min_samples_leaf
  // weighted samples, which bounds the leaves and so the 2*leaves - 1
  // nodes; the depth limit bounds the count independently at
  // 2^(depth+1) - 1.
  const std::size_t max_leaves =
      std::min(samples.size(), total / std::max<std::size_t>(1, opt.min_samples_leaf));
  const std::size_t by_leaf = 2 * max_leaves + 1;
  const std::size_t by_depth =
      opt.max_depth < 30 ? (std::size_t{2} << opt.max_depth) - 1 : by_leaf;
  nodes_.reserve(std::min(by_leaf, by_depth));

  BuildContext ctx{x, opt, rng, total, q, {}, {}, {}, {}, {}};
  if (q != nullptr) {
    ctx.bucket.assign(256, 0);
    std::size_t most_bins = 0;
    for (std::size_t f = 0; f < x.cols(); ++f) most_bins = std::max(most_bins, q->num_bins(f));
    ctx.bin_count.resize(most_bins);
    ctx.bin_pos.resize(most_bins);
  }
  build(ctx, samples, 0, samples.size(), 0);
}

void DecisionTree::fit(const data::Matrix& x, std::span<const int> y, const TreeOptions& opt,
                       util::Rng& rng) {
  std::vector<std::size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  const std::vector<std::uint32_t> counts(x.rows(), 1);
  fit(x, y, rows, counts, opt, rng);
}

std::int32_t DecisionTree::build(BuildContext& ctx, std::vector<Sample>& samples,
                                 std::size_t begin, std::size_t end, int depth) {
  const data::Matrix& x = ctx.x;
  const TreeOptions& opt = ctx.opt;

  std::size_t n = 0, node_pos = 0;
  for (std::size_t i = begin; i < end; ++i) {
    n += samples[i].count;
    node_pos += samples[i].pos;
  }

  const std::int32_t me = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[me].prob = static_cast<double>(node_pos) / static_cast<double>(n);
  nodes_[me].depth = depth;

  const bool pure = node_pos == 0 || node_pos == n;
  if (pure || depth >= opt.max_depth || n < opt.min_samples_split) return me;

  // Candidate features: all, or a per-node random subset (forest mode).
  // `ctx.features` is only consumed before the recursive calls below, so
  // one buffer serves the whole fit.
  const std::size_t nf = x.cols();
  std::vector<std::size_t>& features = ctx.features;
  if (opt.max_features == 0 || opt.max_features >= nf) {
    features.resize(nf);
    std::iota(features.begin(), features.end(), 0);
  } else {
    ctx.rng.sample_without_replacement(nf, opt.max_features, features);
  }

  std::span<const Sample> node(samples.data() + begin, end - begin);
  // Histogram search on large nodes; small nodes fall back to the exact
  // search (cheap there, and global bin edges are too coarse for them).
  const bool use_histogram =
      ctx.quantized != nullptr && (opt.exact_node_cutoff == 0 || n >= opt.exact_node_cutoff);
  SplitCandidate best;
  std::size_t best_feature = 0;
  for (std::size_t f : features) {
    const SplitCandidate cand = use_histogram ? best_split_histogram(ctx, node, f, n, node_pos)
                                              : best_split_exact(ctx, node, f, n, node_pos);
    if (cand.valid && (!best.valid || cand.impurity_decrease > best.impurity_decrease)) {
      best = cand;
      best_feature = f;
    }
  }
  if (!best.valid || best.impurity_decrease <= 0.0) return me;

  // Partition [begin, end) by the chosen split.
  const auto mid_it = std::partition(
      samples.begin() + static_cast<std::ptrdiff_t>(begin),
      samples.begin() + static_cast<std::ptrdiff_t>(end),
      [&](const Sample& s) { return x(s.row, best_feature) <= best.threshold; });
  const std::size_t mid = static_cast<std::size_t>(mid_it - samples.begin());
  if (mid == begin || mid == end) return me;  // numeric edge case: degenerate partition

  importance_[best_feature] +=
      best.impurity_decrease * static_cast<double>(n) / static_cast<double>(ctx.n_total);

  nodes_[me].feature = static_cast<std::int32_t>(best_feature);
  nodes_[me].threshold = best.threshold;
  const std::int32_t left = build(ctx, samples, begin, mid, depth + 1);
  nodes_[me].left = left;
  const std::int32_t right = build(ctx, samples, mid, end, depth + 1);
  nodes_[me].right = right;
  return me;
}

double DecisionTree::predict_proba(std::span<const double> row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree::predict_proba: not trained");
  std::int32_t node = 0;
  for (;;) {
    const Node& nd = nodes_[node];
    if (nd.feature < 0) return nd.prob;
    node = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
}

int DecisionTree::depth() const {
  int d = 0;
  for (const auto& nd : nodes_) d = std::max(d, nd.depth);
  return d;
}

void DecisionTree::save(std::ostream& os) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree::save: not trained");
  os << "tree " << nodes_.size() << ' ' << importance_.size() << '\n';
  os.precision(17);
  for (const auto& nd : nodes_) {
    os << nd.feature << ' ' << nd.threshold << ' ' << nd.left << ' ' << nd.right << ' '
       << nd.prob << ' ' << nd.depth << '\n';
  }
  for (std::size_t f = 0; f < importance_.size(); ++f) {
    os << importance_[f] << (f + 1 == importance_.size() ? '\n' : ' ');
  }
}

void DecisionTree::load(std::istream& is) {
  std::string tag;
  std::size_t n_nodes = 0, n_features = 0;
  if (!(is >> tag >> n_nodes >> n_features) || tag != "tree" || n_nodes == 0)
    throw std::runtime_error("DecisionTree::load: bad header");
  std::vector<Node> nodes(n_nodes);
  for (auto& nd : nodes) {
    if (!(is >> nd.feature >> nd.threshold >> nd.left >> nd.right >> nd.prob >> nd.depth))
      throw std::runtime_error("DecisionTree::load: truncated node list");
    const auto max_node = static_cast<std::int32_t>(n_nodes);
    const bool leaf = nd.feature < 0;
    if (!leaf && (nd.left < 0 || nd.left >= max_node || nd.right < 0 || nd.right >= max_node))
      throw std::runtime_error("DecisionTree::load: child index out of range");
  }
  std::vector<double> importance(n_features);
  for (auto& v : importance) {
    if (!(is >> v)) throw std::runtime_error("DecisionTree::load: truncated importance");
  }
  nodes_ = std::move(nodes);
  importance_ = std::move(importance);
}

}  // namespace wefr::ml
