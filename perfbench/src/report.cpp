#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

using Interval = std::pair<double, double>;

/// Length of the union of `iv` clipped to [lo, hi].
double union_within(std::vector<Interval> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

std::unordered_map<std::uint64_t, std::vector<Interval>> children_by_parent(
    const std::vector<wefr::obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> out;
  for (const auto& s : spans) {
    if (s.parent != 0) out[s.parent].emplace_back(s.start_us, s.start_us + s.dur_us);
  }
  return out;
}

}  // namespace

std::vector<LayerRow> layer_table(const std::vector<wefr::obs::SpanRecord>& spans) {
  const auto kids = children_by_parent(spans);
  std::vector<LayerRow> rows;
  std::unordered_map<std::string, std::size_t> row_of;
  for (const auto& s : spans) {
    auto [it, fresh] = row_of.emplace(s.name, rows.size());
    if (fresh) rows.push_back(LayerRow{s.name});
    LayerRow& r = rows[it->second];
    double covered = 0.0;
    if (auto k = kids.find(s.id); k != kids.end())
      covered = union_within(k->second, s.start_us, s.start_us + s.dur_us);
    ++r.count;
    r.total_s += s.dur_us * 1e-6;
    r.self_s += (s.dur_us - covered) * 1e-6;
  }
  std::sort(rows.begin(), rows.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.total_s > b.total_s; });
  return rows;
}

double child_coverage(const std::vector<wefr::obs::SpanRecord>& spans, std::uint64_t root) {
  for (const auto& s : spans) {
    if (s.id != root) continue;
    if (s.dur_us <= 0.0) return 0.0;
    std::vector<Interval> iv;
    for (const auto& c : spans) {
      if (c.parent == root) iv.emplace_back(c.start_us, c.start_us + c.dur_us);
    }
    return union_within(std::move(iv), s.start_us, s.start_us + s.dur_us) / s.dur_us;
  }
  return 0.0;
}

void print_layer_table(const std::string& title, const std::vector<LayerRow>& rows,
                       double wall_s) {
  // Below this share of child coverage a layer's time is effectively
  // unattributed (forest:fit, for one, has only forest:flatten inside).
  constexpr double kOpaqueChildShare = 0.05;
  std::printf("\nper-layer self time, %s (wall %.3f s):\n", title.c_str(), wall_s);
  std::printf("  %-28s %8s %10s %10s %7s %7s\n", "span", "count", "total_s", "self_s",
              "self%", "child%");
  for (const auto& r : rows) {
    const double child = r.total_s > 0.0 ? 1.0 - r.self_s / r.total_s : 0.0;
    const bool opaque = r.total_s >= 0.01 * wall_s && child < kOpaqueChildShare;
    std::printf("  %-28s %8zu %10.4f %10.4f %6.1f%% %6.1f%%%s\n", r.name.c_str(), r.count,
                r.total_s, r.self_s, wall_s > 0.0 ? 100.0 * r.self_s / wall_s : 0.0,
                100.0 * child, opaque ? "  <- self time is (nearly) all of it" : "");
  }
}

namespace {

/// Sum of the durations of every span called `name`, in seconds.
double span_total_s(const std::vector<wefr::obs::SpanRecord>& spans, std::string_view name) {
  double us = 0.0;
  for (const auto& s : spans) {
    if (s.name == name) us += s.dur_us;
  }
  return us * 1e-6;
}

/// True when `s` has an ancestor called `name`.
bool under(const std::unordered_map<std::uint64_t, const wefr::obs::SpanRecord*>& by_id,
           const wefr::obs::SpanRecord& s, std::string_view name) {
  for (std::uint64_t p = s.parent; p != 0;) {
    auto it = by_id.find(p);
    if (it == by_id.end()) return false;
    if (it->second->name == name) return true;
    p = it->second->parent;
  }
  return false;
}

}  // namespace

void set_span_metrics(Metrics& m, const std::vector<TracedRun>& runs) {
  static const std::pair<const char*, const char*> kRankers[] = {
      {"Pearson", "pearson"},
      {"Spearman", "spearman"},
      {"J-index", "j_index"},
      {"RandomForest", "randomforest"},
      {"XGBoost", "xgboost"},
  };
  std::map<std::string, std::vector<double>> acc;
  const auto add = [&acc](const std::string& name, double v) { acc[name].push_back(v); };
  for (const auto& run : runs) {
    for (const auto& [span, metric] : kRankers)
      add(std::string("core.ranker.") + metric + "_s",
          span_total_s(run.spans, std::string("ranker:") + span));
    add("core.auto_select_s", span_total_s(run.spans, "auto_select"));
    add("core.survival_s", span_total_s(run.spans, "survival"));
    add("core.cpd_s", span_total_s(run.spans, "cpd"));
    add("ml.forest_fit_s", span_total_s(run.spans, "forest:fit"));

    // The predictor's fits, in span (start) order: the whole-model
    // bundle, then the low and high wear-group bundles it trained.
    std::unordered_map<std::uint64_t, const wefr::obs::SpanRecord*> by_id;
    for (const auto& s : run.spans) by_id.emplace(s.id, &s);
    std::vector<const wefr::obs::SpanRecord*> fits;
    for (const auto& s : run.spans) {
      if (s.name == "forest:fit" && under(by_id, s, "train_predictor")) fits.push_back(&s);
    }
    std::sort(fits.begin(), fits.end(),
              [](auto* a, auto* b) { return a->start_us < b->start_us; });
    double group[3] = {0.0, 0.0, 0.0};
    std::vector<int> slots = {0};
    if (run.has_low) slots.push_back(1);
    if (run.has_high) slots.push_back(2);
    for (std::size_t i = 0; i < fits.size() && i < slots.size(); ++i)
      group[slots[i]] = fits[i]->dur_us * 1e-6;
    add("ml.forest_fit.all_s", group[0]);
    add("ml.forest_fit.low_s", group[1]);
    add("ml.forest_fit.high_s", group[2]);
  }
  for (const auto& [name, v] : acc) m.set(name, median(v), "s");
}

}  // namespace perfbench
