#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace wefr::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: no buckets");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  return s;
}

namespace {

/// Splits a stored series key into its base name and the label text
/// inside the trailing {...} block ("" when unlabeled).
struct SeriesName {
  std::string base;
  std::string labels;
};

SeriesName split_series(const std::string& key) {
  const auto brace = key.find('{');
  if (brace == std::string::npos || key.empty() || key.back() != '}') return {key, ""};
  return {key.substr(0, brace), key.substr(brace + 1, key.size() - brace - 2)};
}

/// Appends one pre-escaped `key="value"` pair to a series name,
/// creating or extending its label block.
std::string append_label(const std::string& name, const std::string& label) {
  if (label.empty()) return name;
  const SeriesName s = split_series(name);
  if (s.labels.empty() && name.find('{') == std::string::npos)
    return s.base + "{" + label + "}";
  return s.base + "{" + s.labels + "," + label + "}";
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string labeled(std::string_view base, std::string_view key, std::string_view value) {
  std::string pair;
  pair.reserve(key.size() + value.size() + 3);
  pair.append(key).append("=\"").append(escape_label_value(value)).append("\"");
  return append_label(std::string(base), pair);
}

std::string Registry::sanitize_name(const std::string& name) {
  // A trailing {...} label block (built with labeled()) rides along
  // untouched; only the base name is forced into the Prometheus charset.
  std::string base = name, labels;
  const auto brace = name.find('{');
  if (brace != std::string::npos && !name.empty() && name.back() == '}') {
    base = name.substr(0, brace);
    labels = name.substr(brace);
  }
  std::string out;
  out.reserve(base.size());
  for (const char c : base) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  if (std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(out.begin(), '_');
  return out + labels;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  const std::string key = sanitize_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
    if (!help.empty()) help_.emplace(split_series(key).base, help);
  }
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  const std::string key = sanitize_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
    if (!help.empty()) help_.emplace(split_series(key).base, help);
  }
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> upper_bounds,
                               const std::string& help) {
  const std::string key = sanitize_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
    if (!help.empty()) help_.emplace(split_series(key).base, help);
  }
  return *slot;
}

bool Registry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void Registry::write_json(json::Writer& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    w.key(name).begin_object();
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      w.begin_object();
      if (i < s.bounds.size()) {
        w.field("le", s.bounds[i]);
      } else {
        w.field("le", "+Inf");
      }
      w.field("count", s.counts[i]);
      w.end_object();
    }
    w.end_array();
    w.field("sum", s.sum);
    w.field("count", s.count);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void Registry::write_json(std::ostream& os) const {
  json::Writer w(os);
  write_json(w);
}

void Registry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Group series by base name first: "m" and "m{stage=\"x\"}" are one
  // family and the exposition format requires a family's samples to sit
  // contiguously under a single # HELP / # TYPE pair — map iteration
  // order alone does not give that ("m_other" sorts between them).
  const auto head = [&](const std::string& base, const char* type) {
    const auto it = help_.find(base);
    os << "# HELP " << base << ' '
       << (it != help_.end() ? it->second : "wefr metric (no help recorded)") << '\n'
       << "# TYPE " << base << ' ' << type << '\n';
  };
  const auto series = [](const SeriesName& n) {
    return n.labels.empty() ? n.base : n.base + "{" + n.labels + "}";
  };

  std::map<std::string, std::vector<std::pair<std::string, const Counter*>>> counter_fams;
  for (const auto& [name, c] : counters_) {
    const SeriesName n = split_series(name);
    counter_fams[n.base].emplace_back(n.labels, c.get());
  }
  for (const auto& [base, fam] : counter_fams) {
    head(base, "counter");
    for (const auto& [labels, c] : fam)
      os << series({base, labels}) << ' ' << c->value() << '\n';
  }

  std::map<std::string, std::vector<std::pair<std::string, const Gauge*>>> gauge_fams;
  for (const auto& [name, g] : gauges_) {
    const SeriesName n = split_series(name);
    gauge_fams[n.base].emplace_back(n.labels, g.get());
  }
  for (const auto& [base, fam] : gauge_fams) {
    head(base, "gauge");
    for (const auto& [labels, g] : fam)
      os << series({base, labels}) << ' ' << json::format_double(g->value()) << '\n';
  }

  std::map<std::string, std::vector<std::pair<std::string, const Histogram*>>> hist_fams;
  for (const auto& [name, h] : histograms_) {
    const SeriesName n = split_series(name);
    hist_fams[n.base].emplace_back(n.labels, h.get());
  }
  for (const auto& [base, fam] : hist_fams) {
    head(base, "histogram");
    for (const auto& [labels, h] : fam) {
      const Histogram::Snapshot s = h->snapshot();
      const std::string prefix = labels.empty() ? "{le=\"" : "{" + labels + ",le=\"";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < s.counts.size(); ++i) {
        cumulative += s.counts[i];
        os << base << "_bucket" << prefix;
        if (i < s.bounds.size()) {
          os << json::format_double(s.bounds[i]);
        } else {
          os << "+Inf";
        }
        os << "\"} " << cumulative << '\n';
      }
      const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
      os << base << "_sum" << suffix << ' ' << json::format_double(s.sum) << '\n'
         << base << "_count" << suffix << ' ' << s.count << '\n';
    }
  }
}

}  // namespace wefr::obs
