// Shared pieces of the end-to-end benchmark runner: run options, the
// metric sink, summary statistics, the output digest and the per-layer
// span table.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// How one benchmark run is sized. `full` is the measured scale;
/// `tiny` keeps every code path but finishes in seconds (smoke test).
struct Scale {
  // batch_select
  std::size_t batch_drives = 0;
  int batch_days = 0;
  // daemon_recheck
  std::size_t recheck_drives = 0;
  int recheck_history_days = 0;  ///< days restored before the window
  int recheck_window_days = 0;
  double read_rate_hz = 0.0;  ///< open-loop reader rate
  /// Fleet instances per run, each generated from its own seed derived
  /// from the run's seed. Every instance is set up and measured; setup_s
  /// and wall_s are medians over them, which averages out how much work
  /// a single random fleet happens to hold.
  int instances_batch = 5;
  int instances_daemon = 4;

  static Scale full();
  static Scale tiny();
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::size_t threads = 1;    ///< the one thread count T used everywhere
  std::string wefrd_path;     ///< daemon binary (absolute)
  std::string work_dir;       ///< private work directory for this run
  Scale scale;
};

/// Metrics by name, in emission order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_.emplace(name, items_.size());
      items_.push_back({name, value, unit});
    } else {
      items_[it->second].value = value;
      items_[it->second].unit = unit;
    }
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }
  const Item* find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &items_[it->second];
  }

 private:
  std::vector<Item> items_;
  std::map<std::string, std::size_t> index_;
};

/// What a workload hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons, for the log
  Metrics end_to_end;
  Metrics per_layer;
  std::string digest;  ///< hex FNV-1a over selections and score bits

  void fail(std::string why, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 16) failures.push_back(std::move(why));
  }
};

/// Seed of fleet instance `i` of a run.
inline std::uint64_t instance_seed(std::uint64_t run_seed, int i) {
  return run_seed * 1000003ULL + static_cast<std::uint64_t>(i);
}

Outcome run_batch_select(const RunOptions& opt);
Outcome run_daemon_recheck(const RunOptions& opt);

// ---- statistics -----------------------------------------------------

/// Median (mean of the middle pair for even sizes); 0 for empty input.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]; 0 for empty input.
double percentile(std::vector<double> v, double p);

// ---- digest -----------------------------------------------------------

/// 64-bit FNV-1a, fed field by field; doubles go in by their bits.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void str(std::string_view s) {
    const std::uint64_t n = s.size();
    bytes(&n, sizeof n);
    bytes(s.data(), s.size());
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- per-layer span table ------------------------------------------------

/// Per span name: calls, total duration, and self time (duration minus
/// the union of its children's intervals, children on any thread).
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::vector<LayerRow> layer_table(const std::vector<wefr::obs::SpanRecord>& spans);

/// Share of [root start, root end] covered by the union of the root's
/// direct children.
double child_coverage(const std::vector<wefr::obs::SpanRecord>& spans, std::uint64_t root);

/// Prints the table, flagging layers of at least 1% of `wall_s` whose
/// children cover less than 5% of their duration.
void print_layer_table(const std::string& title, const std::vector<LayerRow>& rows,
                       double wall_s);

/// Spans of one traced selection + training pass, and which wear-group
/// bundles its predictor trained (to label the forest:fit spans).
struct TracedRun {
  std::vector<wefr::obs::SpanRecord> spans;
  bool has_low = false;
  bool has_high = false;
};

/// Fills the span-derived core.* / ml.* per-layer metrics: the median
/// over `runs` of each run's summed span time. Zero when `runs` is empty.
void set_span_metrics(Metrics& m, const std::vector<TracedRun>& runs);

}  // namespace perfbench
