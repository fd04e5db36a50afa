// perfbench_runner — one run of one end-to-end benchmark workload.
//
//   perfbench_runner --workload batch_select|daemon_recheck
//                    --seed N --seconds S --trace 0|1
//                    --wefrd PATH --work-dir DIR [--scale full|tiny]
//
// Prints a human-readable log, a host stamp line, and as the last line
// one JSON object: {"correct", "attempted", "failed", "metrics"} (exit 0
// whenever the run completed, correct or not). With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set. perfbench/run.py builds this binary and wefrd and
// passes the paths; run it through that script.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Scale Scale::full() {
  Scale s;
  s.batch_drives = 600;
  s.batch_days = 220;
  s.recheck_drives = 300;
  s.recheck_history_days = 120;
  s.recheck_window_days = 23;
  s.read_rate_hz = 20.0;
  return s;
}

Scale Scale::tiny() {
  Scale s;
  s.batch_drives = 300;
  s.batch_days = 160;
  s.recheck_drives = 150;
  s.recheck_history_days = 90;
  s.recheck_window_days = 9;
  s.read_rate_hz = 100.0;
  s.instances_batch = 1;
  s.instances_daemon = 1;
  return s;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. End-to-end metrics apply to every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
};

// Per-layer metrics, reported by the traced run. A workload that does no
// work in a layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"f05", "ratio"},
    {"append_p50_us", "us"},
    {"append_p99_us", "us"},
    {"day_turnaround_ms", "ms"},
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"read_slo_frac", "ratio"},
    {"error_rate", "ratio"},
    {"data.load_fleet_csv_s", "s"},
    {"data.csv_mb_per_s", "MB/s"},
    {"core.build_selection_samples_s", "s"},
    {"core.run_wefr_s", "s"},
    {"core.ranker.pearson_s", "s"},
    {"core.ranker.spearman_s", "s"},
    {"core.ranker.j_index_s", "s"},
    {"core.ranker.randomforest_s", "s"},
    {"core.ranker.xgboost_s", "s"},
    {"core.auto_select_s", "s"},
    {"core.survival_s", "s"},
    {"core.cpd_s", "s"},
    {"core.train_predictor_s", "s"},
    {"core.score_fleet_s", "s"},
    {"ml.forest_fit_s", "s"},
    {"ml.forest_fit.all_s", "s"},
    {"ml.forest_fit.low_s", "s"},
    {"ml.forest_fit.high_s", "s"},
    {"ml.score_rows_per_s", "1/s"},
    {"daemon.rescore_ms", "ms"},
    {"daemon.rows_rescored_per_day", "count"},
    {"daemon.drives_rescored_per_day", "count"},
    {"daemon.check_s", "s"},
    {"daemon.post_check_rescore_s", "s"},
    {"daemon.incremental_frac", "ratio"},
    {"daemon.checks", "count"},
    {"daemon.reader_lag_ms", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"coverage", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1\n"
               "                        --wefrd PATH --work-dir DIR [--scale full|tiny]\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return std::string(wefr::util::trim(line.substr(colon + 1)));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string scale = "full";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    long long n = 0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && wefr::util::parse_int_as(v, n) && n >= 0) {
      opt.seed = static_cast<std::uint64_t>(n);
      have_seed = true;
    } else if (a == "--seconds" && wefr::util::parse_int_as(v, n) && n >= 1) {
      opt.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (a == "--trace" && (v == "0" || v == "1")) {
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--wefrd") {
      opt.wefrd_path = v;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--scale" && (v == "full" || v == "tiny")) {
      scale = v;
    } else {
      usage(("bad argument " + a + " " + v).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      opt.wefrd_path.empty() || opt.work_dir.empty())
    usage("missing required argument");

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = std::min<std::size_t>(4, hw);
  opt.scale = scale == "tiny" ? Scale::tiny() : Scale::full();

  const bool avx2 = __builtin_cpu_supports("avx2");
  std::printf("host: {\"nproc\": %zu, \"threads\": %zu, \"avx2\": %s, \"build_type\": \"%s\", "
              "\"cpu_model\": \"%s\", \"compiler\": \"%s\"}\n",
              hw, opt.threads, avx2 ? "true" : "false", PERFBENCH_BUILD_TYPE,
              json_escape(cpu_model()).c_str(), json_escape(__VERSION__).c_str());
  std::printf("workload %s, seed %llu, %d s, trace %d, scale %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              scale.c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    if (opt.workload == "batch_select") {
      out = run_batch_select(opt);
    } else if (opt.workload == "daemon_recheck") {
      out = run_daemon_recheck(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench_runner: nothing was attempted\n");
    return 1;
  }

  out.per_layer.set("error_rate",
                    static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                    "ratio");
  std::string metrics;
  const auto emit = [&](const MetricSpec& spec, const Metrics& from) {
    const Metrics::Item* it = from.find(spec.name);
    const double v = it != nullptr ? it->value : 0.0;
    if (!std::isfinite(v)) out.fail(std::string("non-finite metric ") + spec.name);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, std::isfinite(v) ? v : 0.0,
                  spec.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const auto& spec : kPerLayer) emit(spec, out.per_layer);
  } else {
    for (const auto& spec : kEndToEnd) {
      if (out.end_to_end.find(spec.name) == nullptr)
        out.fail(std::string("end-to-end metric not measured: ") + spec.name);
      emit(spec, out.end_to_end);
    }
  }

  std::printf("digest %s\n", out.digest.c_str());
  for (const auto& f : out.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
