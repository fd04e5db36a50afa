// batch_select: the offline pass of the paper's deployment loop, driven
// through the same public calls as tools/wefr_select.cpp, in the same
// order and with the same config (negative_keep_prob 0.15, 100 trees,
// depth 13): CSV ingest -> selection samples -> run_wefr (five rankers,
// auto-select, survival curve, MWI_N change point, per-group
// re-selection) -> train_predictor -> score_fleet over the held-out
// last 30 days -> evaluate_fixed_recall(0.3).
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "data/cache.h"
#include "data/csv.h"
#include "obs/context.h"
#include "smartsim/generator.h"
#include "smartsim/profiles.h"

using namespace wefr;

namespace perfbench {

namespace {

constexpr const char* kModel = "MC1";
constexpr double kAfrScale = 15.0;  // wefr_simulate's default
constexpr int kScoreDays = 30;

/// One pass of the chain. Call timings are taken from this file around
/// each public call; `obs` (traced reps only) also collects the spans
/// the library emits under the benchmark's own per-call spans.
struct Pass {
  double wall_s = 0.0;
  double load_s = 0.0, samples_s = 0.0, wefr_s = 0.0, train_s = 0.0, score_s = 0.0;
  std::size_t rows_scored = 0;
  double csv_mb = 0.0;
  double f05 = 0.0;
  std::string digest;
  TracedRun traced;
  std::uint64_t root_span = 0;
};

Pass run_pass(const std::string& csv, const core::ExperimentConfig& cfg,
              const core::WefrOptions& wopt, const data::ReadOptions& ropt, bool traced,
              Outcome& out) {
  obs::Tracer tracer;
  obs::Registry registry;
  obs::Context ctx{&tracer, &registry};
  const obs::Context* o = traced ? &ctx : nullptr;
  obs::Tracer* tp = traced ? &tracer : nullptr;
  Pass p;

  const auto t_start = Clock::now();
  auto mark = t_start;
  const auto lap = [&mark] {
    const auto now = Clock::now();
    const double s = seconds_between(mark, now);
    mark = now;
    return s;
  };

  obs::Span root(tp, "bench:pipeline");
  p.root_span = root.id();

  core::PipelineDiagnostics diag;
  data::IngestReport report;
  data::FleetData fleet;
  {
    obs::Span s(tp, "bench:load_fleet_csv");
    fleet = data::load_fleet_csv_cached(csv, kModel, ropt, data::CacheOptions{}, &report, o);
  }
  p.load_s = lap();
  const int train_end = fleet.num_days - 1 - kScoreDays;
  data::Dataset samples;
  {
    obs::Span s(tp, "bench:build_selection_samples");
    samples = core::build_selection_samples(fleet, 0, train_end, cfg, o);
  }
  p.samples_s = lap();
  core::WefrResult result;
  {
    obs::Span s(tp, "bench:run_wefr");
    result = core::run_wefr(fleet, samples, train_end, wopt, &diag, o);
  }
  p.wefr_s = lap();
  core::WefrPredictor predictor;
  {
    obs::Span s(tp, "bench:train_predictor");
    predictor = core::train_predictor(fleet, result, 0, train_end, cfg, o);
  }
  p.train_s = lap();
  const int t0 = train_end + 1, t1 = fleet.num_days - 1;
  std::vector<core::DriveDayScores> scores;
  {
    obs::Span s(tp, "bench:score_fleet");
    scores = core::score_fleet(fleet, predictor, t0, t1, cfg, &diag, o);
  }
  p.score_s = lap();
  core::DriveLevelEval eval;
  {
    obs::Span s(tp, "bench:evaluate_fixed_recall");
    eval = core::evaluate_fixed_recall(fleet, scores, t0, t1, cfg.horizon_days, 0.3);
  }
  root.finish();
  p.wall_s = seconds_between(t_start, Clock::now());
  p.f05 = eval.f05;

  // Correctness on clean input: a clean ingest, no degraded-mode
  // fallback anywhere (discarding an outlier ranker is the algorithm,
  // not a fallback), a non-trivial operating point, and a whole-model
  // selection that contains at least one of the failure signatures the
  // simulator planted.
  if (report.fatal || !report.clean()) out.fail("ingest not clean: " + report.summary());
  for (const auto& e : diag.events) {
    if (e.code != "ranker_outlier") out.fail("degraded: " + e.stage + "/" + e.code);
  }
  if (!(eval.f05 > 0.0) || !std::isfinite(eval.f05)) out.fail("F0.5 is not positive");
  bool planted = false;
  for (auto a : smartsim::profile_by_name(kModel).signature_attrs) {
    const std::string prefix = std::string(smartsim::attr_name(a)) + "_";
    for (const auto& n : result.all.selected_names) planted = planted || n.rfind(prefix, 0) == 0;
  }
  if (!planted) out.fail("selection misses every planted failure signature");

  Digest d;
  for (const core::GroupSelection* g :
       {&result.all, result.low ? &*result.low : nullptr, result.high ? &*result.high : nullptr}) {
    if (g == nullptr) continue;
    d.str(g->label);
    for (const auto& n : g->selected_names) d.str(n);
  }
  d.f64(result.change_point ? result.change_point->mwi_threshold : -1.0);
  for (const auto& ds : scores) {
    d.u64(ds.drive_index);
    d.u64(static_cast<std::uint64_t>(ds.first_day));
    for (double v : ds.scores) d.f64(v);
    p.rows_scored += ds.scores.size();
  }
  p.digest = d.hex();
  if (traced) {
    p.traced.spans = tracer.snapshot();
    p.traced.has_low = predictor.low.has_value();
    p.traced.has_high = predictor.high.has_value();
  }
  return p;
}

}  // namespace

Outcome run_batch_select(const RunOptions& opt) {
  Outcome out;
  const auto& profile = smartsim::profile_by_name(kModel);
  const int fleets = opt.scale.instances_batch;

  // Set-up, once per fleet instance: generate the fleet from the run's
  // seed and write it as CSV. setup_s is the median per fleet.
  std::vector<std::string> csvs;
  std::vector<double> setup, csv_mb;
  for (int i = 0; i < fleets; ++i) {
    const auto t = Clock::now();
    smartsim::SimOptions sim;
    sim.num_drives = opt.scale.batch_drives;
    sim.num_days = opt.scale.batch_days;
    sim.seed = instance_seed(opt.seed, i);
    sim.afr_scale = kAfrScale;
    csvs.push_back(opt.work_dir + "/fleet" + std::to_string(i) + ".csv");
    data::write_fleet_csv(smartsim::generate_fleet(profile, sim), csvs.back());
    setup.push_back(seconds_between(t, Clock::now()));
    csv_mb.push_back(static_cast<double>(std::filesystem::file_size(csvs.back())) / 1e6);
  }

  core::ExperimentConfig cfg;
  cfg.negative_keep_prob = 0.15;
  cfg.num_threads = opt.threads;
  core::WefrOptions wopt;
  wopt.num_threads = opt.threads;
  data::ReadOptions ropt;
  ropt.num_threads = opt.threads;

  // Measured phase: rounds of one pass per fleet, until --seconds have
  // passed. A traced run follows each untraced pass with a traced pass
  // over the same fleet, so the overhead ratio compares like with like.
  std::vector<Pass> plain, traced;
  std::vector<std::string> digests(static_cast<std::size_t>(fleets));
  std::vector<double> overhead;
  const auto t_begin = Clock::now();
  do {
    for (int i = 0; i < fleets; ++i) {
      for (const bool with_trace : {false, true}) {
        if (with_trace && !opt.trace) continue;
        Pass p = run_pass(csvs[static_cast<std::size_t>(i)], cfg, wopt, ropt, with_trace, out);
        p.csv_mb = csv_mb[static_cast<std::size_t>(i)];
        ++out.attempted;
        std::string& d = digests[static_cast<std::size_t>(i)];
        if (d.empty()) d = p.digest;
        if (p.digest != d) out.fail("fleet " + std::to_string(i) + ": digest differs between passes");
        if (with_trace) overhead.push_back(p.wall_s / plain.back().wall_s);
        (with_trace ? traced : plain).push_back(std::move(p));
      }
    }
  } while (seconds_between(t_begin, Clock::now()) < opt.seconds);

  Digest all;
  for (const auto& d : digests) all.str(d);
  out.digest = all.hex();
  const auto med = [](const std::vector<Pass>& ps, auto&& field) {
    std::vector<double> v;
    for (const auto& p : ps) v.push_back(field(p));
    return median(std::move(v));
  };
  const double wall = med(plain, [](const Pass& p) { return p.wall_s; });
  const double f05 = med(plain, [](const Pass& p) { return p.f05; });
  std::printf("batch_select: %d fleets of %zu drives x %d days, T=%zu; pass wall",
              fleets, opt.scale.batch_drives, opt.scale.batch_days, opt.threads);
  for (const auto& p : plain) std::printf(" %.3f", p.wall_s);
  std::printf(" s; median %.3f s, median F0.5 %.4f\n", wall, f05);

  out.end_to_end.set("setup_s", median(setup), "s");
  out.end_to_end.set("wall_s", wall, "s");
  if (!opt.trace) return out;

  // Per-layer: medians over the traced passes.
  Metrics& m = out.per_layer;
  m.set("f05", f05, "ratio");
  m.set("data.load_fleet_csv_s", med(traced, [](const Pass& p) { return p.load_s; }), "s");
  m.set("data.csv_mb_per_s", med(traced, [](const Pass& p) { return p.csv_mb / p.load_s; }),
        "MB/s");
  m.set("core.build_selection_samples_s", med(traced, [](const Pass& p) { return p.samples_s; }),
        "s");
  m.set("core.run_wefr_s", med(traced, [](const Pass& p) { return p.wefr_s; }), "s");
  m.set("core.train_predictor_s", med(traced, [](const Pass& p) { return p.train_s; }), "s");
  m.set("core.score_fleet_s", med(traced, [](const Pass& p) { return p.score_s; }), "s");
  m.set("ml.score_rows_per_s",
        med(traced, [](const Pass& p) { return static_cast<double>(p.rows_scored) / p.score_s; }),
        "1/s");
  std::vector<TracedRun> runs;
  for (const auto& p : traced) runs.push_back(p.traced);
  set_span_metrics(m, runs);
  m.set("obs.trace_overhead_ratio", median(overhead), "ratio");
  m.set("coverage",
        med(traced, [](const Pass& p) { return child_coverage(p.traced.spans, p.root_span); }),
        "ratio");

  const Pass& rep = traced[traced.size() / 2];
  print_layer_table("batch_select (one traced pass)", layer_table(rep.traced.spans), rep.wall_s);
  return out;
}

}  // namespace perfbench
