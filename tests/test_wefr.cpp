#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_set>

#include "core/pipeline.h"
#include "core/wefr.h"
#include "obs/context.h"
#include "smartsim/generator.h"

namespace wefr::core {
namespace {

data::FleetData mc1_fleet(std::uint64_t seed = 31, std::size_t drives = 800) {
  smartsim::SimOptions opt;
  opt.num_drives = drives;
  opt.num_days = 220;
  opt.seed = seed;
  opt.afr_scale = 30.0;
  return generate_fleet(smartsim::profile_by_name("MC1"), opt);
}

ExperimentConfig light_cfg() {
  ExperimentConfig cfg;
  cfg.forest.num_trees = 15;
  cfg.forest.tree.max_depth = 9;
  cfg.negative_keep_prob = 0.08;
  return cfg;
}

TEST(Wefr, SelectionIsPrefixOfFinalRanking) {
  const auto fleet = mc1_fleet();
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = false;
  const auto res = run_wefr(fleet, train, 150, opt);
  ASSERT_GT(res.all.selected.size(), 0u);
  ASSERT_LE(res.all.selected.size(), fleet.num_features());
  for (std::size_t i = 0; i < res.all.selected.size(); ++i) {
    EXPECT_EQ(res.all.selected[i], res.all.ensemble.order[i]);
  }
}

TEST(Wefr, SelectsPlantedSignatureFeatures) {
  const auto fleet = mc1_fleet();
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = false;
  const auto res = run_wefr(fleet, train, 150, opt);
  // MC1's planted signature: OCE, UCE, CMDT. At least two of the three
  // raw channels must be selected.
  int hits = 0;
  for (const auto& name : res.all.selected_names) {
    if (name == "OCE_R" || name == "UCE_R" || name == "CMDT_R") ++hits;
  }
  EXPECT_GE(hits, 2) << "selected: " << ::testing::PrintToString(res.all.selected_names);
}

TEST(Wefr, SelectsStrictSubset) {
  const auto fleet = mc1_fleet();
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = false;
  const auto res = run_wefr(fleet, train, 150, opt);
  EXPECT_LT(res.all.selected.size(), fleet.num_features());
  EXPECT_GE(res.all.selected.size(), 4u);  // at least the log2 seed
}

TEST(Wefr, UpdateProducesWearGroups) {
  const auto fleet = mc1_fleet(33, 1400);
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = true;
  const auto res = run_wefr(fleet, train, 150, opt);
  ASSERT_TRUE(res.change_point.has_value());
  ASSERT_TRUE(res.low.has_value());
  ASSERT_TRUE(res.high.has_value());
  EXPECT_EQ(res.low->label, "low");
  EXPECT_EQ(res.high->label, "high");
  EXPECT_FALSE(res.survival.empty());
}

TEST(Wefr, NoUpdateSkipsGroups) {
  const auto fleet = mc1_fleet();
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = false;
  const auto res = run_wefr(fleet, train, 150, opt);
  EXPECT_FALSE(res.change_point.has_value());
  EXPECT_FALSE(res.low.has_value());
  EXPECT_FALSE(res.high.has_value());
}

TEST(Wefr, NoChangePointOnNarrowWearModel) {
  smartsim::SimOptions sopt;
  sopt.num_drives = 1000;
  sopt.num_days = 220;
  sopt.seed = 35;
  sopt.afr_scale = 25.0;
  const auto fleet = generate_fleet(smartsim::profile_by_name("MB1"), sopt);
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  const auto res = run_wefr(fleet, train, 150, opt);
  EXPECT_FALSE(res.change_point.has_value());
  EXPECT_FALSE(res.low.has_value());
}

TEST(Wefr, GroupFallbackWhenTooFewPositives) {
  const auto fleet = mc1_fleet(37, 800);
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.min_group_positives = 1000000;  // force fallback
  const auto res = run_wefr(fleet, train, 150, opt);
  if (res.change_point.has_value()) {
    EXPECT_TRUE(res.low->fallback);
    EXPECT_EQ(res.low->selected, res.all.selected);
  }
}

TEST(Wefr, RejectsMismatchedDataset) {
  const auto fleet = mc1_fleet(39, 300);
  data::Dataset bad;
  bad.feature_names = {"wrong"};
  EXPECT_THROW(run_wefr(fleet, bad, 100, WefrOptions{}), std::invalid_argument);
}

TEST(Wefr, SelectFeaturesForRejectsEmpty) {
  data::Dataset empty;
  EXPECT_THROW(select_features_for(empty, WefrOptions{}), std::invalid_argument);
}

TEST(Wefr, SelectFeaturesForEmptyDegradesWithDiagSink) {
  // Passing a diagnostics sink opts into total degraded-mode semantics:
  // the empty population yields a tagged keep-everything selection
  // instead of a throw.
  data::Dataset empty;
  empty.feature_names = {"f0", "f1", "f2"};
  PipelineDiagnostics diag;
  const auto sel = select_features_for(empty, WefrOptions{}, "all", &diag);
  EXPECT_TRUE(sel.degraded);
  EXPECT_EQ(sel.selected.size(), 3u);
  EXPECT_EQ(sel.selected_names, empty.feature_names);
  EXPECT_TRUE(diag.selection_degraded);
  EXPECT_TRUE(diag.has("empty_population")) << diag.summary();
}

TEST(Wefr, SingleClassDegradesEvenWithoutDiagSink) {
  // Single-class populations never threw historically; they must not
  // start now — with or without a sink they degrade to keep-everything.
  data::Dataset ds;
  ds.feature_names = {"f0", "f1"};
  ds.x = data::Matrix(4, 2);
  ds.y = {0, 0, 0, 0};
  const auto sel = select_features_for(ds, WefrOptions{});
  EXPECT_TRUE(sel.degraded);
  EXPECT_EQ(sel.selected.size(), 2u);
}

TEST(Wefr, CleanRunLeavesDiagnosticsClean) {
  const auto fleet = mc1_fleet(43, 600);
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = false;
  PipelineDiagnostics diag;
  const auto with_diag = run_wefr(fleet, train, 150, opt, &diag);
  const auto without = run_wefr(fleet, train, 150, opt);
  // Diagnostics are observation only: identical selection either way.
  EXPECT_EQ(with_diag.all.selected, without.all.selected);
  EXPECT_FALSE(diag.selection_degraded);
  EXPECT_FALSE(with_diag.all.degraded);
}

// memcmp, not ==: NaN slots (a failed ranker's scores) must sit in
// exactly the same cells, and -0.0 must not pass for 0.0.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << what;
  }
}

void expect_group_bits_equal(const GroupSelection& a, const GroupSelection& b) {
  SCOPED_TRACE(a.label);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.num_positives, b.num_positives);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.selected_names, b.selected_names);
  EXPECT_EQ(a.ensemble.ranker_names, b.ensemble.ranker_names);
  ASSERT_EQ(a.ensemble.scores.size(), b.ensemble.scores.size());
  for (std::size_t k = 0; k < a.ensemble.scores.size(); ++k) {
    expect_bits_equal(a.ensemble.scores[k], b.ensemble.scores[k], "ranker scores");
    expect_bits_equal(a.ensemble.rankings[k], b.ensemble.rankings[k], "ranker ranking");
  }
  expect_bits_equal(a.ensemble.mean_distance, b.ensemble.mean_distance, "mean distance");
  EXPECT_EQ(a.ensemble.discarded, b.ensemble.discarded);
  EXPECT_EQ(a.ensemble.failed, b.ensemble.failed);
  expect_bits_equal(a.ensemble.final_ranking, b.ensemble.final_ranking, "final ranking");
  EXPECT_EQ(a.ensemble.order, b.ensemble.order);
  EXPECT_EQ(a.selection.count, b.selection.count);
  EXPECT_EQ(a.selection.selected, b.selection.selected);
  expect_bits_equal(a.selection.complexity, b.selection.complexity, "complexity");
}

TEST(Wefr, ResultBitIdenticalAcrossThreadCounts) {
  // The full Algorithm 1 — whole-model selection, survival curve,
  // change point, per-wear-group re-selection — must not depend on the
  // thread count: wefr_select runs it on every hardware thread.
  const auto fleet = mc1_fleet(33, 1400);
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = true;
  opt.num_threads = 1;
  const auto serial = run_wefr(fleet, train, 150, opt);
  opt.num_threads = 4;
  const auto threaded = run_wefr(fleet, train, 150, opt);

  // The fleet has a wear-out change point, so every stage ran.
  ASSERT_TRUE(serial.change_point.has_value());
  ASSERT_TRUE(serial.low.has_value());
  ASSERT_TRUE(serial.high.has_value());

  expect_group_bits_equal(serial.all, threaded.all);
  expect_bits_equal(serial.survival.mwi, threaded.survival.mwi, "survival mwi");
  expect_bits_equal(serial.survival.rate, threaded.survival.rate, "survival rate");
  EXPECT_EQ(serial.survival.total, threaded.survival.total);
  EXPECT_EQ(serial.survival.drives_skipped_nan, threaded.survival.drives_skipped_nan);
  ASSERT_TRUE(threaded.change_point.has_value());
  const auto& cs = *serial.change_point;
  const auto& ct = *threaded.change_point;
  expect_bits_equal({cs.mwi_threshold, cs.zscore, cs.probability},
                    {ct.mwi_threshold, ct.zscore, ct.probability}, "change point");
  ASSERT_TRUE(threaded.low.has_value());
  ASSERT_TRUE(threaded.high.has_value());
  expect_group_bits_equal(*serial.low, *threaded.low);
  expect_group_bits_equal(*serial.high, *threaded.high);
}

/// A fleet with a wear-out change point and both wear groups populated.
const data::FleetData& wear_fleet() {
  static const data::FleetData fleet = mc1_fleet(33, 1400);
  return fleet;
}

/// Share of `parent`'s interval covered by the union of its direct
/// children's intervals.
double child_coverage(const std::vector<obs::SpanRecord>& spans, const obs::SpanRecord& parent) {
  std::vector<std::pair<double, double>> iv;
  for (const auto& s : spans) {
    if (s.parent == parent.id) iv.emplace_back(s.start_us, s.start_us + s.dur_us);
  }
  std::sort(iv.begin(), iv.end());
  const double lo = parent.start_us, hi = parent.start_us + parent.dur_us;
  double covered = 0.0, reach = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return parent.dur_us > 0.0 ? covered / parent.dur_us : 0.0;
}

TEST(Wefr, TracedWearGroupsKeepSpanTree) {
  // The wear groups' selections and bundle fits run on pool workers,
  // which have no open-span stack: each must still hang off its stage.
  const auto& fleet = wear_fleet();
  auto cfg = light_cfg();
  cfg.num_threads = 4;
  const auto train = build_selection_samples(fleet, 0, 150, cfg);
  WefrOptions opt;
  opt.num_threads = 4;

  obs::Tracer tracer;
  obs::Context ctx{&tracer, nullptr};
  const auto sel = run_wefr(fleet, train, 150, opt, nullptr, &ctx);
  const auto pred = train_predictor(fleet, sel, 0, 150, cfg, &ctx);
  ASSERT_TRUE(sel.low.has_value());
  ASSERT_TRUE(sel.high.has_value());

  const auto spans = tracer.snapshot();
  std::unordered_set<std::uint64_t> ids;
  for (const auto& s : spans) ids.insert(s.id);
  std::map<std::string, const obs::SpanRecord*> by_name;
  for (const auto& s : spans) {
    if (s.parent != 0) EXPECT_TRUE(ids.count(s.parent) == 1) << "orphan span " << s.name;
    by_name.emplace(s.name, &s);
  }
  ASSERT_EQ(by_name.count("run_wefr"), 1u);
  ASSERT_EQ(by_name.count("train_predictor"), 1u);
  const obs::SpanRecord& run = *by_name["run_wefr"];
  const obs::SpanRecord& train_span = *by_name["train_predictor"];
  EXPECT_EQ(run.parent, 0u);
  EXPECT_EQ(train_span.parent, 0u);
  for (const char* name : {"select:all", "select:low", "select:high", "survival", "cpd"}) {
    ASSERT_EQ(by_name.count(name), 1u) << name;
    EXPECT_EQ(by_name[name]->parent, run.id) << name;
  }
  std::vector<std::string> bundles = {"train_bundle:all"};
  if (pred.low.has_value()) bundles.push_back("train_bundle:low");
  if (pred.high.has_value()) bundles.push_back("train_bundle:high");
  for (const auto& name : bundles) {
    ASSERT_EQ(by_name.count(name), 1u) << name;
    EXPECT_EQ(by_name[name]->parent, train_span.id) << name;
  }
  EXPECT_GE(child_coverage(spans, run), 0.95);
  EXPECT_GE(child_coverage(spans, train_span), 0.95);
}

TEST(Wefr, DiagnosticsLedgerIdenticalAcrossThreadCounts) {
  // Concurrent selections record into ledgers of their own; the merged
  // ledger must come out as the sequential run writes it: same events in
  // the same order, same counters, same registry tallies.
  data::FleetData fleet = wear_fleet();
  const int mwi = fleet.feature_index("MWI_N");
  ASSERT_GE(mwi, 0);
  const std::size_t mwi_col = static_cast<std::size_t>(mwi);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Drives with no usable wear indicator (skipped by the survival curve).
  for (std::size_t d = 0; d < fleet.drives.size(); d += 97) {
    auto& drive = fleet.drives[d];
    for (std::size_t r = 0; r < drive.num_days(); ++r) drive.values(r, mwi_col) = nan;
  }
  data::Dataset train = build_selection_samples(fleet, 0, 150, light_cfg());
  const std::size_t stuck = mwi_col == 0 ? 1 : 0;
  for (std::size_t r = 0; r < train.size(); ++r) {
    train.x(r, stuck) = 1.0;  // a stuck sensor: constant column
    if (r % 53 == 0) train.x(r, mwi_col) = nan;  // unroutable sample
  }

  // Let the larger wear group re-select and the smaller one fall back.
  WefrOptions opt;
  const auto curve = survival_vs_mwi(fleet, 150, opt.survival_min_count,
                                     opt.survival_bucket_width);
  const auto cp = detect_wear_change_point(curve, opt.cpd);
  ASSERT_TRUE(cp.has_value());
  std::size_t low_pos = 0, high_pos = 0;
  for (std::size_t r = 0; r < train.size(); ++r) {
    const double v = train.x(r, mwi_col);
    if (std::isnan(v) || train.y[r] == 0) continue;
    ++(v <= cp->mwi_threshold ? low_pos : high_pos);
  }
  ASSERT_NE(low_pos, high_pos);
  opt.min_group_positives = std::min(low_pos, high_pos) + 1;

  struct Run {
    PipelineDiagnostics diag;
    std::string registry;
  };
  auto run_at = [&](std::size_t threads) {
    Run out;
    obs::Registry registry;
    out.diag.attach(&registry);
    WefrOptions o = opt;
    o.num_threads = threads;
    const auto res = run_wefr(fleet, train, 150, o, &out.diag);
    EXPECT_TRUE(res.low.has_value());
    EXPECT_NE(res.low->fallback, res.high->fallback);
    out.diag.attach(nullptr);
    std::ostringstream os;
    registry.write_prometheus(os);
    out.registry = os.str();
    EXPECT_EQ(registry.counter("wefr_diag_events_total").value(), out.diag.events.size());
    return out;
  };
  const Run serial = run_at(1);
  const Run threaded = run_at(4);

  for (const char* code : {"constant_features", "drives_skipped_nan_mwi",
                           "samples_unroutable_nan_mwi", "fallback_whole_model"}) {
    EXPECT_TRUE(serial.diag.has(code)) << code << ": " << serial.diag.summary();
  }
  // The sequential order: whole model, then the wear-out split, then
  // each group's selection and fallback, low before high ("ensemble"
  // events carry no population and are left out of this check).
  const std::map<std::string, int> rank = {
      {"selection:all", 0}, {"survival", 1},    {"cpd", 1},        {"wearout", 1},
      {"selection:low", 2}, {"group:low", 2},   {"selection:high", 3}, {"group:high", 3}};
  int last = 0;
  for (const auto& e : serial.diag.events) {
    const auto it = rank.find(e.stage);
    if (it == rank.end()) continue;
    EXPECT_GE(it->second, last) << serial.diag.summary();
    last = it->second;
  }
  ASSERT_EQ(serial.diag.events.size(), threaded.diag.events.size());
  for (std::size_t i = 0; i < serial.diag.events.size(); ++i) {
    const auto& a = serial.diag.events[i];
    const auto& b = threaded.diag.events[i];
    EXPECT_EQ(a.stage, b.stage) << i;
    EXPECT_EQ(a.code, b.code) << i;
    EXPECT_EQ(a.detail, b.detail) << i;
  }
  EXPECT_EQ(serial.diag.rankers_failed, threaded.diag.rankers_failed);
  EXPECT_EQ(serial.diag.scores_sanitized, threaded.diag.scores_sanitized);
  EXPECT_EQ(serial.diag.constant_features, threaded.diag.constant_features);
  EXPECT_EQ(serial.diag.survival_drives_skipped, threaded.diag.survival_drives_skipped);
  EXPECT_EQ(serial.diag.selection_degraded, threaded.diag.selection_degraded);
  EXPECT_EQ(serial.diag.wearout_skipped, threaded.diag.wearout_skipped);
  EXPECT_EQ(serial.registry, threaded.registry);
}

TEST(Wefr, DeterministicAcrossRuns) {
  const auto fleet = mc1_fleet(41, 600);
  const auto train = build_selection_samples(fleet, 0, 150, light_cfg());
  WefrOptions opt;
  opt.update_with_wearout = false;
  const auto a = run_wefr(fleet, train, 150, opt);
  const auto b = run_wefr(fleet, train, 150, opt);
  EXPECT_EQ(a.all.selected, b.all.selected);
}

}  // namespace
}  // namespace wefr::core
