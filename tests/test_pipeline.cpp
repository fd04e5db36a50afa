#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/pipeline.h"
#include "smartsim/generator.h"

namespace wefr::core {
namespace {

ExperimentConfig light_cfg() {
  ExperimentConfig cfg;
  cfg.forest.num_trees = 15;
  cfg.forest.tree.max_depth = 9;
  cfg.forest.tree.min_samples_leaf = 4;
  cfg.negative_keep_prob = 0.08;
  return cfg;
}

const data::FleetData& shared_fleet() {
  static const data::FleetData fleet = [] {
    smartsim::SimOptions opt;
    opt.num_drives = 700;
    opt.num_days = 220;
    opt.seed = 51;
    opt.afr_scale = 30.0;
    return generate_fleet(smartsim::profile_by_name("MC1"), opt);
  }();
  return fleet;
}

TEST(Pipeline, SelectionSamplesHaveBaseFeatures) {
  const auto& fleet = shared_fleet();
  const auto ds = build_selection_samples(fleet, 0, 150, light_cfg());
  EXPECT_EQ(ds.feature_names, fleet.feature_names);
  EXPECT_GT(ds.size(), 100u);
  EXPECT_GT(ds.num_positive(), 10u);
  for (std::size_t i = 0; i < ds.size(); ++i) EXPECT_LE(ds.day[i], 150);
}

TEST(Pipeline, TrainBundleAndScore) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1, 2, 3};
  const auto bundle = train_bundle(fleet, cols, 0, 150, cfg);
  EXPECT_TRUE(bundle.forest.trained());
  EXPECT_EQ(bundle.base_cols, cols);

  WefrPredictor pred;
  pred.all = bundle;
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  EXPECT_GT(scores.size(), 0u);
  for (const auto& ds : scores) {
    EXPECT_GE(ds.first_day, 160);
    for (double s : ds.scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(Pipeline, TrainBundleRejectsEmptyFeatures) {
  const auto& fleet = shared_fleet();
  const std::vector<std::size_t> none;
  EXPECT_THROW(train_bundle(fleet, none, 0, 100, light_cfg()), std::invalid_argument);
}

TEST(Pipeline, ScoreFleetSkipsFailedDrives) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1};
  const auto pred = train_predictor(fleet, cols, 0, 150, cfg);
  const auto scores = score_fleet(fleet, pred, 200, 219, cfg);
  for (const auto& ds : scores) {
    const auto& drive = fleet.drives[ds.drive_index];
    // Drives failing before day 200 have no observations there.
    if (drive.failed()) EXPECT_GT(drive.fail_day, 200);
  }
}

TEST(Pipeline, EvaluateDetectsPlantedFailures) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  // Use the planted signature features (raw channels).
  std::vector<std::size_t> cols;
  for (const auto* name : {"OCE_R", "UCE_R", "CMDT_R", "MWI_N", "POH_R"}) {
    const int c = fleet.feature_index(name);
    ASSERT_GE(c, 0) << name;
    cols.push_back(static_cast<std::size_t>(c));
  }
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  const auto eval =
      evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.3);
  // The signature is planted, so a real signal must be found.
  EXPECT_GE(eval.recall, 0.3);
  EXPECT_GT(eval.precision, 0.3);
  EXPECT_GT(eval.f05, 0.3);
}

TEST(Pipeline, FixedRecallIsRespectedWhenReachable) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const auto cols = data::all_feature_columns(fleet);
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  for (double target : {0.1, 0.2, 0.3}) {
    const auto eval =
        evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, target);
    EXPECT_GE(eval.recall, target) << "target " << target;
  }
}

TEST(Pipeline, HigherTargetRecallLowersPrecision) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const auto cols = data::all_feature_columns(fleet);
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  const auto lo = evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.1);
  const auto hi = evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.6);
  EXPECT_GE(lo.precision, hi.precision);
}

TEST(Pipeline, DriveMaskRestrictsEvaluation) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1, 2};
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  std::vector<bool> none(fleet.drives.size(), false);
  const auto eval =
      evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.3, &none);
  EXPECT_EQ(eval.confusion.total(), 0u);
}

TEST(Pipeline, EmptyScoresGiveEmptyEval) {
  const auto& fleet = shared_fleet();
  const std::vector<DriveDayScores> none;
  const auto eval = evaluate_fixed_recall(fleet, none, 0, 10, 30, 0.3);
  EXPECT_EQ(eval.confusion.total(), 0u);
  EXPECT_DOUBLE_EQ(eval.f05, 0.0);
}

TEST(Pipeline, WearRoutedPredictorScoresEveryday) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const auto selection = build_selection_samples(fleet, 0, 159, cfg);
  WefrOptions wopt;
  const auto sel = run_wefr(fleet, selection, 159, wopt);
  const auto pred = train_predictor(fleet, sel, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  EXPECT_GT(scores.size(), 0u);
  std::size_t total_days = 0;
  for (const auto& ds : scores) total_days += ds.scores.size();
  // Every observed drive-day in the window must be scored.
  std::size_t expected = 0;
  for (const auto& drive : fleet.drives) {
    const int lo = std::max(160, drive.first_day);
    const int hi = std::min(219, drive.last_day());
    if (lo <= hi) expected += static_cast<std::size_t>(hi - lo + 1);
  }
  EXPECT_EQ(total_days, expected);
}

TEST(Pipeline, ScoreFleetRejectsBadWindow) {
  const auto& fleet = shared_fleet();
  WefrPredictor pred;
  EXPECT_THROW(score_fleet(fleet, pred, 10, 5, light_cfg()), std::invalid_argument);
}

TEST(Pipeline, ParallelScoreFleetMatchesSerial) {
  const auto& fleet = shared_fleet();
  auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1, 2, 3};
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);

  cfg.num_threads = 1;
  const auto serial = score_fleet(fleet, pred, 160, 219, cfg);
  cfg.num_threads = 4;
  const auto parallel = score_fleet(fleet, pred, 160, 219, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].drive_index, parallel[i].drive_index);
    EXPECT_EQ(serial[i].first_day, parallel[i].first_day);
    ASSERT_EQ(serial[i].scores.size(), parallel[i].scores.size());
    for (std::size_t d = 0; d < serial[i].scores.size(); ++d)
      EXPECT_DOUBLE_EQ(serial[i].scores[d], parallel[i].scores[d]);
  }
}

TEST(Pipeline, ThreadedTrainingMatchesSerial) {
  // ExperimentConfig::num_threads flows into the forest fit when
  // forest.num_threads is 0; per-tree pre-forked streams keep the
  // model identical either way.
  const auto& fleet = shared_fleet();
  auto serial_cfg = light_cfg();
  serial_cfg.num_threads = 1;
  auto par_cfg = light_cfg();
  par_cfg.num_threads = 4;
  const std::vector<std::size_t> cols = {0, 1, 2, 3, 4};
  const auto ps = train_predictor(fleet, cols, 0, 159, serial_cfg);
  const auto pp = train_predictor(fleet, cols, 0, 159, par_cfg);
  const auto ss = score_fleet(fleet, ps, 200, 219, serial_cfg);
  const auto sp = score_fleet(fleet, pp, 200, 219, par_cfg);
  ASSERT_EQ(ss.size(), sp.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    ASSERT_EQ(ss[i].scores.size(), sp[i].scores.size());
    for (std::size_t d = 0; d < ss[i].scores.size(); ++d)
      EXPECT_DOUBLE_EQ(ss[i].scores[d], sp[i].scores[d]);
  }
}

/// The `q` quantile of the fleet's finite MWI_N values on days <= day_hi.
double mwi_quantile(const data::FleetData& fleet, int day_hi, double q) {
  const auto mwi = static_cast<std::size_t>(fleet.feature_index("MWI_N"));
  std::vector<double> v;
  for (const auto& drive : fleet.drives) {
    for (std::size_t r = 0; r < drive.num_days(); ++r) {
      if (drive.first_day + static_cast<int>(r) > day_hi) break;
      if (!std::isnan(drive.values(r, mwi))) v.push_back(drive.values(r, mwi));
    }
  }
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

/// A selection that splits the fleet into wear groups at `threshold`.
WefrResult wear_selection(double threshold) {
  WefrResult sel;
  sel.all.label = "all";
  sel.all.selected = {0, 1, 2, 3, 4};
  sel.change_point = WearChangePoint{threshold, 3.0, 0.9};
  sel.low = GroupSelection{};
  sel.low->label = "low";
  sel.low->selected = {0, 2, 4, 6};
  sel.high = GroupSelection{};
  sel.high->label = "high";
  sel.high->selected = {1, 3, 5, 7};
  return sel;
}

TEST(Pipeline, WearGroupTrainingMatchesSerial) {
  // The three bundles train side by side when num_threads > 1; every
  // bundle must come out byte-identical to the sequential fit, and a
  // starved group must be dropped the same way.
  const auto& fleet = shared_fleet();
  auto serial_cfg = light_cfg();
  serial_cfg.num_threads = 1;
  auto par_cfg = light_cfg();
  par_cfg.num_threads = 4;
  const auto bytes = [](const PredictorBundle& b) {
    std::ostringstream os;
    b.forest.save(os);
    return os.str();
  };
  const auto expect_same = [&](const WefrResult& sel, bool want_low, bool want_high) {
    const auto ps = train_predictor(fleet, sel, 0, 159, serial_cfg);
    const auto pp = train_predictor(fleet, sel, 0, 159, par_cfg);
    EXPECT_EQ(bytes(ps.all), bytes(pp.all));
    ASSERT_EQ(ps.low.has_value(), want_low);
    ASSERT_EQ(pp.low.has_value(), want_low);
    if (want_low) EXPECT_EQ(bytes(*ps.low), bytes(*pp.low));
    ASSERT_EQ(ps.high.has_value(), want_high);
    ASSERT_EQ(pp.high.has_value(), want_high);
    if (want_high) EXPECT_EQ(bytes(*ps.high), bytes(*pp.high));
    ASSERT_TRUE(ps.wear_threshold.has_value());
    ASSERT_TRUE(pp.wear_threshold.has_value());
    EXPECT_EQ(*ps.wear_threshold, *pp.wear_threshold);
  };
  {
    SCOPED_TRACE("both groups");
    expect_same(wear_selection(mwi_quantile(fleet, 159, 0.5)), true, true);
  }
  {
    // The highest 1% of wear values leaves the high group too few
    // samples for a model of its own.
    SCOPED_TRACE("starved high group");
    expect_same(wear_selection(mwi_quantile(fleet, 159, 0.99)), true, false);
  }
}

}  // namespace
}  // namespace wefr::core
