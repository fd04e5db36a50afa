#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/pipeline.h"
#include "core/wefr.h"
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
