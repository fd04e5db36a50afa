#pragma once

#include <optional>
#include <vector>

#include "changepoint/online_cpd.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "data/fleet.h"

namespace wefr::core {

/// Controls for the operational monitoring loop (Section IV-D: WEFR
/// "periodically checks the change points of MWI_N (one week in our
/// case) and updates the selected features").
struct MonitorOptions {
  /// Days between change-point re-checks / feature updates.
  int check_interval_days = 7;
  /// Days of history required before the first model is trained.
  int warmup_days = 120;
  /// Retrain the predictor on every check even when the selected
  /// features did not change (tracks drift); when false, retraining
  /// happens only on feature-set changes.
  bool retrain_every_check = true;
  /// Alarm when the predicted failure probability reaches this value.
  /// With `target_recall` set this is only the starting value — each
  /// check recalibrates it.
  double alarm_threshold = 0.5;
  /// When positive, the alarm threshold is recalibrated at every check
  /// to the fixed-recall operating point measured on the validation
  /// slice (the trailing `validation_frac` of the training window) —
  /// the paper's "subject to a fixed recall" deployment policy.
  double target_recall = 0.0;
  double validation_frac = 0.2;
  /// Online drift watch: stream the day-over-day delta of the active
  /// fleet's mean MWI_N through an OnlineChangePointDetector every day
  /// the monitor advances. The level series drifts slowly under normal
  /// wear, so its first difference is near-stationary — a population
  /// change (churn wave, cohort with a shifted wear distribution)
  /// shows up as a level jump in the delta stream. A detection pulls
  /// the next scheduled re-check forward to the following day instead
  /// of waiting out the weekly cadence.
  bool online_drift_check = false;
  /// Detection fires when P(run length <= 3) reaches this value.
  double drift_probability_threshold = 0.6;
  /// Minimum days between drift-triggered re-checks (the posterior
  /// keeps short-run mass for a few days after a real change).
  int drift_cooldown_days = 14;
  changepoint::CpdOptions drift_cpd;
  ExperimentConfig experiment;
  /// Re-check selection; `wefr.num_threads == 0` takes
  /// `experiment.num_threads`.
  WefrOptions wefr;
};

/// A decommission recommendation emitted by the monitor.
struct Alarm {
  std::size_t drive_index = 0;
  int day = 0;          ///< day the alarm fired
  double score = 0.0;   ///< predicted failure probability
};

/// One feature-update event (for audit logs / Exp#3-style analysis).
struct UpdateEvent {
  int day = 0;
  std::optional<double> wear_threshold;
  std::vector<std::string> selected_all;
  std::vector<std::string> selected_low;
  std::vector<std::string> selected_high;
  bool features_changed = false;
  /// True when the online drift watch pulled this check forward.
  bool drift_triggered = false;
  /// The detector's change probability at the triggering observation.
  double change_probability = 0.0;
};

/// One firing of the online drift watch.
struct DriftDetection {
  int day = 0;
  double probability = 0.0;
};

/// The paper's deployment loop as a reusable component: feed it a fleet
/// and step it through time; it re-checks the MWI_N change point on the
/// configured cadence, re-selects features per wear group, retrains the
/// wear-routed Random Forest, and emits first-alarm decommission
/// recommendations. Each drive alarms at most once (the paper evaluates
/// on the first prediction).
///
/// The monitor only ever reads fleet data up to the day it has been
/// stepped to — no lookahead into future observations.
class FleetMonitor {
 public:
  FleetMonitor(const data::FleetData& fleet, MonitorOptions options);

  /// Advances the monitor to `day` (exclusive of future days), running
  /// any scheduled checks and scoring the elapsed days. Returns the
  /// alarms raised in the advanced interval, in day order. `day` must
  /// not decrease across calls.
  std::vector<Alarm> advance_to(int day);

  /// Runs the whole observation window; convenience for offline replay.
  std::vector<Alarm> run_to_end();

  /// Update (re-selection) events seen so far.
  const std::vector<UpdateEvent>& updates() const { return updates_; }

  /// Latest WEFR selection (empty optional before the first check).
  const std::optional<WefrResult>& selection() const { return selection_; }

  /// Day the monitor has been advanced to.
  int current_day() const { return current_day_; }

  /// The alarm threshold currently in force (recalibrated when
  /// `target_recall` is set).
  double active_threshold() const { return threshold_; }

  /// Firings of the online drift watch (empty unless
  /// `online_drift_check` is set), in day order.
  const std::vector<DriftDetection>& drift_detections() const {
    return drift_detections_;
  }

 private:
  void run_check(int day);
  double active_mean_mwi(int day) const;

  const data::FleetData& fleet_;
  MonitorOptions opt_;
  int current_day_ = 0;
  int next_check_day_ = 0;
  double threshold_ = 0.5;
  std::optional<WefrResult> selection_;
  std::optional<WefrPredictor> predictor_;
  std::vector<UpdateEvent> updates_;
  std::vector<bool> alarmed_;
  // Online drift watch state.
  int mwi_col_ = -1;
  changepoint::OnlineChangePointDetector drift_cpd_;
  double last_mean_mwi_ = 0.0;
  bool have_last_mwi_ = false;
  int last_drift_day_ = -1;
  bool drift_pending_ = false;
  double drift_probability_ = 0.0;
  std::vector<DriftDetection> drift_detections_;
};

}  // namespace wefr::core
