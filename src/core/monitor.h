#pragma once

#include <optional>
#include <string>
#include <vector>

#include "changepoint/online_cpd.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "data/fleet.h"

namespace wefr::core {

/// Controls for the paper's re-check loop (Section IV-D: WEFR
/// "periodically checks the change points of MWI_N (one week in our
/// case) and updates the selected features"), shared by every host of
/// a CheckScheduler.
struct CheckOptions {
  /// Days between change-point re-checks / feature updates.
  int check_interval_days = 7;
  /// Days of history required before the first check; the drift watch
  /// also starts observing here.
  int warmup_days = 120;
  /// Retrain the predictor on every check even when the selected
  /// features did not change (tracks drift); when false, retraining
  /// happens only on feature-set changes.
  bool retrain_every_check = true;
  /// Online drift watch: stream the day-over-day delta of the active
  /// fleet's mean MWI_N through an OnlineChangePointDetector for every
  /// completed day from `warmup_days` on. The level series drifts
  /// slowly under normal wear, so its first difference is
  /// near-stationary — a population change (churn wave, cohort with a
  /// shifted wear distribution) shows up as a level jump in the delta
  /// stream. A detection pulls the next scheduled re-check forward to
  /// the following day instead of waiting out the cadence.
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

/// One scheduled (or drift-pulled) re-check, for audit logs /
/// Exp#3-style analysis.
struct CheckEvent {
  int day = 0;
  /// A predictor was trained (false when the features did not change
  /// and `retrain_every_check` is off, or when the history before `day`
  /// holds no failure to learn from — then nothing was selected).
  bool trained = false;
  bool features_changed = false;
  /// True when the online drift watch pulled this check forward.
  bool drift_triggered = false;
  /// The detector's change probability at the triggering observation.
  double change_probability = 0.0;
  std::optional<double> wear_threshold;
  std::vector<std::string> selected_all;
  std::vector<std::string> selected_low;
  std::vector<std::string> selected_high;
};

/// One firing of the online drift watch.
struct DriftDetection {
  int day = 0;
  double probability = 0.0;
};

/// The re-check loop itself: cadence, warmup, retrain policy and the
/// online drift watch. Hosts feed it completed days and ask it when a
/// check is due; FleetMonitor steps it over a fixed fleet, the daemon
/// engine over a resident fleet that grows between calls (hence the
/// fleet argument on every call). Both hosts therefore check on the
/// same days with the same outcomes for the same data.
class CheckScheduler {
 public:
  explicit CheckScheduler(CheckOptions options);

  /// Feeds completed day `day` to the drift watch (a no-op before
  /// `warmup_days`, with the watch off, or without an MWI_N column).
  /// Returns true when a detection pulled the next check to `day + 1`.
  bool observe_day(const data::FleetData& fleet, int day);

  bool check_due(int day) const { return day >= next_check_day_; }

  /// Re-selects features on the fleet's days before `day` and schedules
  /// the next check. Returns the predictor to install when the check
  /// retrained.
  std::optional<WefrPredictor> run_check(const data::FleetData& fleet, int day);

  int next_check_day() const { return next_check_day_; }
  /// Moves the next check to `day`, never before the warmup (snapshot
  /// restore resumes the cadence at the restored watermark).
  void set_next_check_day(int day);

  /// Latest WEFR selection (empty optional before the first selection).
  const std::optional<WefrResult>& selection() const { return selection_; }
  const std::vector<CheckEvent>& events() const { return events_; }
  /// Firings of the online drift watch, in day order.
  const std::vector<DriftDetection>& drift_detections() const { return detections_; }

 private:
  CheckOptions opt_;
  int next_check_day_ = 0;
  std::optional<WefrResult> selection_;
  std::vector<CheckEvent> events_;
  // Online drift watch state.
  int mwi_col_ = -1;
  changepoint::OnlineChangePointDetector drift_cpd_;
  double last_mean_mwi_ = 0.0;
  bool have_last_mwi_ = false;
  int last_drift_day_ = -1;
  bool drift_pending_ = false;
  double drift_probability_ = 0.0;
  std::vector<DriftDetection> detections_;
};

/// Controls for the operational monitoring loop.
struct MonitorOptions : CheckOptions {
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
};

/// A decommission recommendation emitted by the monitor.
struct Alarm {
  std::size_t drive_index = 0;
  int day = 0;          ///< day the alarm fired
  double score = 0.0;   ///< predicted failure probability
};

/// The paper's deployment loop as a reusable component: feed it a fleet
/// and step it through time; its CheckScheduler re-checks the MWI_N
/// change point on the configured cadence, re-selects features per wear
/// group and retrains the wear-routed Random Forest, and the monitor
/// scores the elapsed days into first-alarm decommission
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

  /// Re-check events seen so far.
  const std::vector<CheckEvent>& updates() const { return scheduler_.events(); }

  /// Latest WEFR selection (empty optional before the first check).
  const std::optional<WefrResult>& selection() const { return scheduler_.selection(); }

  /// Day the monitor has been advanced to.
  int current_day() const { return current_day_; }

  /// The alarm threshold currently in force (recalibrated when
  /// `target_recall` is set).
  double active_threshold() const { return threshold_; }

  /// Firings of the online drift watch (empty unless
  /// `online_drift_check` is set), in day order.
  const std::vector<DriftDetection>& drift_detections() const {
    return scheduler_.drift_detections();
  }

 private:
  void run_check(int day);

  const data::FleetData& fleet_;
  MonitorOptions opt_;
  CheckScheduler scheduler_;
  int current_day_ = 0;
  double threshold_ = 0.5;
  std::optional<WefrPredictor> predictor_;
  std::vector<bool> alarmed_;
};

}  // namespace wefr::core
