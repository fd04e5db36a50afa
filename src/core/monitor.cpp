#include "core/monitor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wefr::core {

namespace {

/// Mean MWI_N over the drives observed on `day` (NaN when none is).
double active_mean_mwi(const data::FleetData& fleet, std::size_t col, int day) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& drive : fleet.drives) {
    if (drive.first_day > day || drive.last_day() < day) continue;
    const double v = drive.values(static_cast<std::size_t>(day - drive.first_day), col);
    if (std::isnan(v)) continue;
    sum += v;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : std::nan("");
}

}  // namespace

CheckScheduler::CheckScheduler(CheckOptions options)
    : opt_(std::move(options)),
      next_check_day_(opt_.warmup_days),
      drift_cpd_(opt_.drift_cpd) {
  if (opt_.check_interval_days < 1)
    throw std::invalid_argument("CheckScheduler: check_interval_days < 1");
  if (opt_.warmup_days < 30) throw std::invalid_argument("CheckScheduler: warmup too short");
  if (opt_.drift_cooldown_days < 1)
    throw std::invalid_argument("CheckScheduler: drift_cooldown_days < 1");
}

void CheckScheduler::set_next_check_day(int day) {
  next_check_day_ = std::max(opt_.warmup_days, day);
}

bool CheckScheduler::observe_day(const data::FleetData& fleet, int day) {
  if (!opt_.online_drift_check || day < opt_.warmup_days) return false;
  if (mwi_col_ < 0) mwi_col_ = fleet.feature_index("MWI_N");
  if (mwi_col_ < 0) return false;
  const double m = active_mean_mwi(fleet, static_cast<std::size_t>(mwi_col_), day);
  if (std::isnan(m)) return false;
  double prob = -1.0;
  if (have_last_mwi_) prob = drift_cpd_.observe(m - last_mean_mwi_);
  last_mean_mwi_ = m;
  have_last_mwi_ = true;
  const bool cooled = last_drift_day_ < 0 || day - last_drift_day_ >= opt_.drift_cooldown_days;
  // Burn-in: with only a handful of observations the posterior is
  // trivially concentrated on short run lengths (every stream "just
  // changed" at t=0), so the first week of deltas can never fire a
  // detection.
  const bool burned_in =
      drift_cpd_.time() > changepoint::OnlineChangePointDetector::kShortRunWindow + 4;
  if (prob < opt_.drift_probability_threshold || !cooled || !burned_in) return false;
  last_drift_day_ = day;
  detections_.push_back(DriftDetection{day, prob});
  drift_pending_ = true;
  drift_probability_ = prob;
  next_check_day_ = std::min(next_check_day_, day + 1);
  return true;
}

std::optional<WefrPredictor> CheckScheduler::run_check(const data::FleetData& fleet, int day) {
  CheckEvent ev;
  ev.day = day;
  ev.drift_triggered = drift_pending_;
  ev.change_probability = drift_probability_;
  next_check_day_ = day + opt_.check_interval_days;
  drift_pending_ = false;
  drift_probability_ = 0.0;

  // Select features on everything observed strictly before `day`.
  const int train_end = day - 1;
  const auto samples = build_selection_samples(fleet, 0, train_end, opt_.experiment);
  if (samples.num_positive() == 0) {  // nothing to learn from yet
    events_.push_back(std::move(ev));
    return std::nullopt;
  }
  // The experiment's thread knob covers selection as well when the WEFR
  // knob is left at 0 (wefrd --threads sets only the former); results do
  // not depend on either.
  WefrOptions wopt = opt_.wefr;
  if (wopt.num_threads == 0) wopt.num_threads = opt_.experiment.num_threads;
  WefrResult sel = run_wefr(fleet, samples, train_end, wopt);

  if (sel.change_point.has_value()) ev.wear_threshold = sel.change_point->mwi_threshold;
  ev.selected_all = sel.all.selected_names;
  if (sel.low.has_value()) ev.selected_low = sel.low->selected_names;
  if (sel.high.has_value()) ev.selected_high = sel.high->selected_names;
  ev.features_changed =
      !selection_.has_value() || selection_->all.selected != sel.all.selected ||
      selection_->change_point.has_value() != sel.change_point.has_value();
  // The first selection always counts as a change, so a predictor
  // exists after it.
  ev.trained = opt_.retrain_every_check || ev.features_changed;
  selection_ = std::move(sel);
  std::optional<WefrPredictor> predictor;
  if (ev.trained)
    predictor = train_predictor(fleet, *selection_, 0, train_end, opt_.experiment);
  events_.push_back(std::move(ev));
  return predictor;
}

FleetMonitor::FleetMonitor(const data::FleetData& fleet, MonitorOptions options)
    : fleet_(fleet),
      opt_(std::move(options)),
      scheduler_(opt_),
      current_day_(opt_.warmup_days),
      threshold_(opt_.alarm_threshold),
      alarmed_(fleet.drives.size(), false) {
  if (opt_.alarm_threshold <= 0.0 || opt_.alarm_threshold > 1.0)
    throw std::invalid_argument("FleetMonitor: alarm_threshold outside (0,1]");
  if (opt_.target_recall < 0.0 || opt_.target_recall > 1.0)
    throw std::invalid_argument("FleetMonitor: target_recall outside [0,1]");
  if (opt_.validation_frac <= 0.0 || opt_.validation_frac >= 1.0)
    throw std::invalid_argument("FleetMonitor: validation_frac outside (0,1)");
}

void FleetMonitor::run_check(int day) {
  auto predictor = scheduler_.run_check(fleet_, day);
  if (predictor.has_value()) predictor_ = std::move(predictor);

  // Recalibrate the alarm threshold to the fixed-recall operating point
  // on the trailing validation slice.
  if (opt_.target_recall > 0.0 && predictor_.has_value()) {
    const int train_end = day - 1;
    const int val_days =
        std::max(7, static_cast<int>(opt_.validation_frac * static_cast<double>(day)));
    const int val_start = std::max(0, train_end - val_days + 1);
    const auto scores =
        score_fleet(fleet_, *predictor_, val_start, train_end, opt_.experiment);
    const auto eval =
        evaluate_fixed_recall(fleet_, scores, val_start, train_end,
                              opt_.experiment.horizon_days, opt_.target_recall);
    if (eval.confusion.total() > 0 && eval.threshold > 0.0) {
      threshold_ = eval.threshold;
    }
  }
}

std::vector<Alarm> FleetMonitor::advance_to(int day) {
  if (day < current_day_) throw std::invalid_argument("FleetMonitor::advance_to: rewind");
  day = std::min(day, fleet_.num_days);

  std::vector<Alarm> alarms;
  while (current_day_ < day) {
    if (scheduler_.check_due(current_day_)) run_check(current_day_);
    // Score the interval until the next check (or the advance target).
    int until = std::min(day, scheduler_.next_check_day()) - 1;

    // Walk the interval's days through the drift watch before scoring.
    // On a detection, cut the interval at the triggering day — the
    // pulled check runs on the loop's next iteration. Only days inside
    // the advanced window are read (d <= until < day), preserving the
    // no-lookahead contract.
    for (int d = current_day_; d <= until; ++d) {
      if (scheduler_.observe_day(fleet_, d)) {
        until = d;
        break;
      }
    }
    if (predictor_.has_value()) {
      const auto scores =
          score_fleet(fleet_, *predictor_, current_day_, until, opt_.experiment);
      for (const auto& ds : scores) {
        if (alarmed_[ds.drive_index]) continue;
        for (std::size_t i = 0; i < ds.scores.size(); ++i) {
          if (ds.scores[i] < threshold_) continue;
          alarmed_[ds.drive_index] = true;
          alarms.push_back(Alarm{ds.drive_index, ds.first_day + static_cast<int>(i),
                                 ds.scores[i]});
          break;
        }
      }
    }
    current_day_ = until + 1;
  }
  std::sort(alarms.begin(), alarms.end(), [](const Alarm& a, const Alarm& b) {
    return a.day != b.day ? a.day < b.day : a.drive_index < b.drive_index;
  });
  return alarms;
}

std::vector<Alarm> FleetMonitor::run_to_end() { return advance_to(fleet_.num_days); }

}  // namespace wefr::core
