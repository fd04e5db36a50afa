#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "daemon/resident.h"

namespace wefr::obs {
struct Context;
class Logger;
}

namespace wefr::daemon {

/// Controls for the resident scoring engine. The re-check loop's
/// options (cadence, warmup, retrain policy, drift watch, experiment)
/// are FleetMonitor's: both hosts run the same core::CheckScheduler.
struct EngineOptions : core::CheckOptions {
  /// Run the paper's periodic re-check (feature re-selection + retrain)
  /// in-process as days stream in. Off = the engine only scores with
  /// whatever predictor set_predictor installed (the deterministic mode
  /// the bit-identity tests and bench use).
  bool auto_check = true;
  /// After every rescore, also run the from-scratch batch oracle and
  /// compare bit-for-bit (expensive; for tests and the bench gate).
  bool oracle_check = false;
};

/// What one rescore() pass did.
struct RescoreStats {
  std::size_t drives_rescored = 0;    ///< dirty drives touched
  std::size_t drives_incremental = 0; ///< scored from resident tails
  std::size_t drives_full = 0;        ///< scored through the batch oracle
  std::size_t rows_scored = 0;        ///< drive-days freshly scored
  bool oracle_checked = false;
  bool oracle_match = true;
};

/// The daemon's core: a ResidentFleet plus a dirty-set incremental
/// scorer and the paper's weekly re-check as an in-process job — the
/// same core::CheckScheduler FleetMonitor steps, fed completed days by
/// the append watermark.
///
/// Scoring contract: after any rescore(), scores() is bit-identical to
/// core::score_fleet(fleet(), predictor, 0, max_day) on the same data —
/// regardless of how appends were ordered across drives, where the
/// stream was cut by reconnects, or the configured thread count. Days
/// already scored under the current predictor are never re-scored; only
/// drives whose windows changed (the dirty set) run inference, through
/// the resident feature tails when the drive is streaming and through
/// the batch oracle (score_fleet on the drive subset) when it is not.
/// Installing a new predictor dirties every drive.
class Engine {
 public:
  Engine(EngineOptions options, data::WindowFeatureConfig windows = {},
         const obs::Context* obs = nullptr, obs::Logger* log = nullptr);

  /// Appends one drive-day. When the day watermark advances, completed
  /// days are first fed to the drift watch and any due re-check runs on
  /// data strictly before `day` (FleetMonitor's no-lookahead contract).
  AppendResult append_day(const std::string& drive_id, int day,
                          std::span<const double> values, int fail_day = -1);

  /// Scores every dirty drive's unscored days. No-op without a
  /// predictor. Returns what was done.
  RescoreStats rescore();

  /// All scores under the current predictor, in score_fleet's output
  /// shape and order (ascending drive index). Call rescore() first for
  /// a fully up-to-date view.
  std::vector<core::DriveDayScores> scores() const;

  /// Latest scored day for one drive; false when the drive is unknown
  /// or has no scores yet.
  bool latest_score(const std::string& drive_id, int& day, double& score) const;

  /// Installs a predictor and dirties every drive. Clears all scores.
  void set_predictor(core::WefrPredictor predictor);
  bool has_predictor() const { return predictor_.has_value(); }
  const core::WefrPredictor* predictor() const {
    return predictor_.has_value() ? &*predictor_ : nullptr;
  }

  ResidentFleet& resident() { return resident_; }
  const ResidentFleet& resident() const { return resident_; }
  const data::FleetData& fleet() const { return resident_.fleet(); }

  std::size_t dirty_count() const;
  int next_check_day() const { return scheduler_.next_check_day(); }
  const std::vector<core::CheckEvent>& checks() const { return scheduler_.events(); }
  const std::vector<core::DriftDetection>& drift_detections() const {
    return scheduler_.drift_detections();
  }
  const RescoreStats& last_rescore() const { return last_rescore_; }

  /// Engine + resident state snapshot payload (WEFRDS01 contents).
  std::string save_snapshot() const { return resident_.save_snapshot(); }
  /// Restores a snapshot; every drive starts dirty (the predictor is
  /// not persisted — the first check or set_predictor installs one).
  bool load_snapshot(std::string_view payload, std::string* why = nullptr);

  /// Compact JSON status report (daemon snapshot-report request).
  std::string report_json() const;

 private:
  struct ScoreState {
    int scored_until = -1;  ///< fleet-global last scored day, -1 = none
    bool full_dirty = false;
    int first_day = 0;
    std::vector<double> scores;
  };

  void observe_completed_days(int up_to_day);
  void run_check(int day);
  void mark_all_dirty();
  void score_drive_incremental(std::size_t di, ScoreState& ss, std::size_t& rows);

  EngineOptions opt_;
  ResidentFleet resident_;
  const obs::Context* obs_ = nullptr;
  obs::Logger* log_ = nullptr;

  core::CheckScheduler scheduler_;
  std::optional<core::WefrPredictor> predictor_;
  std::vector<ScoreState> score_states_;
  RescoreStats last_rescore_;

  int high_water_day_ = 0;  ///< days < this are complete (drift-observed)
};

}  // namespace wefr::daemon
