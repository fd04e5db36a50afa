#include "core/diagnostics.h"

#include <sstream>

#include "obs/metrics.h"
#include "obs/report.h"

namespace wefr::core {

std::string PipelineDiagnostics::summary() const {
  if (events.empty()) return "clean";
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << "; ";
    os << events[i].stage << '/' << events[i].code;
    if (!events[i].detail.empty()) os << ": " << events[i].detail;
  }
  return os.str();
}

void PipelineDiagnostics::append(const PipelineDiagnostics& other) {
  for (const auto& e : other.events) note(e.stage, e.code, e.detail);
  rankers_failed += other.rankers_failed;
  scores_sanitized += other.scores_sanitized;
  constant_features += other.constant_features;
  survival_drives_skipped += other.survival_drives_skipped;
  score_days_rerouted += other.score_days_rerouted;
  score_drives_missing_features += other.score_drives_missing_features;
  selection_degraded = selection_degraded || other.selection_degraded;
  wearout_skipped = wearout_skipped || other.wearout_skipped;
}

void PipelineDiagnostics::bump(const std::string& code) const {
  registry_->counter("wefr_diag_events_total").add(1);
  registry_->counter("wefr_diag_" + code + "_total").add(1);
}

void PipelineDiagnostics::fill_run_report(obs::RunReport& report) const {
  for (const auto& e : events) {
    report.diagnostics.push_back({e.stage, e.code, e.detail});
  }
  auto& out = report.diagnostic_counters;
  out["rankers_failed"] = static_cast<double>(rankers_failed);
  out["scores_sanitized"] = static_cast<double>(scores_sanitized);
  out["constant_features"] = static_cast<double>(constant_features);
  out["survival_drives_skipped"] = static_cast<double>(survival_drives_skipped);
  out["score_days_rerouted"] = static_cast<double>(score_days_rerouted);
  out["score_drives_missing_features"] =
      static_cast<double>(score_drives_missing_features);
  out["selection_degraded"] = selection_degraded ? 1.0 : 0.0;
  out["wearout_skipped"] = wearout_skipped ? 1.0 : 0.0;
}

}  // namespace wefr::core
