// daemon_recheck: the online half of the deployment loop, driven from
// outside. Each run spawns the real wefrd binary in a
// private directory, restores a fleet history into it (a WEFRDS01
// snapshot of every day but the last, then the last day over the
// socket, whose first append runs the first check), and then replays
// the remaining days through daemon::Client while a second connection
// reads scores on an open-loop schedule.
//
//   writer  one connection, closed loop: per day, append every active
//           drive's row, then one score_drive (the day's dirty-set
//           rescore);
//   reader  one connection, open loop at a fixed rate: score_drive for
//           seeded random drives, each timed from its due send time.
//
// wefrd keeps its default 7-day cadence and retrains at every check, so
// re-checks block the event loop inside the window and each retrain
// forces a whole-history rescore; the days between checks are plain
// daily traffic (append fold + incremental inference). The drift watch
// is off, so the check schedule is fixed by the cadence alone.
//
// After the window, outside the timed region, the benchmark replays the
// same appends into an in-process ResidentFleet, reruns every check the
// daemon ran (same data, same options) and requires every served
// (drive, score_day, score) to be bitwise equal to core::score_fleet
// under the predictor that was installed when it was served.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stop_token>
#include <thread>

#include "common.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "daemon/client.h"
#include "daemon/resident.h"
#include "data/cache.h"
#include "obs/context.h"
#include "smartsim/generator.h"
#include "smartsim/profiles.h"
#include "util/rng.h"

using namespace wefr;

namespace perfbench {

namespace {

constexpr const char* kModel = "MC1";
constexpr double kAfrScale = 15.0;       // wefr_simulate's default
constexpr int kCheckInterval = 7;  // wefrd's default cadence
constexpr double kReadSloMs = 100.0;
constexpr double kStartTimeoutS = 60.0;
constexpr double kStopTimeoutS = 60.0;

struct Layout {
  std::size_t drives = 0;
  int history = 0;   ///< days 0..history-1 are restored during set-up
  int window = 0;    ///< days history..history+window-1 are replayed
  int first_check() const { return history - 1; }
  int last_day() const { return history + window - 1; }
};

bool active(const data::DriveSeries& d, int day) {
  return day >= d.first_day && day <= d.last_day();
}

std::span<const double> row_of(const data::DriveSeries& d, int day) {
  return d.values.row(static_cast<std::size_t>(day - d.first_day));
}

core::ExperimentConfig daemon_experiment(std::size_t threads) {
  // What `wefrd --trees 100 --threads T` runs its checks with: the
  // default experiment config with the forest size and thread count set,
  // and default WefrOptions (see oracle_checks).
  core::ExperimentConfig cfg;
  cfg.forest.num_trees = 100;
  cfg.num_threads = threads;
  return cfg;
}

// ---- the wefrd child process ---------------------------------------------

/// A wefrd child running in its own directory with its output in
/// wefrd.log there. The destructor kills and reaps a child that is
/// still running, so no exit path leaves a process behind.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& dir,
                const std::vector<std::string>& args) {
    std::vector<std::string> argv_s = {binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = dir + "/wefrd.log";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec.
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0 || ::chdir(dir.c_str()) != 0) ::_exit(126);
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~DaemonProcess() {
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status_, 0);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool alive() {
    if (reaped_) return false;
    if (::waitpid(pid_, &status_, WNOHANG) == pid_) reaped_ = true;
    return !reaped_;
  }

  /// Waits for the child to exit. Its exit code, or -1 when it was
  /// killed by a signal or did not exit in time (then it is killed).
  int wait_exit(double timeout_s) {
    const auto t0 = Clock::now();
    while (alive() && seconds_between(t0, Clock::now()) < timeout_s)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status_, 0);
      reaped_ = true;
      return -1;
    }
    return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  bool reaped_ = false;
};

// ---- one started daemon ------------------------------------------------------

struct Served {
  std::string drive_id;
  int score_day = -1;
  double score = 0.0;
  Clock::time_point sent, received;
  int epoch = -1;  ///< known exactly for the writer; -1 = bracket by time
};

/// Everything the window recorded.
struct Window {
  double wall_s = 0.0;
  std::vector<double> append_us;
  std::vector<double> turnaround_ms;
  std::vector<double> rescore_ms;       ///< the writer's day-end score calls
  std::vector<double> rows_per_day;
  std::vector<double> drives_per_day;
  std::vector<double> rows_per_s;
  std::vector<double> check_s;          ///< appends that ran a check
  std::vector<double> post_check_s;     ///< the writer's score call right after a check
  std::vector<double> read_ms;          ///< from due time; failed reads count as misses
  std::vector<double> read_lag_ms;
  std::size_t reads_ok_in_slo = 0;
  std::size_t reads = 0;
  double covered_s = 0.0;               ///< writer time inside timed calls
  /// Install brackets of the checks that ran inside the window: the
  /// send and reply times of the append that triggered each.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> installs;
  std::vector<Served> served;
  std::vector<obs::SpanRecord> spans;
};

class Harness {
 public:
  Harness(const RunOptions& opt, const Layout& lay, std::uint64_t seed, bool traced,
          Outcome& out)
      : opt_(opt), lay_(lay), seed_(seed), traced_(traced), out_(out) {}
  ~Harness() { teardown(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Generates the fleet, restores its history into a fresh wefrd and
  /// waits for the first check's predictor and rescore. Returns the
  /// set-up time.
  double setup();
  Window run_window();
  /// Stops wefrd with kShutdown, reaps it and folds its health into
  /// the outcome. Idempotent.
  void teardown();

  const data::FleetData& fleet() const { return fleet_; }
  std::size_t checks_in_window() const { return checks_in_window_; }
  double incremental_frac() const { return incremental_frac_; }

 private:
  daemon::Client::Options client_options(const char* name) const;
  std::unique_ptr<daemon::Client> connect(const char* name);
  bool append(daemon::Client& c, const data::DriveSeries& d, int day);
  static bool score(daemon::Client& c, const std::string& id, daemon::Msg& reply,
                    Outcome& sink);
  int report_checks();
  void reader_loop(Window& w, Outcome& sink, Clock::time_point start, std::stop_token stop,
                   obs::Tracer* tracer, std::uint64_t parent);

  const RunOptions& opt_;
  Layout lay_;
  std::uint64_t seed_;
  bool traced_;
  Outcome& out_;
  data::FleetData fleet_;
  std::string dir_;
  std::unique_ptr<DaemonProcess> proc_;
  std::unique_ptr<daemon::Client> writer_, reader_;
  std::size_t checks_at_start_ = 0;
  std::size_t checks_in_window_ = 0;
  double incremental_frac_ = 0.0;
};

daemon::Client::Options Harness::client_options(const char* name) const {
  daemon::Client::Options o;
  o.socket_path = dir_ + "/wefrd.sock";
  o.client_name = name;
  o.model_name = fleet_.model_name;
  o.feature_names = fleet_.feature_names;
  return o;
}

std::unique_ptr<daemon::Client> Harness::connect(const char* name) {
  auto c = std::make_unique<daemon::Client>(client_options(name));
  const auto t0 = Clock::now();
  std::string err;
  while (!c->connect(&err)) {
    if (!proc_->alive()) throw std::runtime_error("wefrd exited during start-up");
    if (seconds_between(t0, Clock::now()) > kStartTimeoutS)
      throw std::runtime_error("wefrd socket not ready: " + err);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return c;
}

bool Harness::append(daemon::Client& c, const data::DriveSeries& d, int day) {
  daemon::Msg reply;
  std::string err;
  const auto row = row_of(d, day);
  if (!c.append_day(d.drive_id, day, std::vector<double>(row.begin(), row.end()), d.fail_day,
                    reply, &err)) {
    out_.fail("append transport failure: " + err);
    return false;
  }
  if (reply.type != daemon::MsgType::kAppendOk) {
    out_.fail("append refused: " + reply.text);
    return false;
  }
  return true;
}

bool Harness::score(daemon::Client& c, const std::string& id, daemon::Msg& reply,
                    Outcome& sink) {
  std::string err;
  if (!c.score_drive(id, reply, &err)) {
    sink.fail("score transport failure: " + err);
    return false;
  }
  if (reply.type != daemon::MsgType::kScoreOk || !reply.found) {
    sink.fail("score refused or drive unknown: " + reply.text);
    return false;
  }
  return true;
}

int Harness::report_checks() {
  daemon::Msg reply;
  std::string err;
  if (!writer_->report(reply, &err) || reply.type != daemon::MsgType::kReportOk) {
    out_.fail("report failed: " + err + reply.text);
    return -1;
  }
  const std::string key = "\"checks\":";
  const auto pos = reply.text.find(key);
  if (pos == std::string::npos) {
    out_.fail("report has no check count");
    return -1;
  }
  return std::atoi(reply.text.c_str() + pos + key.size());
}

double Harness::setup() {
  teardown();
  const auto t0 = Clock::now();
  smartsim::SimOptions sim;
  sim.num_drives = lay_.drives;
  sim.num_days = lay_.last_day() + 1;
  sim.seed = seed_;
  sim.afr_scale = kAfrScale;
  fleet_ = smartsim::generate_fleet(smartsim::profile_by_name(kModel), sim);

  std::string tmpl = opt_.work_dir + "/wefrd.XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  dir_ = tmpl;

  // History restore, part 1: every day but the last, as a snapshot
  // folded through the daemon's own resident state.
  {
    daemon::ResidentFleet rf(core::ExperimentConfig{}.windows);
    rf.set_schema(fleet_.model_name, fleet_.feature_names);
    for (int day = 0; day < lay_.first_check(); ++day) {
      for (const auto& d : fleet_.drives) {
        if (active(d, day)) rf.append_day(d.drive_id, day, row_of(d, day), d.fail_day);
      }
    }
    std::string why;
    if (!data::write_daemon_snapshot(dir_ + "/state.wefrds", rf.save_snapshot(), &why))
      throw std::runtime_error("snapshot: " + why);
  }

  std::vector<std::string> args = {
      "--socket", "wefrd.sock", "--snapshot", "state.wefrds", "--model", kModel,
      "--threads", std::to_string(opt_.threads), "--trees", "100",
      "--check-interval", std::to_string(kCheckInterval),
      "--warmup", std::to_string(lay_.first_check()), "--no-drift-watch",
      "--log-level", "info"};
  if (traced_) {
    args.push_back("--metrics-out");
    args.push_back("metrics.prom");
  }
  const auto t_spawn = Clock::now();
  proc_ = std::make_unique<DaemonProcess>(opt_.wefrd_path, dir_, args);
  writer_ = connect("perfbench-writer");

  // Part 2: the last history day over the socket. Its first append runs
  // the first check; the score request then rescores the whole history.
  const int day = lay_.first_check();
  for (const auto& d : fleet_.drives) {
    if (active(d, day) && !append(*writer_, d, day))
      throw std::runtime_error("history restore failed");
  }
  daemon::Msg reply;
  if (!score(*writer_, fleet_.drives.front().drive_id, reply, out_))
    throw std::runtime_error("first check installed no predictor");
  const double s = seconds_between(t0, Clock::now());
  std::printf("  set-up %.3f s: fleet + snapshot %.3f s, start + restore + first check %.3f s\n",
              s, seconds_between(t0, t_spawn), seconds_between(t_spawn, Clock::now()));
  const int checks = report_checks();
  if (checks != 1) out_.fail("expected exactly one check during set-up");
  checks_at_start_ = static_cast<std::size_t>(std::max(0, checks));
  return s;
}

void Harness::reader_loop(Window& w, Outcome& sink, Clock::time_point start,
                          std::stop_token stop, obs::Tracer* tracer, std::uint64_t parent) {
  util::Rng rng(seed_ ^ 0x7265616465ULL);
  std::vector<const data::DriveSeries*> resident;
  for (const auto& d : fleet_.drives) {
    if (d.first_day <= lay_.first_check()) resident.push_back(&d);
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / opt_.scale.read_rate_hz));
  for (std::size_t k = 0;; ++k) {
    const Clock::time_point due = start + period * static_cast<long>(k);
    std::this_thread::sleep_until(due);
    if (stop.stop_requested()) break;
    const auto& d = *resident[rng.uniform_index(resident.size())];
    obs::Span span(tracer, "bench:read", parent);
    Served s;
    s.drive_id = d.drive_id;
    s.sent = Clock::now();
    daemon::Msg reply;
    const bool ok = score(*reader_, d.drive_id, reply, sink);
    s.received = Clock::now();
    span.finish();
    ++w.reads;
    const double ms = std::chrono::duration<double, std::milli>(s.received - due).count();
    w.read_lag_ms.push_back(std::chrono::duration<double, std::milli>(s.sent - due).count());
    w.read_ms.push_back(ok ? ms : std::numeric_limits<double>::infinity());
    if (ok && ms <= kReadSloMs) ++w.reads_ok_in_slo;
    if (ok) {
      s.score_day = reply.score_day;
      s.score = reply.score;
      w.served.push_back(std::move(s));
    }
  }
}

Window Harness::run_window() {
  Window w;
  reader_ = connect("perfbench-reader");
  obs::Tracer tracer;
  obs::Tracer* tp = traced_ ? &tracer : nullptr;
  Window reader_part;  // written only by the reader thread until joined
  Outcome reader_out;

  std::set<int> check_days;
  for (int c = lay_.first_check() + kCheckInterval; c <= lay_.last_day(); c += kCheckInterval)
    check_days.insert(c);

  const auto start = Clock::now();
  obs::Span root(tp, "bench:window");
  // Declared after everything the reader touches: on any exit path the
  // jthread asks the reader to stop and joins it first.
  std::jthread reader([&](std::stop_token stop) {
    reader_loop(reader_part, reader_out, start, stop, tp, root.id());
  });
  int epoch = 0;
  // One writer score request: its round trip, recorded as served under
  // the current epoch.
  const auto writer_score = [&](const std::string& id, daemon::Msg& reply) {
    obs::Span span(tp, "bench:score");
    Served s;
    s.drive_id = id;
    s.epoch = epoch;
    s.sent = Clock::now();
    const bool ok = score(*writer_, id, reply, out_);
    s.received = Clock::now();
    const double rt = seconds_between(s.sent, s.received);
    w.covered_s += rt;
    if (ok) {
      s.score_day = reply.score_day;
      s.score = reply.score;
      w.served.push_back(std::move(s));
    }
    return rt;
  };
  for (int day = lay_.history; day <= lay_.last_day(); ++day) {
    obs::Span day_span(tp, "bench:day");
    const auto day_start = Clock::now();
    bool first = true;
    std::string probe;
    for (const auto& d : fleet_.drives) {
      if (!active(d, day)) continue;
      if (probe.empty()) probe = d.drive_id;
      const bool runs_check = first && check_days.count(day) > 0;
      first = false;
      obs::Span span(tp, runs_check ? "bench:check_append" : "bench:append");
      const auto t = Clock::now();
      append(*writer_, d, day);
      const auto t_end = Clock::now();
      span.finish();
      w.covered_s += seconds_between(t, t_end);
      w.append_us.push_back(seconds_between(t, t_end) * 1e6);
      if (runs_check) {
        w.check_s.push_back(seconds_between(t, t_end));
        w.installs.emplace_back(t, t_end);
        ++epoch;
        // The new predictor dirtied every drive: ask for a score at once,
        // so this request (usually) pays the whole-history rescore.
        daemon::Msg reply;
        w.post_check_s.push_back(writer_score(probe, reply));
      }
    }
    daemon::Msg reply;
    const double rt = writer_score(probe, reply);
    w.turnaround_ms.push_back(seconds_between(day_start, Clock::now()) * 1e3);
    w.rescore_ms.push_back(rt * 1e3);
    w.rows_per_day.push_back(static_cast<double>(reply.days_scored));
    w.drives_per_day.push_back(static_cast<double>(reply.drives_rescored));
    w.rows_per_s.push_back(static_cast<double>(reply.days_scored) / rt);
  }
  w.wall_s = seconds_between(start, Clock::now());
  root.finish();
  std::printf("  window %.3f s: day turnaround p10/p50/p90 %.2f/%.2f/%.2f ms, "
              "append p50/p99 %.1f/%.1f us\n",
              w.wall_s, percentile(w.turnaround_ms, 10), percentile(w.turnaround_ms, 50),
              percentile(w.turnaround_ms, 90), percentile(w.append_us, 50),
              percentile(w.append_us, 99));
  reader.request_stop();
  reader.join();
  out_.failed += reader_out.failed;
  for (auto& f : reader_out.failures) out_.failures.push_back(std::move(f));

  w.read_ms = std::move(reader_part.read_ms);
  w.read_lag_ms = std::move(reader_part.read_lag_ms);
  w.reads = reader_part.reads;
  w.reads_ok_in_slo = reader_part.reads_ok_in_slo;
  for (auto& s : reader_part.served) w.served.push_back(std::move(s));
  out_.attempted += w.append_us.size() + w.rescore_ms.size() + w.post_check_s.size() + w.reads;
  if (traced_) w.spans = tracer.snapshot();

  const int checks = report_checks();
  checks_in_window_ = static_cast<std::size_t>(
      std::max<long>(0, static_cast<long>(checks) - static_cast<long>(checks_at_start_)));
  if (checks_in_window_ != check_days.size())
    out_.fail("daemon ran " + std::to_string(checks_in_window_) + " checks in the window, " +
              "the cadence asks for " + std::to_string(check_days.size()));
  return w;
}

void Harness::teardown() {
  if (!proc_) return;
  if (writer_) {
    daemon::Msg reply;
    std::string err;
    if (!writer_->shutdown_server(reply, &err) || reply.type != daemon::MsgType::kShutdownOk)
      out_.fail("shutdown refused: " + err);
  }
  const int code = proc_->wait_exit(kStopTimeoutS);
  if (code != 0) out_.fail("wefrd exit code " + std::to_string(code));
  for (const auto* c : {writer_.get(), reader_.get()}) {
    if (c != nullptr && c->reconnects() > 0) out_.fail("client reconnected");
  }
  writer_.reset();
  reader_.reset();
  proc_.reset();

  // wefrd's shutdown line: "... N frames ok, M rejected; ..."
  std::ifstream log(dir_ + "/wefrd.log");
  bool saw_summary = false;
  for (std::string line; std::getline(log, line);) {
    const auto pos = line.find(" frames ok, ");
    if (pos == std::string::npos) continue;
    saw_summary = true;
    const long rejected = std::atol(line.c_str() + pos + std::strlen(" frames ok, "));
    if (rejected != 0) out_.fail("wefrd rejected " + std::to_string(rejected) + " frames");
  }
  if (!saw_summary) out_.fail("wefrd printed no shutdown summary");

  if (traced_) {
    // Drives rescored through the resident tails vs through the batch
    // oracle, over the daemon's lifetime.
    std::ifstream prom(dir_ + "/metrics.prom");
    double incr = 0.0, full = 0.0;
    for (std::string line; std::getline(prom, line);) {
      std::istringstream ls(line);
      std::string name;
      double v = 0.0;
      if (!(ls >> name >> v)) continue;
      if (name == "wefr_daemon_drives_incremental_total") incr = v;
      if (name == "wefr_daemon_drives_full_total") full = v;
    }
    incremental_frac_ = incr + full > 0.0 ? incr / (incr + full) : 0.0;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

// ---- the in-process oracle ----------------------------------------------------

struct OracleResult {
  double f05 = 0.0;
  std::vector<TracedRun> runs;  ///< in-window checks, traced
  std::vector<double> samples_s, wefr_s, train_s;
};

/// Replays the run's appends into an in-process ResidentFleet, reruns
/// every check the daemon ran with the daemon's options, and compares
/// every served score bitwise against core::score_fleet under each
/// predictor that could have been installed when it was served.
OracleResult oracle_checks(const RunOptions& opt, const Layout& lay, const data::FleetData& fleet,
                           const Window& w, Outcome& out) {
  OracleResult res;
  const core::ExperimentConfig cfg = daemon_experiment(opt.threads);
  const core::WefrOptions wopt;  // wefrd runs checks with the defaults
  daemon::ResidentFleet rf(cfg.windows);
  rf.set_schema(fleet.model_name, fleet.feature_names);

  std::vector<core::WefrPredictor> epochs;
  for (int day = 0; day <= lay.last_day(); ++day) {
    if (day >= lay.first_check() && (day - lay.first_check()) % kCheckInterval == 0) {
      const bool in_window = day >= lay.history;
      obs::Tracer tracer;
      obs::Context ctx{&tracer, nullptr};
      const obs::Context* o = opt.trace && in_window ? &ctx : nullptr;
      const int train_end = day - 1;
      auto t = Clock::now();
      const auto samples = core::build_selection_samples(rf.fleet(), 0, train_end, cfg, o);
      const double samples_s = seconds_between(t, Clock::now());
      if (samples.num_positive() == 0) {
        if (epochs.empty()) throw std::runtime_error("oracle: first check has no positives");
        epochs.push_back(epochs.back());
      } else {
        t = Clock::now();
        const auto sel = core::run_wefr(rf.fleet(), samples, train_end, wopt, nullptr, o);
        const double wefr_s = seconds_between(t, Clock::now());
        t = Clock::now();
        epochs.push_back(core::train_predictor(rf.fleet(), sel, 0, train_end, cfg, o));
        if (in_window) {
          res.samples_s.push_back(samples_s);
          res.wefr_s.push_back(wefr_s);
          res.train_s.push_back(seconds_between(t, Clock::now()));
          if (o != nullptr)
            res.runs.push_back({tracer.snapshot(), epochs.back().low.has_value(),
                                epochs.back().high.has_value()});
        }
      }
    }
    for (const auto& d : fleet.drives) {
      if (active(d, day)) rf.append_day(d.drive_id, day, row_of(d, day), d.fail_day);
    }
  }

  // Per epoch: drive index -> its whole-history scores.
  const data::FleetData& full = rf.fleet();
  std::vector<std::vector<core::DriveDayScores>> by_epoch;
  for (const auto& p : epochs) {
    auto scores = core::score_fleet(full, p, 0, lay.last_day(), cfg);
    std::vector<core::DriveDayScores> dense(full.drives.size());
    for (auto& ds : scores) {
      const std::size_t i = ds.drive_index;
      dense[i] = std::move(ds);
    }
    by_epoch.push_back(std::move(dense));
  }
  const auto oracle_bits = [&](std::size_t e, std::size_t di, int day, double& v) {
    const auto& ds = by_epoch[e][di];
    const int k = day - ds.first_day;
    if (k < 0 || static_cast<std::size_t>(k) >= ds.scores.size()) return false;
    v = ds.scores[static_cast<std::size_t>(k)];
    return true;
  };

  const std::size_t last_epoch = epochs.size() - 1;
  std::size_t mismatches = 0;
  if (w.installs.size() != last_epoch) {
    out.fail("oracle ran " + std::to_string(last_epoch) + " in-window checks, the writer saw " +
             std::to_string(w.installs.size()));
    return res;
  }
  for (const auto& s : w.served) {
    const std::size_t di = rf.find_drive(s.drive_id);
    if (di == daemon::ResidentFleet::npos) {
      ++mismatches;
      continue;
    }
    // Epochs that may have served this request: installed (at the
    // earliest) before the reply, and not yet replaced (at the latest)
    // when it was sent.
    std::size_t lo = 0, hi = last_epoch;
    if (s.epoch >= 0) {
      lo = hi = static_cast<std::size_t>(s.epoch);
    } else {
      while (hi > 0 && w.installs[hi - 1].first > s.received) --hi;
      while (lo < hi && w.installs[lo].second < s.sent) ++lo;
    }
    bool match = false;
    for (std::size_t e = lo; e <= hi && !match; ++e) {
      double v = 0.0;
      match = oracle_bits(e, di, s.score_day, v) && std::memcmp(&v, &s.score, sizeof v) == 0;
    }
    if (!match) ++mismatches;
  }
  if (mismatches > 0) out.fail("served scores differ from the oracle", mismatches);

  // F0.5 over the window, each day scored by the predictor that was
  // installed when the writer's day-end rescore ran.
  std::vector<core::DriveDayScores> window_scores;
  for (std::size_t di = 0; di < full.drives.size(); ++di) {
    const auto& drive = full.drives[di];
    const int lo = std::max(lay.history, drive.first_day);
    const int hi = std::min(lay.last_day(), drive.last_day());
    if (lo > hi) continue;
    core::DriveDayScores ds;
    ds.drive_index = di;
    ds.first_day = lo;
    for (int day = lo; day <= hi; ++day) {
      const auto e = static_cast<std::size_t>((day - lay.first_check()) / kCheckInterval);
      double v = 0.0;
      if (!oracle_bits(std::min(e, last_epoch), di, day, v)) v = 0.0;
      ds.scores.push_back(v);
    }
    window_scores.push_back(std::move(ds));
  }
  res.f05 = core::evaluate_fixed_recall(full, window_scores, lay.history, lay.last_day(),
                                        cfg.horizon_days, 0.3)
                .f05;
  return res;
}

std::uint64_t served_digest(const std::vector<Served>& served) {
  Digest d;
  for (const auto& s : served) {
    if (s.epoch < 0) continue;  // the writer's day-end scores are seed-determined
    d.str(s.drive_id);
    d.u64(static_cast<std::uint64_t>(s.score_day));
    d.f64(s.score);
  }
  return d.value();
}

}  // namespace

Outcome run_daemon_recheck(const RunOptions& opt) {
  Outcome out;
  Layout lay;
  const Scale& sc = opt.scale;
  lay.drives = sc.recheck_drives;
  lay.history = sc.recheck_history_days;
  lay.window = sc.recheck_window_days;
  const char* name = "daemon_recheck";

  // Untraced run: one set-up and window per fleet instance, at least
  // instances_daemon of them and more until the windows add up to
  // --seconds; setup_s and wall_s are medians over them. Traced run: the
  // first instance twice, an untraced window for the overhead ratio, then
  // a traced one (wefrd writes its metrics) for the per-layer numbers.
  std::vector<double> setups;
  std::vector<Window> windows;
  std::vector<OracleResult> oracles;
  std::size_t checks = 0;
  double incremental = 0.0;
  double measured_s = 0.0;
  for (int i = 0;; ++i) {
    if (opt.trace ? i == 2 : i >= sc.instances_daemon && measured_s >= opt.seconds) break;
    const bool traced = opt.trace && i == 1;
    Harness h(opt, lay, instance_seed(opt.seed, opt.trace ? 0 : i), traced, out);
    setups.push_back(h.setup());
    Window w = h.run_window();
    checks = h.checks_in_window();
    h.teardown();
    incremental = h.incremental_frac();
    oracles.push_back(oracle_checks(opt, lay, h.fleet(), w, out));
    measured_s += w.wall_s;
    windows.push_back(std::move(w));
  }

  const Window& w = windows.back();
  const OracleResult& orc = oracles.back();
  Digest d;
  std::vector<double> walls;
  for (const auto& win : windows) {
    d.u64(served_digest(win.served));
    walls.push_back(win.wall_s);
  }
  out.digest = d.hex();
  if (opt.trace && served_digest(windows[0].served) != served_digest(windows[1].served))
    out.fail("day-end scores differ between two replays of the same fleet");
  std::printf("%s: %zu drives, history %d days, window %d days (%zu checks in window), T=%zu, "
              "%zu appends, %zu reads, F0.5 %.4f; window wall",
              name, lay.drives, lay.history, lay.window, checks, opt.threads,
              w.append_us.size(), w.reads, orc.f05);
  for (double v : walls) std::printf(" %.3f", v);
  std::printf(" s\n");

  out.end_to_end.set("setup_s", median(setups), "s");
  out.end_to_end.set("wall_s", median(walls), "s");
  if (!opt.trace) return out;
  out.per_layer.set("f05", orc.f05, "ratio");

  Metrics& m = out.per_layer;
  m.set("append_p50_us", percentile(w.append_us, 50), "us");
  m.set("append_p99_us", percentile(w.append_us, 99), "us");
  m.set("day_turnaround_ms", median(w.turnaround_ms), "ms");
  m.set("read_p50_ms", percentile(w.read_ms, 50), "ms");
  m.set("read_p99_ms", percentile(w.read_ms, 99), "ms");
  m.set("read_slo_frac",
        w.reads > 0 ? static_cast<double>(w.reads_ok_in_slo) / static_cast<double>(w.reads) : 0.0,
        "ratio");
  m.set("core.build_selection_samples_s", median(orc.samples_s), "s");
  m.set("core.run_wefr_s", median(orc.wefr_s), "s");
  m.set("core.train_predictor_s", median(orc.train_s), "s");
  set_span_metrics(m, orc.runs);
  m.set("ml.score_rows_per_s", median(w.rows_per_s), "1/s");
  m.set("daemon.rescore_ms", median(w.rescore_ms), "ms");
  m.set("daemon.rows_rescored_per_day", median(w.rows_per_day), "count");
  m.set("daemon.drives_rescored_per_day", median(w.drives_per_day), "count");
  m.set("daemon.check_s", median(w.check_s), "s");
  m.set("daemon.post_check_rescore_s", median(w.post_check_s), "s");
  m.set("daemon.incremental_frac", incremental, "ratio");
  m.set("daemon.checks", static_cast<double>(checks), "count");
  double lag = 0.0;
  for (double v : w.read_lag_ms) lag += v;
  m.set("daemon.reader_lag_ms", w.read_lag_ms.empty() ? 0.0 : lag / w.read_lag_ms.size(), "ms");
  m.set("obs.trace_overhead_ratio", w.wall_s / windows.front().wall_s, "ratio");
  m.set("coverage", w.covered_s / w.wall_s, "ratio");

  print_layer_table(std::string(name) + " (traced window, client side)", layer_table(w.spans),
                    w.wall_s);
  if (!orc.runs.empty()) {
    const auto& run = orc.runs[orc.runs.size() / 2];
    double total = 0.0;
    for (const auto& s : run.spans) {
      if (s.parent == 0) total += s.dur_us * 1e-6;
    }
    print_layer_table(std::string(name) + " (one in-window check, replayed in-process)",
                      layer_table(run.spans), total);
  }
  return out;
}

}  // namespace perfbench
