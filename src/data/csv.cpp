#include "data/csv.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "data/mmap_file.h"
#include "data/preprocess.h"
#include "obs/context.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace wefr::data {

namespace {
constexpr int kMetaCols = 4;  // drive_id, day, failed, fail_day
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool is_nan_token(std::string_view s) {
  if (s.size() != 3) return false;
  auto lower = [](char c) { return static_cast<char>(c | 0x20); };
  return lower(s[0]) == 'n' && lower(s[1]) == 'a' && lower(s[2]) == 'n';
}
}  // namespace

void write_fleet_csv(const FleetData& fleet, std::ostream& os) {
  os << "drive_id,day,failed,fail_day";
  for (const auto& name : fleet.feature_names) os << ',' << name;
  os << '\n';
  os.precision(17);
  for (const auto& drive : fleet.drives) {
    for (std::size_t d = 0; d < drive.num_days(); ++d) {
      os << drive.drive_id << ',' << (drive.first_day + static_cast<int>(d)) << ','
         << (drive.failed() ? 1 : 0) << ',' << drive.fail_day;
      for (double v : drive.values.row(d)) os << ',' << v;
      os << '\n';
    }
  }
}

void write_fleet_csv(const FleetData& fleet, const std::string& path) {
  std::ofstream ofs(path);
  if (!ofs) throw std::runtime_error("write_fleet_csv: cannot open " + path);
  write_fleet_csv(fleet, ofs);
  if (!ofs) throw std::runtime_error("write_fleet_csv: write failed for " + path);
}

namespace {

/// One tokenized data row: zero-copy field views plus pre-parsed
/// numerics, produced by tokenize_row on the serial path and by the
/// parallel chunk workers on the mmap path. Everything order-dependent
/// (drive grouping, contiguity, quarantine policy) happens later, in
/// RowAssembler, which consumes RawRows strictly in file order — that
/// is what makes the parallel parse byte-identical to the serial one.
struct RawRow {
  std::string_view id;            ///< first field of the (line-trimmed) row
  std::size_t line_no = 0;        ///< 1-based file line (header = line 1)
  bool fields_ok = false;         ///< exactly kMetaCols + nf fields
  bool meta_ok = false;           ///< day/failed/fail_day all parsed
  int day = 0;                    ///< valid iff meta_ok
  int fail_day = 0;               ///< valid iff meta_ok
  std::size_t values_off = 0;     ///< nf doubles in the side buffer, iff fields_ok
  std::uint32_t missing_cells = 0;  ///< empty / "nan" feature fields
  std::uint32_t bad_cells = 0;      ///< otherwise-unparseable feature fields
  std::uint32_t padded_cells = 0;   ///< NaN-padded tail (pad_missing_columns)
};

/// Tokenizes one non-empty, line-trimmed data row. Splits on ',' with
/// util::split semantics (empty fields kept) but without allocating,
/// and parses every numeric through util::parse_double — the shared
/// std::from_chars fast path — so the bits of every accepted value are
/// identical to the historical istream parser's. Feature values (NaN
/// holes included) are appended to `values` only when the field count
/// is exactly right; a malformed count rolls the appends back. With
/// `pad_missing` (ReadOptions::pad_missing_columns) a row whose meta
/// fields are complete but whose feature tail is short is accepted
/// instead: the missing cells become NaN and are counted in
/// `row.padded_cells` (schema tolerance, distinct from the
/// missing/bad-cell corruption tallies).
void tokenize_row(std::string_view row_text, std::size_t nf, bool pad_missing,
                  std::vector<double>& values, RawRow& row) {
  const std::size_t values_off = values.size();
  std::string_view meta[kMetaCols];
  std::size_t field_index = 0;
  std::uint32_t missing = 0, bad = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= row_text.size(); ++i) {
    if (i != row_text.size() && row_text[i] != ',') continue;
    const std::string_view field = row_text.substr(start, i - start);
    start = i + 1;
    if (field_index < kMetaCols) {
      meta[field_index] = field;
    } else if (field_index - kMetaCols < nf) {
      const std::string_view cell = util::trim(field);
      double v = 0.0;
      if (util::parse_double(cell, v)) {
        values.push_back(v);
      } else {
        values.push_back(kNaN);
        if (cell.empty() || is_nan_token(cell)) {
          ++missing;
        } else {
          ++bad;
        }
      }
    }
    ++field_index;
  }
  row.id = meta[0];
  row.fields_ok = field_index == kMetaCols + nf;
  if (!row.fields_ok && pad_missing && field_index >= kMetaCols &&
      field_index < kMetaCols + nf) {
    const std::size_t pad = kMetaCols + nf - field_index;
    values.insert(values.end(), pad, kNaN);
    row.padded_cells = static_cast<std::uint32_t>(pad);
    row.fields_ok = true;
  }
  if (!row.fields_ok) {
    values.resize(values_off);  // reclaim a partial row
    return;
  }
  row.values_off = values_off;
  row.missing_cells = missing;
  row.bad_cells = bad;
  double day_d = 0.0, failed_d = 0.0, fail_day_d = 0.0;
  // fail_day may be -1 for healthy drives.
  row.meta_ok = util::parse_double(meta[1], day_d) &&
                util::parse_double(meta[2], failed_d) &&
                util::parse_double(meta[3], fail_day_d);
  if (row.meta_ok) {
    row.day = static_cast<int>(day_d);
    row.fail_day = static_cast<int>(fail_day_d);
  }
}

/// The order-dependent half of the parser: drive grouping, day
/// contiguity, ParsePolicy strict/recover/skip-drive semantics, and
/// every IngestReport tally, consuming tokenized rows in file order.
/// Shared verbatim between the serial istream parser (the equivalence
/// oracle) and the parallel mmap parser, so the two cannot drift.
///
/// In strict mode anomalies throw (identical messages to the
/// historical parser); in the tolerant modes they are tallied into
/// `rep` and assembly keeps going, so consumption is total on
/// arbitrary row corruption.
class RowAssembler {
 public:
  RowAssembler(const ReadOptions& opt, const std::string& model_name, IngestReport& rep)
      : opt_(opt),
        strict_(opt.policy == ParsePolicy::kStrict),
        skip_drive_(opt.policy == ParsePolicy::kSkipDrive),
        rep_(rep) {
    fleet_.model_name = model_name;
  }

  /// Records an unusable-input condition (no header at all, header too
  /// short/wrong): throws in strict mode, sets rep.fatal otherwise.
  void input_fatal(RowError e, const char* msg) {
    if (strict_) throw std::runtime_error(msg);
    ++rep_.error_counts[static_cast<std::size_t>(e)];
    rep_.fatal = true;
    rep_.fatal_detail = msg;
  }

  /// Parses the header line (content of file line 1, untrimmed).
  /// False = unusable input already recorded via input_fatal.
  bool header(std::string_view line) {
    const auto fields = util::split(util::trim(line), ',');
    if (fields.size() < kMetaCols + 1) {
      input_fatal(RowError::kBadHeader, "read_fleet_csv: header too short");
      return false;
    }
    if (fields[0] != "drive_id" || fields[1] != "day" || fields[2] != "failed" ||
        fields[3] != "fail_day") {
      input_fatal(RowError::kBadHeader, "read_fleet_csv: unexpected header");
      return false;
    }
    fleet_.feature_names.assign(fields.begin() + kMetaCols, fields.end());
    nf_ = fleet_.feature_names.size();
    nan_row_.assign(nf_, kNaN);
    return true;
  }

  std::size_t nf() const { return nf_; }

  /// Consumes one tokenized row; `vals` points at its nf feature
  /// doubles (only dereferenced when row.fields_ok).
  void consume(const RawRow& row, const double* vals) {
    ++rep_.rows_total;
    const std::string row_id(row.id);

    if (!row_id.empty() && poisoned_ids_.count(row_id) > 0) {
      ++rep_.rows_quarantined;  // rest of an already-poisoned drive
      return;
    }
    if (!row.fields_ok) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: wrong field count at line " +
                                 std::to_string(row.line_no));
      quarantine_row(RowError::kWrongFieldCount, row_id);
      return;
    }
    if (!row.meta_ok) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: bad day/failed/fail_day at line " +
                                 std::to_string(row.line_no));
      quarantine_row(RowError::kBadMetaField, row_id);
      return;
    }
    const int day = row.day;

    if (current_ == nullptr || current_->drive_id != row_id) {
      if (seen_ids_.count(row_id) > 0) {
        // A drive restarting after other drives: its rows are no longer
        // contiguous, so its series cannot be trusted.
        if (strict_)
          throw std::runtime_error("read_fleet_csv: drive " + row_id +
                                   " reappears at line " + std::to_string(row.line_no));
        quarantine_row(RowError::kReappearingDrive, row_id);
        return;
      }
      seen_ids_.insert(row_id);
      fleet_.drives.emplace_back();
      ok_rows_by_drive_.push_back(0);
      current_ = &fleet_.drives.back();
      current_->drive_id = row_id;
      current_->first_day = day;
      current_->fail_day = row.fail_day;
      current_->values = Matrix(0, nf_);
    } else if (day != current_->last_day() + 1) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: non-contiguous days for drive " +
                                 row_id + " at line " + std::to_string(row.line_no));
      const int gap = day - current_->last_day() - 1;
      if (gap > 0 && gap <= opt_.max_gap_days) {
        // A short observation gap: bridge it with all-NaN days so the
        // series stays contiguous; forward_fill repairs them later.
        for (int g = 0; g < gap; ++g) current_->values.push_row(nan_row_);
        rep_.gap_days_bridged += static_cast<std::size_t>(gap);
      } else {
        // Duplicate, out-of-order, or an implausibly large jump.
        quarantine_row(RowError::kNonContiguousDay, row_id);
        if (poisoned_ids_.count(row_id) > 0) current_ = nullptr;
        return;
      }
    }

    if (row.bad_cells + row.missing_cells > 0) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: bad value at line " +
                                 std::to_string(row.line_no));
      // Cell-level recovery: the row survives with NaN holes.
      rep_.cells_recovered += row.bad_cells + row.missing_cells;
      rep_.error_counts[static_cast<std::size_t>(RowError::kBadValue)] += row.bad_cells;
      rep_.error_counts[static_cast<std::size_t>(RowError::kMissingValue)] +=
          row.missing_cells;
    }
    if (row.padded_cells > 0) {
      // Mixed-schema tail pad: a schema statement, not corruption — no
      // error class, no strict throw, just the dedicated tallies.
      ++rep_.rows_padded;
      rep_.cells_padded += row.padded_cells;
    }
    current_->values.push_row({vals, nf_});
    ++rep_.rows_ok;
    ++ok_rows_by_drive_[fleet_.drives.size() - 1];
    max_day_ = std::max(max_day_, day);
  }

  /// Stream went bad mid-read (istream path only).
  void io_failure() {
    if (strict_) throw std::runtime_error("read_fleet_csv: stream read failed");
    ++rep_.error_counts[static_cast<std::size_t>(RowError::kIoFailure)];
  }

  /// Returns the (empty) fleet after an unusable-input condition.
  FleetData abandon() { return std::move(fleet_); }

  /// Final sweep: drop poisoned drives (kSkipDrive), reclaim their
  /// already-accepted rows into the quarantine tallies, fix num_days.
  FleetData finish() {
    if (!poisoned_ids_.empty()) {
      std::vector<DriveSeries> kept;
      kept.reserve(fleet_.drives.size());
      for (std::size_t i = 0; i < fleet_.drives.size(); ++i) {
        if (poisoned_ids_.count(fleet_.drives[i].drive_id) > 0) {
          rep_.rows_ok -= ok_rows_by_drive_[i];
          rep_.rows_quarantined += ok_rows_by_drive_[i];
          ++rep_.drives_quarantined;
        } else {
          kept.push_back(std::move(fleet_.drives[i]));
        }
      }
      fleet_.drives = std::move(kept);
      max_day_ = -1;
      for (const auto& d : fleet_.drives)
        if (d.num_days() > 0) max_day_ = std::max(max_day_, d.last_day());
    }
    fleet_.num_days = max_day_ + 1;
    return std::move(fleet_);
  }

 private:
  void flag_drive(const std::string& id) {
    if (id.empty() || flagged_ids_.count(id) > 0) return;
    flagged_ids_.insert(id);
    if (rep_.quarantined_drive_ids.size() < opt_.max_quarantined_ids)
      rep_.quarantined_drive_ids.push_back(id);
  }

  /// Quarantines one row; in kSkipDrive mode the whole drive goes with
  /// it (rows already parsed are reclaimed during the final sweep).
  void quarantine_row(RowError e, const std::string& id) {
    ++rep_.error_counts[static_cast<std::size_t>(e)];
    ++rep_.rows_quarantined;
    flag_drive(id);
    if (skip_drive_ && !id.empty()) poisoned_ids_.insert(id);
  }

  const ReadOptions& opt_;
  const bool strict_;
  const bool skip_drive_;
  IngestReport& rep_;

  FleetData fleet_;
  std::size_t nf_ = 0;
  std::vector<double> nan_row_;
  std::unordered_set<std::string> seen_ids_;      // every drive id started
  std::unordered_set<std::string> poisoned_ids_;  // kSkipDrive casualties
  std::unordered_set<std::string> flagged_ids_;   // ids in quarantined_drive_ids
  std::vector<std::size_t> ok_rows_by_drive_;     // parallel to fleet_.drives
  DriveSeries* current_ = nullptr;
  int max_day_ = -1;
};

/// Serial reference parser behind the istream overloads: getline +
/// tokenize + assemble, one row at a time. This is the equivalence
/// oracle the parallel mmap parser is tested against.
FleetData parse_fleet_csv(std::istream& is, const std::string& model_name,
                          const ReadOptions& opt, IngestReport& rep) {
  RowAssembler assembler(opt, model_name, rep);
  std::string line;
  if (!std::getline(is, line)) {
    assembler.input_fatal(RowError::kEmptyInput, "read_fleet_csv: empty input");
    return assembler.abandon();
  }
  if (!assembler.header(line)) return assembler.abandon();

  std::vector<double> scratch;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    scratch.clear();
    RawRow row;
    row.line_no = line_no;
    tokenize_row(trimmed, assembler.nf(), opt.pad_missing_columns, scratch, row);
    assembler.consume(row, scratch.data());
  }
  if (is.bad()) assembler.io_failure();
  return assembler.finish();
}

/// One newline-aligned slice of the data region, tokenized by one
/// worker. `lines` counts every line in the slice (blank ones
/// included) so global line numbers rebase by prefix sum.
struct ParsedChunk {
  std::size_t lines = 0;
  std::vector<RawRow> rows;
  std::vector<double> values;
};

void tokenize_chunk(std::string_view data, std::size_t nf, bool pad_missing,
                    ParsedChunk& out) {
  std::size_t pos = 0;
  std::size_t line_index = 0;
  while (pos < data.size()) {
    const std::size_t eol = data.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? data.size() : eol;
    const std::string_view line = data.substr(pos, end - pos);
    pos = eol == std::string_view::npos ? data.size() : eol + 1;
    ++line_index;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    RawRow row;
    row.line_no = line_index;  // chunk-relative; rebased during merge
    tokenize_row(trimmed, nf, pad_missing, out.values, row);
    out.rows.push_back(row);
  }
  out.lines = line_index;
}

/// Parallel buffer parser: newline-aligned chunks tokenized on a
/// ThreadPool (the expensive part — field splitting and from_chars),
/// then merged in file order through the same RowAssembler the serial
/// parser uses. Output is byte-identical to parse_fleet_csv on the
/// same bytes at any thread count and any chunk size.
FleetData parse_fleet_buffer(std::string_view text, const std::string& model_name,
                             const ReadOptions& opt, IngestReport& rep,
                             const obs::Context* obs) {
  RowAssembler assembler(opt, model_name, rep);
  if (text.empty()) {
    assembler.input_fatal(RowError::kEmptyInput, "read_fleet_csv: empty input");
    return assembler.abandon();
  }
  const std::size_t header_eol = text.find('\n');
  const std::string_view header_line =
      text.substr(0, header_eol == std::string_view::npos ? text.size() : header_eol);
  if (!assembler.header(header_line)) return assembler.abandon();
  const std::string_view data =
      header_eol == std::string_view::npos ? std::string_view{}
                                           : text.substr(header_eol + 1);

  const std::size_t threads =
      opt.num_threads == 0 ? util::default_thread_count() : opt.num_threads;
  const std::size_t chunk_bytes = std::max<std::size_t>(1, opt.parallel_chunk_bytes);
  // Enough chunks to fill the pool with headroom for stragglers, but
  // never smaller than the target chunk size.
  std::size_t num_chunks =
      std::min(data.size() / chunk_bytes + 1, std::max<std::size_t>(1, threads * 4));

  std::vector<std::size_t> bounds{0};
  for (std::size_t c = 1; c < num_chunks; ++c) {
    const std::size_t nominal = std::max(data.size() * c / num_chunks, bounds.back());
    const std::size_t nl = data.find('\n', nominal);
    const std::size_t b = nl == std::string_view::npos ? data.size() : nl + 1;
    if (b > bounds.back() && b < data.size()) bounds.push_back(b);
  }
  bounds.push_back(data.size());
  const std::size_t n_chunks = bounds.size() - 1;

  std::vector<ParsedChunk> chunks(n_chunks);
  const std::size_t nf = assembler.nf();
  auto run_chunk = [&](std::size_t c) {
    tokenize_chunk(data.substr(bounds[c], bounds[c + 1] - bounds[c]), nf,
                   opt.pad_missing_columns, chunks[c]);
  };
  {
    obs::Span tokenize_span(obs, "ingest:tokenize");
    util::run_tasks(threads, n_chunks, run_chunk);
  }
  obs::add_counter(obs, "wefr_ingest_parse_chunks_total", n_chunks);

  obs::Span merge_span(obs, "ingest:merge");
  std::size_t line_base = 1;  // the header is line 1
  for (auto& chunk : chunks) {
    for (auto& row : chunk.rows) {
      row.line_no += line_base;
      assembler.consume(row, chunk.values.data() + row.values_off);
    }
    line_base += chunk.lines;
  }
  return assembler.finish();
}

}  // namespace

FleetData read_fleet_csv(std::istream& is, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report,
                         const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport{};
  obs::Span span(obs, "ingest:read_csv");
  FleetData fleet = parse_fleet_csv(is, model_name, opt, rep);
  span.finish();
  if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
  return fleet;
}

FleetData read_fleet_csv(std::istream& is, const std::string& model_name) {
  return read_fleet_csv(is, model_name, ReadOptions{});
}

FleetData read_fleet_csv_buffer(std::string_view text, const std::string& model_name,
                                const ReadOptions& opt, IngestReport* report,
                                const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport{};
  obs::Span span(obs, "ingest:read_csv");
  FleetData fleet = parse_fleet_buffer(text, model_name, opt, rep, obs);
  span.finish();
  if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
  return fleet;
}

FleetData read_fleet_csv(const std::string& path, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report,
                         const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport{};

  obs::Span span(obs, "ingest:read_csv");
  const std::size_t attempts = std::max<std::size_t>(1, opt.max_io_attempts);
  std::string open_error;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) ++rep.io_retries;
    MappedFile file;
    if (!file.open(path)) {
      open_error = "read_fleet_csv: cannot open " + path;
      continue;
    }
    IngestReport pass;
    pass.io_retries = rep.io_retries;
    FleetData fleet = parse_fleet_buffer(file.view(), model_name, opt, pass, obs);
    rep = pass;
    span.finish();
    if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
    return fleet;
  }

  if (opt.policy == ParsePolicy::kStrict)
    throw std::runtime_error(open_error + " after " + std::to_string(attempts) +
                             " attempts");
  ++rep.error_counts[static_cast<std::size_t>(RowError::kIoFailure)];
  rep.fatal = true;
  rep.fatal_detail = open_error;
  span.finish();
  if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
  { FleetData empty; empty.model_name = model_name; return empty; }
}

FleetData read_fleet_csv(const std::string& path, const std::string& model_name) {
  std::ifstream ifs(path);
  if (!ifs) throw std::runtime_error("read_fleet_csv: cannot open " + path);
  return read_fleet_csv(ifs, model_name);
}

FleetData load_fleet_csv(const std::string& path, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report,
                         const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  obs::Span span(obs, "ingest");
  FleetData fleet = read_fleet_csv(path, model_name, opt, &rep, obs);
  if (!rep.fatal) {
    obs::Span fill_span(obs, "ingest:forward_fill");
    forward_fill(fleet, 0.0, &rep.fill);
    fill_span.finish();
    obs::add_counter(obs, "wefr_ingest_cells_filled_total", rep.fill.cells_filled);
  }
  return fleet;
}

}  // namespace wefr::data
