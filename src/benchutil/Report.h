//===- Report.h - Schema-versioned BENCH_*.json emission and checking -----===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable side of every bench binary. A Reporter accumulates
/// one row per measured data point and writes a BENCH_<bench>.json file:
///
///   {
///     "schema_version": 1,
///     "bench": "fig14_square",
///     "generated_unix": 1754000000,
///     "machine": { "os", "kernel", "arch", "cpu", "hw_threads" },
///     "options": { "seconds", "big", "smoke" },
///     "counter_backend": "perf" | "fake" | "off",
///     "gemm_threads": 1,
///     "rows": [ {
///        "label": "m256 n256 k256", "series": "ALG+EXO",
///        "metric": "gflops", "better": "higher", "value": 42.0,
///        "seconds_per_call": 0.0013, "reps": 190, "threads": 1,
///        "m": 256, "n": 256, "k": 256,            // 0 when not a GEMM
///        "stages": { "gemm.packA": { "seconds", "count", "cycles",
///                                    "instructions", "cache_misses" } },
///        "counters": { ... }                       // optional extras
///     } ]
///   }
///
/// `better` declares the regression direction for tools/bench_check:
/// "higher" (GFLOPS), "lower" (seconds), or "info" (audit values that are
/// reported but never gated). Stage seconds/counters are per *call*
/// averages (totals divided by reps), so rows compare across runs with
/// different repetition counts; stage `count` stays the raw number of span
/// instances over the timed reps.
///
/// compareReports() is the core of `tools/bench_check`: it matches rows of
/// two reports by (series, label, metric) and flags relative regressions
/// beyond a noise tolerance. It lives here so the gate logic is unit
/// tested, with the CLI a thin wrapper.
///
//===----------------------------------------------------------------------===//

#ifndef BENCHUTIL_REPORT_H
#define BENCHUTIL_REPORT_H

#include "benchutil/Json.h"
#include "obs/Obs.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace benchutil {

/// Bumped whenever a field changes meaning; bench_check refuses to compare
/// across versions.
inline constexpr int ReportSchemaVersion = 1;

/// One measured data point (see file comment for the JSON mapping).
struct ReportRow {
  std::string Label;  ///< shape/config label, unique per (bench, series)
  std::string Series; ///< provider/variant name ("ALG+EXO", ...)
  std::string Metric = "gflops";
  std::string Better = "higher"; ///< "higher" | "lower" | "info"
  double Value = 0;
  double SecondsPerCall = 0;
  int64_t Reps = 0;
  int64_t Threads = 1;
  int64_t M = 0, N = 0, K = 0;
  std::map<std::string, obs::StageStat> Stages; ///< per-call averages
  std::map<std::string, double> Extra; ///< free-form numeric extras
};

/// Host identity block for the report (os/kernel/arch/cpu/hw_threads).
Json machineIdentity();

/// See file comment.
class Reporter {
public:
  explicit Reporter(std::string BenchName);

  /// Records a bench option ("seconds", "big", ...) under "options".
  void setOption(const std::string &Key, Json Value);

  /// Records a top-level report field (e.g. "gemm_threads").
  void setField(const std::string &Key, Json Value);

  void addRow(ReportRow Row);

  size_t rowCount() const { return Rows.size(); }

  Json toJson() const;
  exo::Error write(const std::string &Path) const;

private:
  std::string BenchName;
  Json Options = Json::object();
  Json Fields = Json::object();
  std::vector<ReportRow> Rows;
};

/// bench_check configuration.
struct CompareOptions {
  /// Maximum tolerated relative regression (0.10 = 10%).
  double Tolerance = 0.10;
  /// When true, a row present in the baseline but missing from the fresh
  /// report counts as a regression (default: noted only).
  bool RequireAllRows = false;
};

struct CompareResult {
  int Compared = 0; ///< rows matched in both reports
  std::vector<std::string> Regressions;
  std::vector<std::string> Improvements;
  /// Machine-identity mismatch, missing/new rows, info diffs.
  std::vector<std::string> Notes;

  bool pass() const { return Regressions.empty(); }
};

/// Compares two reports produced by Reporter (same schema version). Rows
/// match on (series, label, metric); "info" rows are never gated.
exo::Expected<CompareResult> compareReports(const Json &Baseline,
                                            const Json &Fresh,
                                            const CompareOptions &Opts);

} // namespace benchutil

#endif // BENCHUTIL_REPORT_H
