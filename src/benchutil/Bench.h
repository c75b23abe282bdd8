//===- Bench.h - Timing and reporting helpers -----------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock measurement in the style of the paper's driver: run the
/// workload repeatedly until a minimum duration elapses (the paper uses 5
/// seconds in solo mode; these benches default lower so the full suite runs
/// in minutes — raise with --seconds), then report
/// GFLOPS. Also provides the aligned-column table printer the fig benches
/// share, and common CLI parsing (--big, --seconds, --csv, --smoke,
/// --json, --trace).
///
/// Every bench funnels its timing through measure(): one warm-up call,
/// then repetitions until the budget elapses, with per-stage time
/// attribution (obs spans) captured over the timed reps only. The human
/// table, the CSV mirror and the BENCH_*.json report all read from the
/// same Measurement — there is exactly one measurement path.
///
//===----------------------------------------------------------------------===//

#ifndef BENCHUTIL_BENCH_H
#define BENCHUTIL_BENCH_H

#include "obs/Obs.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace benchutil {

/// CLI options shared by the fig benches.
struct BenchOptions {
  /// Use the paper's full problem sizes instead of scaled defaults.
  bool Big = false;
  /// Minimum measured seconds per data point.
  double Seconds = 0.25;
  /// Also print machine-readable CSV lines (prefix "CSV,").
  bool Csv = false;
  /// Tiny shapes and a minimal budget: `ctest -L bench-smoke` mode that
  /// exists to keep --json emission from rotting, not to produce numbers.
  bool Smoke = false;
  /// BENCH_*.json output path; empty = no report, "auto" (bare --json) =
  /// BENCH_<bench>.json in the working directory.
  std::string JsonPath;
  /// Chrome-trace output path (--trace); empty = no trace.
  std::string TracePath;
  /// Route GEMM calls through a running gemmd daemon (gemm::Client)
  /// instead of in-process Engines. An optional path argument names the
  /// rendezvous socket; empty defers to EXO_GEMMD_SOCKET / the default.
  bool Remote = false;
  std::string RemoteSocket;

  static BenchOptions parse(int Argc, char **Argv);

  /// Resolves JsonPath for a given bench name ("auto" -> BENCH_<name>.json;
  /// empty stays empty).
  std::string jsonPathFor(const std::string &BenchName) const;

  /// Turns tracing on when --json/--trace asked for outputs that need it.
  void applyObs() const;
};

/// One timed data point: the average over Reps calls, plus the per-call
/// average of every obs stage recorded while the timed reps ran (empty
/// when tracing is disabled).
struct Measurement {
  double SecondsPerCall = 0;
  int64_t Reps = 0;
  std::map<std::string, obs::StageStat> Stages;
};

/// The single measurement path: one warm-up call (JIT pages, caches),
/// then \p Fn repeatedly until \p MinSeconds elapse (at least once).
/// Stage totals are snapshotted around the timed reps and averaged per
/// call.
Measurement measure(const std::function<void()> &Fn, double MinSeconds);

/// Runs \p Fn repeatedly until \p MinSeconds elapse (at least once) and
/// returns the average seconds per run. Convenience over measure().
double timeIt(const std::function<void()> &Fn, double MinSeconds);

/// GFLOPS for \p Flops work done in \p Seconds.
inline double gflops(double Flops, double Seconds) {
  return Flops / Seconds * 1e-9;
}

/// Aligned-column table with a title, header and float formatting; prints
/// to stdout. Optionally mirrors rows as CSV.
class Table {
public:
  Table(std::string Title, std::vector<std::string> Header, bool Csv);

  void addRow(std::vector<std::string> Cells);
  /// Convenience: first cell is a label, the rest are %.2f numbers.
  void addRow(const std::string &Label, const std::vector<double> &Values);
  void print() const;

private:
  std::string Title;
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
  bool Csv;
};

/// Fills \p N floats with a reproducible pattern in [-1, 1].
void fillRandom(float *Data, size_t N, unsigned Seed);

/// Max |A[i] - B[i]| over N elements.
float maxAbsDiff(const float *A, const float *B, size_t N);

} // namespace benchutil

#endif // BENCHUTIL_BENCH_H
