//===- FigCommon.h - Shared series setup for the figure benches -----------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four series of the paper's GEMM figures (14-18):
///
///   ALG+NEON — BLIS-like algorithm + hand-vector (intrinsics-style) kernel
///   ALG+BLIS — BLIS-like algorithm + BLIS-style unrolled kernel, no
///              prefetch (the paper notes ALG+ does not use BLIS's
///              in-kernel prefetching)
///   ALG+EXO  — BLIS-like algorithm + generated kernels, shape picked per
///              problem, specialized edge kernels
///   BLIS     — the library emulation: BLIS-style kernel *with* its
///              in-kernel prefetch, monolithic edge handling
///
/// Every bench measures through benchutil::measure() (one warm-up, reps
/// until the time budget, obs stage attribution around the timed reps)
/// and reports through a fig::Context, which owns the shared epilogue:
/// cache-counter dump, BENCH_*.json emission (--json) and chrome-trace
/// export (--trace). See docs/OBSERVABILITY.md.
///
/// With --remote [SOCKET] the four local series collapse into a single
/// "gemmd" series whose calls travel through gemm::Client to a running
/// daemon (docs/GEMMD.md) — the same measurement loop, verification and
/// report plumbing, but the numbers include the IPC round trip.
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_FIGCOMMON_H
#define BENCH_FIGCOMMON_H

#include "benchutil/Bench.h"
#include "benchutil/Report.h"
#include "gemm/Engine.h"
#include "gemm/ExoProvider.h"
#include "gemm/Gemm.h"
#include "gemm/Kernels.h"
#include "gemm/RefGemm.h"
#include "gemm/ThreadPool.h"
#include "ipc/Client.h"

#include <cstdio>
#include <memory>
#include <vector>

namespace fig {

/// --remote state, set once by Context from the parsed options.
inline bool &remoteMode() {
  static bool Remote = false;
  return Remote;
}

/// The one shared session to the daemon in --remote runs (lazy connect on
/// first call; the socket path is fixed before first use by Context).
inline gemm::Client &remoteClient(const std::string &Socket = "") {
  static gemm::Client Client([&] {
    gemm::Client::Options O;
    O.SocketPath = Socket;
    return O;
  }());
  return Client;
}

inline const std::vector<std::string> &seriesNames() {
  static const std::vector<std::string> Local = {"ALG+NEON", "ALG+BLIS",
                                                 "ALG+EXO", "BLIS"};
  static const std::vector<std::string> Remote = {"gemmd"};
  return remoteMode() ? Remote : Local;
}

/// Table header for the per-series columns: a leading label column, one
/// column per *active* series (so --remote's collapse to "gemmd" is
/// reflected), then any trailing columns.
inline std::vector<std::string>
seriesHeader(const char *First,
             std::initializer_list<const char *> Tail = {}) {
  std::vector<std::string> H{First};
  for (const std::string &S : seriesNames())
    H.push_back(S);
  for (const char *T : Tail)
    H.emplace_back(T);
  return H;
}

/// Bench epilogue: dumps the kernel-cache counters accumulated over the
/// run to stderr (so --csv output stays clean). Pre-warming the persistent
/// cache (`ukr_cachectl warm`, see docs/KERNEL_CACHE.md) shows up here as
/// disk-hits with zero compiles. Also reports the macro-kernel team size
/// the run resolved to — the figure benches must say "gemm-threads: 1"
/// for their numbers to be comparable to the paper's single-core
/// methodology (EXO_GEMM_THREADS, when set, applies to every series).
inline void dumpCacheStats() {
  std::fprintf(stderr, "gemm-threads: %lld (plan default; set "
                       "EXO_GEMM_THREADS to override)\n",
               static_cast<long long>(gemm::resolveGemmThreads(0)));
  ukr::printCacheStats(ukr::globalCacheStats(), stderr);
}

/// Owns the CLI options and the JSON reporter of one bench binary, and
/// runs the shared epilogue. Usage:
///
///   fig::Context Ctx("fig14_square", Argc, Argv);
///   ... Ctx.Opt, Ctx.Rep.addRow(...) ...
///   return Ctx.finish();
class Context {
public:
  Context(const char *BenchName, int Argc, char **Argv)
      : Opt(benchutil::BenchOptions::parse(Argc, Argv)), Rep(BenchName),
        BenchName(BenchName) {
    Opt.applyObs();
    remoteMode() = Opt.Remote;
    if (Opt.Remote)
      remoteClient(Opt.RemoteSocket); // fix the socket before first use
    Rep.setOption("seconds", Opt.Seconds);
    Rep.setOption("big", Opt.Big);
    Rep.setOption("smoke", Opt.Smoke);
    Rep.setOption("remote", Opt.Remote);
    Rep.setField("gemm_threads", gemm::resolveGemmThreads(0));
  }

  /// Dumps cache stats and writes the JSON report / chrome trace when
  /// requested. Returns the process exit code.
  int finish() {
    dumpCacheStats();
    int Rc = 0;
    if (std::string Path = Opt.jsonPathFor(BenchName); !Path.empty()) {
      if (exo::Error E = Rep.write(Path)) {
        std::fprintf(stderr, "bench-json: %s\n", E.message().c_str());
        Rc = 1;
      } else {
        std::printf("bench-json: wrote %s (%zu rows)\n", Path.c_str(),
                    Rep.rowCount());
      }
    }
    if (!Opt.TracePath.empty()) {
      if (exo::Error E = obs::writeChromeTrace(Opt.TracePath)) {
        std::fprintf(stderr, "bench-trace: %s\n", E.message().c_str());
        Rc = 1;
      } else {
        std::printf("bench-trace: wrote %s\n", Opt.TracePath.c_str());
      }
    }
    return Rc;
  }

  benchutil::BenchOptions Opt;
  benchutil::Reporter Rep;

private:
  std::string BenchName;
};

/// `--smoke` shape selection: keeps only the last \p Keep entries (the
/// dnn layer tables get smaller toward the end; size sweeps stay cheap
/// with any slice since the budget is also clamped).
template <typename T>
std::vector<T> smokeSlice(std::vector<T> V, bool Smoke, size_t Keep = 2) {
  if (Smoke && V.size() > Keep)
    V.erase(V.begin(), V.end() - static_cast<long>(Keep));
  return V;
}

/// One series' result for one GEMM problem.
struct SeriesPoint {
  std::string Series;
  double Gflops = 0; ///< 0 when the series failed validation
  benchutil::Measurement M;
};

/// The Engine behind one figure series, shared across every problem of a
/// bench run so repeated shapes hit the plan cache the way serving traffic
/// would. All four series use 256-bit kernels: the baselines are AVX2 by
/// construction, and ALG+EXO is held to the same vector width for a fair
/// like-for-like (in the paper every series is 128-bit Neon). The wider
/// AVX-512 kernels appear in bench_ablate_isa instead.
inline gemm::Engine &seriesEngine(size_t PI) {
  using gemm::EngineSeries;
  auto Mk = [](EngineSeries S) {
    gemm::EngineConfig Cfg;
    Cfg.Series = S;
    if (S == EngineSeries::Exo)
      Cfg.Isa = &exo::avx2Isa();
    return Cfg;
  };
  static gemm::Engine Engines[4] = {
      gemm::Engine(Mk(EngineSeries::HandVector)),
      gemm::Engine(Mk(EngineSeries::Blis)),
      gemm::Engine(Mk(EngineSeries::Exo)),
      gemm::Engine(Mk(EngineSeries::BlisPrefetch))};
  return Engines[PI];
}

/// Measures one GEMM problem across the four series (ordering of
/// seriesNames()), validating each result against the reference on first
/// use of a shape. Each series runs through its Engine front door: the
/// verification call plans (and caches) the shape, so the timed reps
/// exercise the hot plan-cache path.
inline std::vector<SeriesPoint> gemmSeriesRun(int64_t M, int64_t N,
                                              int64_t K,
                                              double MinSeconds) {
  using namespace gemm;
  std::vector<float> A(M * K), B(K * N), C(M * N);
  benchutil::fillRandom(A.data(), A.size(), 11);
  benchutil::fillRandom(B.data(), B.size(), 22);

  std::vector<SeriesPoint> Out;
  double Flops = 2.0 * M * N * K;

  if (remoteMode()) {
    // One series, same protocol: verify against the reference once, then
    // time the remote round trip on the daemon's warm plan cache.
    Client &Cl = remoteClient();
    SeriesPoint Pt;
    Pt.Series = seriesNames()[0];
    std::vector<float> CRef(M * N, 1.0f), CChk(M * N, 1.0f);
    refSgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, CRef.data(), M);
    exo::Error Err = Cl.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f,
                              CChk.data(), M);
    if (Err) {
      std::fprintf(stderr, "series %s failed: %s\n", Pt.Series.c_str(),
                   Err.message().c_str());
      Out.push_back(Pt);
      return Out;
    }
    float Diff = benchutil::maxAbsDiff(CRef.data(), CChk.data(), CRef.size());
    if (Diff > 1e-3f * static_cast<float>(K)) {
      std::fprintf(stderr, "series %s WRONG RESULT (maxdiff %g)\n",
                   Pt.Series.c_str(), Diff);
      Out.push_back(Pt);
      return Out;
    }
    Pt.M = benchutil::measure(
        [&] {
          Cl.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, C.data(),
                   M);
        },
        MinSeconds);
    Pt.Gflops = benchutil::gflops(Flops, Pt.M.SecondsPerCall);
    Out.push_back(std::move(Pt));
    return Out;
  }

  for (size_t PI = 0; PI != seriesNames().size(); ++PI) {
    Engine &E = seriesEngine(PI);
    SeriesPoint Pt;
    Pt.Series = seriesNames()[PI];
    // One verified call before timing.
    std::vector<float> CRef(M * N, 1.0f), CChk(M * N, 1.0f);
    refSgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, CRef.data(), M);
    exo::Error Err = E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f,
                             CChk.data(), M);
    if (Err) {
      std::fprintf(stderr, "series %s failed: %s\n", Pt.Series.c_str(),
                   Err.message().c_str());
      Out.push_back(Pt);
      continue;
    }
    float Diff = benchutil::maxAbsDiff(CRef.data(), CChk.data(), CRef.size());
    if (Diff > 1e-3f * static_cast<float>(K)) {
      std::fprintf(stderr, "series %s WRONG RESULT (maxdiff %g)\n",
                   Pt.Series.c_str(), Diff);
      Out.push_back(Pt);
      continue;
    }
    Pt.M = benchutil::measure(
        [&] {
          E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, C.data(),
                  M);
        },
        MinSeconds);
    Pt.Gflops = benchutil::gflops(Flops, Pt.M.SecondsPerCall);
    Out.push_back(std::move(Pt));
  }
  return Out;
}

/// GFLOPS per series — thin view over gemmSeriesRun for callers that only
/// table the numbers.
inline std::vector<double> gemmSeriesGflops(int64_t M, int64_t N, int64_t K,
                                            double MinSeconds) {
  std::vector<double> Out;
  for (const SeriesPoint &Pt : gemmSeriesRun(M, N, K, MinSeconds))
    Out.push_back(Pt.Gflops);
  return Out;
}

/// Appends one GFLOPS row for a single measured kernel/GEMM call and
/// returns the GFLOPS value (for tabling). \p Flops is per call.
inline double addGemmRow(Context &Ctx, const std::string &Label,
                         const std::string &Series, int64_t M, int64_t N,
                         int64_t K, const benchutil::Measurement &Meas,
                         double Flops) {
  benchutil::ReportRow Row;
  Row.Label = Label;
  Row.Series = Series;
  Row.Value = benchutil::gflops(Flops, Meas.SecondsPerCall);
  Row.SecondsPerCall = Meas.SecondsPerCall;
  Row.Reps = Meas.Reps;
  Row.Threads = gemm::resolveGemmThreads(0);
  Row.M = M;
  Row.N = N;
  Row.K = K;
  Row.Stages = Meas.Stages;
  double Out = Row.Value;
  Ctx.Rep.addRow(std::move(Row));
  return Out;
}

/// Appends one report row per series to \p Ctx for a GEMM problem point.
/// \p Metric is "gflops" (better=higher) or "seconds" (better=lower);
/// the other quantity still rides along in the row.
inline void addSeriesRows(Context &Ctx, const std::string &Label, int64_t M,
                          int64_t N, int64_t K,
                          const std::vector<SeriesPoint> &Points,
                          const std::string &Metric = "gflops") {
  for (const SeriesPoint &Pt : Points) {
    benchutil::ReportRow Row;
    Row.Label = Label;
    Row.Series = Pt.Series;
    Row.Metric = Metric;
    Row.Better = Metric == "seconds" ? "lower" : "higher";
    Row.Value = Metric == "seconds" ? Pt.M.SecondsPerCall : Pt.Gflops;
    Row.SecondsPerCall = Pt.M.SecondsPerCall;
    Row.Reps = Pt.M.Reps;
    Row.Threads = gemm::resolveGemmThreads(0);
    Row.M = M;
    Row.N = N;
    Row.K = K;
    Row.Stages = Pt.M.Stages;
    Ctx.Rep.addRow(std::move(Row));
  }
}

/// One inference pass's aggregated GEMM time per series (Figs. 16 and 18):
/// the sum of each layer's SecondsPerCall times its multiplicity in the
/// pass, over the per-layer points the Fig. 15/17 sweep already measured.
struct PassTime {
  std::vector<double> Seconds = std::vector<double>(seriesNames().size());
  double Flops = 0;

  void add(const std::vector<SeriesPoint> &Points, double LayerFlops,
           int Count) {
    for (size_t I = 0; I != Points.size(); ++I)
      Seconds[I] += Points[I].M.SecondsPerCall * Count;
    Flops += LayerFlops * Count;
  }

  /// Prints the pass-time table and adds one "seconds" row per series
  /// under \p Label.
  void report(Context &Ctx, const char *TableName, const char *Label) const {
    benchutil::Table T(TableName, {"series", "time_ms", "aggregate_gflops"},
                       Ctx.Opt.Csv);
    for (size_t I = 0; I != Seconds.size(); ++I) {
      T.addRow(seriesNames()[I],
               {Seconds[I] * 1e3, benchutil::gflops(Flops, Seconds[I])});
      benchutil::ReportRow Row;
      Row.Label = Label;
      Row.Series = seriesNames()[I];
      Row.Metric = "seconds";
      Row.Better = "lower";
      Row.Value = Seconds[I];
      Row.SecondsPerCall = Seconds[I];
      Row.Threads = gemm::resolveGemmThreads(0);
      Ctx.Rep.addRow(std::move(Row));
    }
    T.print();
  }
};

} // namespace fig

#endif // BENCH_FIGCOMMON_H
