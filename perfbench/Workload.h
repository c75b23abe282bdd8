//===- Workload.h - Set-up, probes and reporting shared by workloads ------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Common.h"
#include "Host.h"
#include "Trace.h"

#include "gemm/Engine.h"
#include "ukr/KernelService.h"

#include <memory>
#include <vector>

namespace pb {

struct Shape {
  int64_t M = 0, N = 0, K = 0;
};

/// Op latencies of a timed region, split by whether tracing was on.
struct OpLog {
  std::vector<double> Untraced, Traced; ///< seconds per op
  double Wall = 0;                      ///< region wall time
};

/// Measures set-up: construction plus Engine::warm of every shape and
/// dtype, with the JIT cache counters it moved. Reports setup_s and the
/// ukr.* set-up metrics on finish().
class SetupTimer {
public:
  SetupTimer();
  /// Warms every shape x dtype on \p Eng, accumulating warm time.
  bool warm(gemm::Engine &Eng, const std::vector<Shape> &Shapes,
            const std::vector<gemm::DType> &Types);
  void finish(Result &R);

private:
  Clock::time_point T0;
  ukr::CacheStats S0;
  double WarmS = 0;
};

/// Default-configured Engine construction plus warm-up, timed.
bool timedSetup(Result &R, const std::vector<Shape> &Shapes,
                const std::vector<gemm::DType> &Types,
                std::unique_ptr<gemm::Engine> &Eng);

/// Records each shape's planned tile and plan source in the report.
void notePlans(gemm::Engine &Eng, const std::vector<Shape> &Shapes,
               Result &R);

/// The ceilings and the drift probe around a timed region: the solo loop
/// of the main kernel planned for \p Dominant at start and finish, and
/// (traced runs) memcpy bandwidth.
class Probes {
public:
  bool start(gemm::Engine &Eng, Shape Dominant, bool Traced, Result &R);
  void finish(Result &R);
  double soloGflops() const { return Solo.gflops(StartS); }
  double copyGbps() const { return CopyGbps; }

private:
  SoloProbe Solo;
  bool Traced = false;
  double StartS = 0, CopyGbps = 0;
};

/// op_ms (median), op_ms_p10 and op_ms_tail (quantile \p TailQ) of the
/// untraced ops, and ops_per_s of all ops.
void reportOps(const OpLog &Log, Result &R, const char *OpName, double TailQ);

/// Per-op Engine-call time, work rate and executor stage self times. With
/// \p Scoped the library spans are taken under the benchmark span
/// \p CallSpan (one dtype's calls); otherwise \p CallSpan is a library span
/// and stages are taken whole. \p Suffix ("", ".f16", ...) names the dtype.
void reportGemmStages(const trace::Summary &Sum, const char *CallSpan,
                      bool Scoped, const std::string &Suffix,
                      double FlopsPerOp, double PackBytesPerOp, double Ops,
                      const Probes &P, Result &R);

/// Plan-cache exactness over the timed region.
void reportPlanStats(const gemm::EngineStats &S0, const gemm::EngineStats &S1,
                     Result &R);

/// trace_overhead_frac, unattributed root share and plan-lookup time.
void reportTraceCommon(const OpLog &Log, const trace::Summary &Sum,
                       Result &R);

/// Writes the span file of a traced run into the output directory.
void writeSpanFile(const Options &O, const trace::Summary &Sum);

} // namespace pb

#endif // PERFBENCH_WORKLOAD_H
