//===- bench_dispatch.cpp - Engine dispatch overhead ----------------------===//
//
// What the plan-once/execute-many front door costs per call, at each size:
//
//   hot_plan      — Engine::sgemm with the shape already cached: the
//                   steady state. The plan cache, pooled workspaces, and
//                   raw-callback team dispatch exist to make the front door
//                   free once warm, so this is the number to watch.
//   cold_plan     — Engine::sgemm with the plan cache cleared before every
//                   call, so each rep re-plans (blocking clamp, team
//                   factorization, edge resolution). Kernels still come
//                   from the in-process memo, so this isolates planning
//                   cost, not JIT compilation.
//
// Both run the identical fixed BLIS-style 8x12 kernel, so the spread is
// pure planning cost. Rows report seconds per call (better = lower) and
// carry the plan's tile as mr/nr counters.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include <cstring>

using namespace gemm;

namespace {

void addDispatchRow(fig::Context &Ctx, const std::string &Label,
                    const std::string &Series, int64_t S,
                    const benchutil::Measurement &Meas, int64_t Mr,
                    int64_t Nr) {
  benchutil::ReportRow Row;
  Row.Label = Label;
  Row.Series = Series;
  Row.Metric = "seconds";
  Row.Better = "lower";
  Row.Value = Meas.SecondsPerCall;
  Row.SecondsPerCall = Meas.SecondsPerCall;
  Row.Reps = Meas.Reps;
  Row.Threads = resolveGemmThreads(0);
  Row.M = S;
  Row.N = S;
  Row.K = S;
  Row.Stages = Meas.Stages;
  Row.Extra["mr"] = static_cast<double>(Mr);
  Row.Extra["nr"] = static_cast<double>(Nr);
  Ctx.Rep.addRow(std::move(Row));
}

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("dispatch", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::printf("Dispatch overhead: Engine front door with a cached vs a "
              "re-built plan (same fixed 8x12 kernel)\n");

  std::vector<int64_t> Sizes = Opt.Big ? std::vector<int64_t>{256, 512}
                                       : std::vector<int64_t>{64, 256};
  if (Opt.Smoke)
    Sizes = {48};

  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine Hot(Cfg), Cold(Cfg);

  benchutil::Table T("dispatch_us_per_call", {"size", "hot_plan", "cold_plan"},
                     Opt.Csv);
  for (int64_t S : Sizes) {
    std::vector<float> A(S * S), B(S * S), C(S * S);
    benchutil::fillRandom(A.data(), A.size(), 11);
    benchutil::fillRandom(B.data(), B.size(), 22);
    std::string Label = std::to_string(S);

    // Re-planning must not change the answer: bitwise agreement between
    // the cached and the freshly built plan before timing.
    {
      std::vector<float> CHot(S * S, 1.0f), CCold(S * S, 1.0f);
      exo::Error E1 = Hot.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f,
                                CHot.data(), S);
      Cold.clearPlanCache();
      exo::Error E2 = Cold.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f,
                                 CCold.data(), S);
      if (E1 || E2) {
        std::fprintf(stderr, "gemm failed: %s\n",
                     (E1 ? E1 : E2).message().c_str());
        return 1;
      }
      if (std::memcmp(CHot.data(), CCold.data(),
                      CHot.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "WRONG RESULT: cached-plan output differs from a "
                     "re-built plan at %lld\n",
                     static_cast<long long>(S));
        return 1;
      }
    }

    exo::Expected<PlanChoice> Choice =
        Hot.planFor(Trans::None, Trans::None, S, S, S);
    if (!Choice) {
      std::fprintf(stderr, "planFor failed: %s\n",
                   Choice.takeError().message().c_str());
      return 1;
    }

    benchutil::Measurement MHot = benchutil::measure(
        [&] {
          Hot.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, C.data(),
                    S);
        },
        Opt.Seconds);
    benchutil::Measurement MCold = benchutil::measure(
        [&] {
          Cold.clearPlanCache();
          Cold.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, C.data(),
                     S);
        },
        Opt.Seconds);

    T.addRow(Label, {MHot.SecondsPerCall * 1e6, MCold.SecondsPerCall * 1e6});

    addDispatchRow(Ctx, Label, "hot_plan", S, MHot, Choice->MR, Choice->NR);
    addDispatchRow(Ctx, Label, "cold_plan", S, MCold, Choice->MR,
                   Choice->NR);
  }
  T.print();

  EngineStats St = Hot.stats();
  std::printf("hot engine: %llu hits / %llu misses / %llu builds; cold "
              "engine rebuilt %llu plans\n",
              static_cast<unsigned long long>(St.Hits),
              static_cast<unsigned long long>(St.Misses),
              static_cast<unsigned long long>(St.Builds),
              static_cast<unsigned long long>(Cold.stats().Builds));
  return Ctx.finish();
}
