//===- bench_tune.cpp - Tuned-prior vs analytical-model ablation ----------===//
//
// The autotuner's value proposition, measured end to end: each shape is
// tuned into a throwaway prior database (gemm::tuneShape), then served by
// two Engines that differ only in EngineConfig::TunedPriors — the "model"
// arm plans from the analytical model alone, the "tuned" arm consults the
// freshly written database first. The never-lose gate is asserted here as
// well as in the planner: a tuned arm measurably below the model arm
// (beyond a generous noise floor) fails the bench, because the planner's
// margin check should have fallen back to the model plan instead.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "exo/support/Str.h"
#include "gemm/PriorDb.h"
#include "gemm/Tuner.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

using namespace gemm;

namespace {

/// Tuned may trail model by measurement noise on a quiet plan (the planner
/// guarantees plan equality in the worst case, not timer equality).
constexpr double NeverLoseFloor = 0.85;

std::string makeTempDb() {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Templ =
      std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/bench-tune-priors-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  return Dir ? Dir : "";
}

double measureArm(Engine &E, int64_t M, int64_t N, int64_t K,
                  double Seconds, benchutil::Measurement &MOut) {
  std::vector<float> A(M * K), B(K * N), C(M * N, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 11);
  benchutil::fillRandom(B.data(), B.size(), 22);
  // One untimed call plans the shape; the timed reps ride the plan cache.
  E.sgemm(M, N, K, 1.f, A.data(), M, B.data(), K, 0.f, C.data(), M);
  MOut = benchutil::measure(
      [&] {
        E.sgemm(M, N, K, 1.f, A.data(), M, B.data(), K, 0.f, C.data(), M);
      },
      Seconds);
  return benchutil::gflops(2.0 * M * N * K, MOut.SecondsPerCall);
}

struct Shape {
  int64_t M, N, K;
};

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("tune", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::printf("Ablation: tuned priors vs analytical model (Auto series)\n");

  std::string Db = makeTempDb();
  if (Db.empty()) {
    std::fprintf(stderr, "cannot create a temp prior database\n");
    return 1;
  }
  PriorDb::setGlobalRoot(Db);
  Ctx.Rep.setField("prior_db", Db);

  std::vector<Shape> Shapes = Opt.Big
                                  ? std::vector<Shape>{{512, 512, 512},
                                                       {1024, 1024, 1024},
                                                       {3136, 64, 576},
                                                       {196, 512, 1152}}
                                  : std::vector<Shape>{{128, 128, 128},
                                                       {256, 256, 256},
                                                       {392, 64, 576},
                                                       {24, 24, 2048}};
  if (Opt.Smoke)
    Shapes = {{64, 64, 64}};

  TuneOptions TO;
  if (Opt.Smoke) {
    TO.Budget = std::min<int64_t>(TO.Budget, 4);
    TO.Seconds = std::min(TO.Seconds, 0.01);
  }

  benchutil::Table T("tune_gflops", {"shape", "model", "tuned", "source"},
                     Opt.Csv);
  int Rc = 0;
  size_t Stored = 0;
  uint64_t TunedPlans = 0;
  for (const Shape &S : Shapes) {
    std::string Label = std::to_string(S.M) + "x" + std::to_string(S.N) +
                        "x" + std::to_string(S.K);
    exo::Expected<TuneResult> R = tuneShape(S.M, S.N, S.K, TO);
    if (!R) {
      std::fprintf(stderr, "tune %s: %s\n", Label.c_str(),
                   R.message().c_str());
      Rc = 1;
      continue;
    }
    Stored += R->Stored;

    EngineConfig ModelCfg;
    ModelCfg.Series = EngineSeries::Auto;
    ModelCfg.TunedPriors = false;
    Engine ModelE(ModelCfg);
    EngineConfig TunedCfg;
    TunedCfg.Series = EngineSeries::Auto;
    Engine TunedE(TunedCfg);

    benchutil::Measurement MM, MT;
    double GModel = measureArm(ModelE, S.M, S.N, S.K, Opt.Seconds, MM);
    double GTuned = measureArm(TunedE, S.M, S.N, S.K, Opt.Seconds, MT);
    exo::Expected<PlanChoice> TunedPlan =
        TunedE.planFor(Trans::None, Trans::None, S.M, S.N, S.K);
    const char *Source = TunedPlan ? TunedPlan->Source : "?";
    TunedPlans += TunedE.stats().PlansFromTuned;

    fig::addGemmRow(Ctx, Label, "model", S.M, S.N, S.K, MM,
                    2.0 * S.M * S.N * S.K);
    fig::addGemmRow(Ctx, Label, "tuned", S.M, S.N, S.K, MT,
                    2.0 * S.M * S.N * S.K);
    T.addRow({Label, exo::strf("%.2f", GModel), exo::strf("%.2f", GTuned),
              Source});

    if (GTuned < GModel * NeverLoseFloor) {
      std::fprintf(stderr,
                   "NEVER-LOSE VIOLATION %s: tuned %.2f < model %.2f "
                   "GFLOPS (floor %.0f%%)\n",
                   Label.c_str(), GTuned, GModel, NeverLoseFloor * 100);
      Rc = 1;
    }
  }
  T.print();
  std::printf("tuned records stored: %zu/%zu; plans from tuned priors: "
              "%llu\n",
              Stored, Shapes.size(),
              static_cast<unsigned long long>(TunedPlans));
  return Rc ? Rc : Ctx.finish();
}
