//===- bench_batched.cpp - Batched GEMM vs N sequential sgemm calls -------===//
//
// Not a paper figure: measures the batched front door added on top of the
// paper's kernels. A batch of small same-shape GEMMs is run three ways —
// N sequential Engine::sgemm calls, one Engine::sgemmBatched call, and one
// Engine::sgemmStridedBatched call over contiguous storage — and the whole
// ResNet50/VGG16 layer tables (multiplicity expanded) are run sequentially
// vs as one batch. The batched rows report their speedup over the
// sequential row so the cross-item scheduling win is visible directly.
//
// Every batched result is memcmp'd against the sequential result before
// timing: the batched paths promise bitwise-identical output, and this
// bench refuses to time a configuration that broke that promise.
//
//   bench_batched [--items N] [--size S] [--threads T]
//                 [--seconds T] [--csv] [--json [PATH]] [--trace PATH]
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "dnn/Models.h"
#include "exo/support/Str.h"

#include <cstring>

using namespace gemm;

namespace {

/// Adds one row; batched-series rows carry speedup over \p BaseGflops.
double addRow(fig::Context &Ctx, const std::string &Label,
              const std::string &Series, int64_t Threads, double Flops,
              const benchutil::Measurement &Meas, double BaseGflops) {
  double G = benchutil::gflops(Flops, Meas.SecondsPerCall);
  benchutil::ReportRow Row;
  Row.Label = Label;
  Row.Series = Series;
  Row.Value = G;
  Row.SecondsPerCall = Meas.SecondsPerCall;
  Row.Reps = Meas.Reps;
  Row.Threads = Threads;
  Row.Stages = Meas.Stages;
  if (BaseGflops > 0)
    Row.Extra["speedup"] = G / BaseGflops;
  Ctx.Rep.addRow(std::move(Row));
  return G;
}

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("batched", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  int64_t Items = 64, Size = 64, Threads = 4;
  if (Opt.Smoke) {
    Items = 8;
    Size = 48;
  }
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--items") && I + 1 < Argc)
      Items = std::atoll(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--size") && I + 1 < Argc)
      Size = std::atoll(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc)
      Threads = std::atoll(Argv[++I]);
  }
  if (Items < 1 || Size < 1 || Threads < 1) {
    std::fprintf(stderr, "bad --items/--size/--threads\n");
    return 1;
  }

  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Exo;
  Cfg.Isa = &exo::avx2Isa();
  Cfg.Threads = Threads;
  Engine Eng(Cfg);

  std::printf("Batched GEMM: %lld items of %lld^3 at %lld thread(s); "
              "batched rows report speedup over the sequential row\n",
              static_cast<long long>(Items), static_cast<long long>(Size),
              static_cast<long long>(Threads));

  // The uniform small batch, stored contiguously so the identical buffers
  // serve the item-list and the strided entry points.
  const int64_t S = Size, Per = S * S;
  std::vector<float> A(Items * Per), B(Items * Per), C(Items * Per);
  benchutil::fillRandom(A.data(), A.size(), 11);
  benchutil::fillRandom(B.data(), B.size(), 22);
  std::vector<GemmBatchItem> Batch(Items);
  for (int64_t I = 0; I != Items; ++I) {
    GemmBatchItem &It = Batch[I];
    It.M = It.N = It.K = S;
    It.A = A.data() + I * Per;
    It.Lda = S;
    It.B = B.data() + I * Per;
    It.Ldb = S;
    It.C = C.data() + I * Per;
    It.Ldc = S;
  }
  auto RunSeq = [&] {
    for (const GemmBatchItem &It : Batch)
      Eng.sgemm(It.M, It.N, It.K, It.Alpha, It.A, It.Lda, It.B, It.Ldb,
                It.Beta, It.C, It.Ldc);
  };
  auto RunBatched = [&] { Eng.sgemmBatched(Batch.data(), Items); };
  auto RunStrided = [&] {
    Eng.sgemmStridedBatched(Trans::None, Trans::None, S, S, S, 1.0f,
                            A.data(), S, Per, B.data(), S, Per, 0.0f,
                            C.data(), S, Per, Items);
  };

  // Bitwise gate: both batched entry points must reproduce the sequential
  // bits exactly (the differential test suite holds this per-shape; the
  // bench re-checks the exact configuration it is about to time).
  {
    RunSeq();
    std::vector<float> CSeq = C;
    std::memset(C.data(), 0, C.size() * sizeof(float));
    if (exo::Error E = Eng.sgemmBatched(Batch.data(), Items)) {
      std::fprintf(stderr, "sgemmBatched failed: %s\n", E.message().c_str());
      return 1;
    }
    if (std::memcmp(C.data(), CSeq.data(), C.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "WRONG RESULT: batched differs from sequential\n");
      return 1;
    }
    std::memset(C.data(), 0, C.size() * sizeof(float));
    RunStrided();
    if (std::memcmp(C.data(), CSeq.data(), C.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "WRONG RESULT: strided differs from sequential\n");
      return 1;
    }
  }

  benchutil::Table T("batched", {"workload", "seq", "batched", "strided",
                                 "speedup"},
                     Opt.Csv);
  const double Flops = 2.0 * S * S * S * static_cast<double>(Items);
  benchutil::Measurement MSeq = benchutil::measure(RunSeq, Opt.Seconds);
  double GSeq = addRow(Ctx, "uniform", "sequential", Threads, Flops, MSeq, 0);
  benchutil::Measurement MBat = benchutil::measure(RunBatched, Opt.Seconds);
  double GBat =
      addRow(Ctx, "uniform", "batched", Threads, Flops, MBat, GSeq);
  benchutil::Measurement MStr = benchutil::measure(RunStrided, Opt.Seconds);
  double GStr =
      addRow(Ctx, "uniform", "strided", Threads, Flops, MStr, GSeq);
  T.addRow(exo::strf("%lldx%lld^3", static_cast<long long>(Items),
                     static_cast<long long>(S)),
           {GSeq, GBat, GStr, GBat / GSeq});

  // Whole-model batches: every layer instance of the table as one call.
  struct ModelRun {
    const char *Name;
    const std::vector<dnn::LayerGemm> &Layers;
  };
  const ModelRun Models[] = {{"resnet50", dnn::resnet50Layers()},
                             {"vgg16", dnn::vgg16Layers()}};
  for (const ModelRun &MR : Models) {
    std::vector<dnn::LayerGemm> Layers =
        fig::smokeSlice(MR.Layers, Opt.Smoke, 3);
    dnn::ModelBatch MB = dnn::buildModelBatch(Layers, 7);
    if (exo::Error E = dnn::runModelSequential(Eng, MB)) {
      std::fprintf(stderr, "%s sequential failed: %s\n", MR.Name,
                   E.message().c_str());
      return 1;
    }
    benchutil::Measurement MS = benchutil::measure(
        [&] { dnn::runModelSequential(Eng, MB); }, Opt.Seconds);
    double GS =
        addRow(Ctx, MR.Name, "sequential", Threads, MB.Flops, MS, 0);
    benchutil::Measurement MBt = benchutil::measure(
        [&] { dnn::runModelBatch(Eng, MB); }, Opt.Seconds);
    double GB = addRow(Ctx, MR.Name, "batched", Threads, MB.Flops, MBt, GS);
    T.addRow(exo::strf("%s (%zu gemms)", MR.Name, MB.Items.size()),
             {GS, GB, 0.0, GB / GS});
  }
  T.print();

  EngineStats ES = Eng.stats();
  std::fprintf(stderr,
               "batched: items=%llu groups=%llu cross-item=%llu "
               "b-shared=%llu\n",
               static_cast<unsigned long long>(ES.BatchedItems),
               static_cast<unsigned long long>(ES.BatchedGroups),
               static_cast<unsigned long long>(ES.BatchedCrossItem),
               static_cast<unsigned long long>(ES.BatchedBShared));
  return Ctx.finish();
}
