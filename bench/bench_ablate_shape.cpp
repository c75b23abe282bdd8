//===- bench_ablate_shape.cpp - Micro-kernel shape sweep ------------------===//
//
// Why 8x12-class shapes win: solo-mode GFLOPS across the (MR, NR) plane at
// fixed kc. Tall-skinny and short-wide tiles lose arithmetic intensity;
// oversized tiles spill registers.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "ukr/KernelService.h"

#include <cstdio>
#include <vector>

using namespace exo;

int main(int Argc, char **Argv) {
  fig::Context Ctx("ablate_shape", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  const int64_t Kc = Opt.Smoke ? 64 : 512;
  std::printf("Ablation: micro-kernel shape sweep (solo mode, kc=%lld, "
              "auto ISA per MR)\n",
              static_cast<long long>(Kc));

  std::vector<int64_t> Mrs = {4, 8, 16, 24, 32};
  std::vector<int64_t> Nrs = {1, 2, 4, 6, 8, 12, 16};
  if (Opt.Smoke) {
    Mrs = {8};
    Nrs = {4, 12};
  }

  std::vector<std::string> Header{"mr\\nr"};
  for (int64_t Nr : Nrs)
    Header.push_back(std::to_string(Nr));
  benchutil::Table T("ablate_shape_gflops", Header, Opt.Csv);

  for (int64_t Mr : Mrs) {
    std::vector<double> Row;
    for (int64_t Nr : Nrs) {
      // The shared ISA-per-shape rule (same one the planner, provider, and
      // warm-up use), so this sweep times the kernels a plan would pick.
      ukr::UkrConfig Cfg = ukr::shapeConfig(Mr, Nr);
      auto K = ukr::KernelService::global().get(Cfg);
      if (!K || !(*K)->Fn) {
        Row.push_back(0);
        continue;
      }
      std::vector<float> Ac(Kc * Mr), Bc(Kc * Nr), C(Nr * Mr, 0.f);
      benchutil::fillRandom(Ac.data(), Ac.size(), 1);
      benchutil::fillRandom(Bc.data(), Bc.size(), 2);
      ukr::MicroKernelF32 Fn = (*K)->Fn;
      benchutil::Measurement M = benchutil::measure(
          [&] { Fn(Kc, Mr, Ac.data(), Bc.data(), C.data()); }, Opt.Seconds);
      Row.push_back(fig::addGemmRow(
          Ctx, std::to_string(Mr) + "x" + std::to_string(Nr), "solo", Mr, Nr,
          Kc, M, 2.0 * Mr * Nr * Kc));
    }
    T.addRow(std::to_string(Mr), Row);
  }
  T.print();
  return Ctx.finish();
}
