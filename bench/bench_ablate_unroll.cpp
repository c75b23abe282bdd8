//===- bench_ablate_unroll.cpp - Unrolling ablation (§III step f) ---------===//
//
// Does the schedule's explicit load unrolling matter, and does fully
// unrolling the compute loops help further? Solo-mode 8x12 kernels, three
// variants per ISA.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "ukr/KernelService.h"

#include <cstdio>
#include <vector>

using namespace exo;

namespace {

benchutil::Measurement soloMeasure(ukr::MicroKernelF32 Fn, int64_t Mr,
                                   int64_t Nr, int64_t Kc, double Seconds) {
  std::vector<float> Ac(Kc * Mr), Bc(Kc * Nr), C(Nr * Mr, 0.f);
  benchutil::fillRandom(Ac.data(), Ac.size(), 1);
  benchutil::fillRandom(Bc.data(), Bc.size(), 2);
  return benchutil::measure(
      [&] { Fn(Kc, Mr, Ac.data(), Bc.data(), C.data()); }, Seconds);
}

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("ablate_unroll", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  const int64_t Kc = Opt.Smoke ? 64 : 512;
  std::printf("Ablation: loop unrolling in the generated 8x12 kernel "
              "(solo mode, kc=%lld)\n",
              static_cast<long long>(Kc));

  benchutil::Table T("ablate_unroll_gflops",
                     {"isa", "rolled_loads", "unrolled_loads(paper)",
                      "fully_unrolled"},
                     Opt.Csv);
  const char *VariantNames[] = {"rolled_loads", "unrolled_loads",
                                "fully_unrolled"};

  for (const IsaLib *Isa : {&portableIsa(), &avx2Isa(), &avx512Isa()}) {
    if (!Isa->hostExecutable())
      continue;
    int64_t Mr = Isa->lanes(ScalarKind::F32) == 16 ? 16 : 8;
    std::vector<double> Row;
    for (int Variant = 0; Variant != 3; ++Variant) {
      ukr::UkrConfig Cfg;
      Cfg.MR = Mr;
      Cfg.NR = 12;
      Cfg.Isa = Isa;
      Cfg.UnrollLoads = Variant >= 1;
      Cfg.UnrollCompute = Variant == 2;
      auto K = ukr::KernelService::global().get(Cfg);
      if (!K || !(*K)->Fn) {
        Row.push_back(0);
        continue;
      }
      benchutil::Measurement M =
          soloMeasure((*K)->Fn, Mr, 12, Kc, Opt.Seconds);
      Row.push_back(fig::addGemmRow(Ctx, Isa->name(),
                                    VariantNames[Variant], Mr, 12, Kc, M,
                                    2.0 * Mr * 12 * Kc));
    }
    T.addRow(Isa->name(), Row);
  }
  T.print();
  return Ctx.finish();
}
