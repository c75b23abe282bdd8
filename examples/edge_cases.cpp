//===- edge_cases.cpp - The §III-B edge-case kernel family ----------------===//
//
// Shows how the generator treats edge cases: "all we need to do is change
// the values for MR and NR". Builds the micro-kernel family the paper uses
// for ResNet50 and reports, per shape, the chosen instruction library,
// schedule style, generated-code size, and solo-mode throughput.
//
//===----------------------------------------------------------------------===//

#include "benchutil/Bench.h"
#include "exo/support/Str.h"
#include "ukr/KernelService.h"

#include <cstdio>
#include <vector>

using namespace exo;

int main() {
  const std::vector<std::pair<int64_t, int64_t>> Family = {
      {8, 12}, {8, 4}, {4, 4}, {4, 8}, {4, 12}, {1, 8}, {1, 12}};
  std::printf("The paper's ResNet50 micro-kernel family (§IV-C), "
              "regenerated:\n\n");
  std::printf("%-10s %-10s %-8s %-26s %s\n", "shape", "isa", "style",
              "kernel", "solo GFLOPS (kc=512)");

  for (auto [MR, NR] : Family) {
    ukr::UkrConfig Cfg;
    Cfg.MR = MR;
    Cfg.NR = NR;
    Cfg.Isa = ukr::bestIsaForMr(MR);
    if (!Cfg.Isa)
      Cfg.Style = ukr::FmaStyle::Scalar;
    auto K = ukr::KernelService::global().get(Cfg);
    if (!K) {
      std::fprintf(stderr, "%lldx%lld: %s\n", static_cast<long long>(MR),
                   static_cast<long long>(NR), K.message().c_str());
      return 1;
    }
    double Gf = 0;
    if ((*K)->Fn) {
      const int64_t Kc = 512;
      std::vector<float> Ac(Kc * MR), Bc(Kc * NR), C(NR * MR, 0.f);
      benchutil::fillRandom(Ac.data(), Ac.size(), 1);
      benchutil::fillRandom(Bc.data(), Bc.size(), 2);
      ukr::MicroKernelF32 Fn = (*K)->Fn;
      double Secs = benchutil::timeIt(
          [&] { Fn(Kc, MR, Ac.data(), Bc.data(), C.data()); }, 0.1);
      Gf = benchutil::gflops(2.0 * MR * NR * Kc, Secs);
    }
    std::printf("%-10s %-10s %-8s %-26s %.2f\n",
                strf("%lldx%lld", static_cast<long long>(MR),
                     static_cast<long long>(NR))
                    .c_str(),
                (*K)->Style == ukr::FmaStyle::Scalar
                    ? "-"
                    : (*K)->Cfg.Isa->name().c_str(),
                ukr::fmaStyleName((*K)->Style),
                (*K)->Cfg.kernelName().c_str(), Gf);
  }

  std::printf("\nGenerated C for the 4x4 edge kernel:\n\n");
  ukr::UkrConfig Cfg;
  Cfg.MR = 4;
  Cfg.NR = 4;
  Cfg.Isa = ukr::bestIsaForMr(4);
  auto K = ukr::KernelService::global().get(Cfg);
  if (K)
    std::printf("%s\n", (*K)->CSource.c_str());
  return 0;
}
