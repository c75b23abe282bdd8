//===- ExoProvider.cpp ----------------------------------------------------===//

#include "gemm/ExoProvider.h"

#include "gemm/Planner.h"

#include <cstdio>

using namespace gemm;

ExoProvider::ExoProvider(int64_t MR, int64_t NR, const exo::IsaLib *Isa,
                         bool UnrollCompute)
    : MR(MR), NR(NR), Isa(Isa ? Isa : ukr::bestIsaForMr(MR)),
      UnrollCompute(UnrollCompute) {}

std::optional<MicroKernel> ExoProvider::shape(int64_t Mr, int64_t Nr) {
  // Full tiles use the configured library; edges re-pick per shape via the
  // shared selection rule (shapeConfig) so provider, planner, and fuzzer
  // agree.
  ukr::UkrConfig Cfg =
      ukr::shapeConfig(Mr, Nr, Mr == MR ? Isa : nullptr, UnrollCompute);

  auto K = ukr::KernelService::global().get(Cfg);
  if (!K) {
    std::fprintf(stderr, "exo provider: %s\n", K.message().c_str());
    return std::nullopt;
  }
  if (!(*K)->Fn)
    return std::nullopt;
  return MicroKernel{Mr, Nr, (*K)->Fn, "exo generated"};
}

MicroKernel ExoProvider::main() {
  auto K = shape(MR, NR);
  if (!K)
    return MicroKernel{MR, NR, nullptr, "exo (unavailable)"};
  return *K;
}

std::optional<MicroKernel> ExoProvider::edge(int64_t MrEff, int64_t NrEff) {
  if (!SpecializeEdges)
    return std::nullopt;
  return shape(MrEff, NrEff);
}

std::pair<int64_t, int64_t>
ExoProvider::pickShape(int64_t M, int64_t N, const exo::IsaLib *ForceIsa) {
  // The heuristic lives with the Engine planner now (Planner.h) so the
  // plan cache, this provider, and the fuzzer share one selection rule;
  // K == 0 keeps the historical area-only scoring of this entry point.
  return pickTileForProblem(M, N, /*K=*/0, ForceIsa);
}
