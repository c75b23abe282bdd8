//===- Planner.cpp --------------------------------------------------------===//

#include "gemm/Planner.h"

#include "exo/support/Env.h"
#include "gemm/CacheModel.h"
#include "gemm/PriorDb.h"

#include <algorithm>
#include <cstdlib>
#include <set>

using namespace gemm;

const char *gemm::planSourceName(PlanSource S) {
  switch (S) {
  case PlanSource::Model:
    return "model";
  case PlanSource::Tuned:
    return "tuned";
  case PlanSource::Forced:
    return "forced";
  case PlanSource::Fixed:
    return "fixed";
  case PlanSource::Fallback:
    return "fallback";
  }
  return "model";
}

namespace {

/// Candidate full-tile shapes (host-vectorizable MR values). Shared with
/// standardShapeFamily's AllCandidates expansion and the tuner's search
/// space.
const std::pair<int64_t, int64_t> TileCandidates[] = {
    {8, 12}, {8, 8},  {8, 6},  {8, 4}, {16, 12}, {16, 8},
    {16, 6}, {16, 4}, {4, 12}, {4, 8}, {4, 4},   {24, 4},
};

} // namespace

bool gemm::tileAdmissible(int64_t Mr, int64_t Nr,
                          const exo::IsaLib *ForceIsa) {
  if (Mr <= 0 || Nr <= 0)
    return false;
  const exo::IsaLib *Isa = ForceIsa ? ForceIsa : ukr::bestIsaForMr(Mr);
  if (!Isa || Mr % Isa->lanes(exo::ScalarKind::F32) != 0)
    return false;
  // Register-pressure sanity: C tile + one A register + one broadcast
  // must fit 16 vector registers at the chosen width.
  int64_t Vecs = Mr / Isa->lanes(exo::ScalarKind::F32);
  return Nr * Vecs + Vecs + 1 <= 16;
}

std::vector<std::pair<int64_t, int64_t>>
gemm::plannerTileCandidates(const exo::IsaLib *ForceIsa) {
  std::vector<std::pair<int64_t, int64_t>> Out;
  for (auto [Mr, Nr] : TileCandidates)
    if (tileAdmissible(Mr, Nr, ForceIsa))
      Out.push_back({Mr, Nr});
  return Out;
}

std::pair<int64_t, int64_t>
gemm::pickTileForProblem(int64_t M, int64_t N, int64_t K,
                         const exo::IsaLib *ForceIsa) {
  // Estimated flops-per-load of an a x b tile update: 2ab FMAs per (a + b)
  // elements streamed from the packed panels.
  auto Eff = [](int64_t A, int64_t B) {
    if (A <= 0 || B <= 0)
      return 0.0;
    return 2.0 * static_cast<double>(A) * static_cast<double>(B) /
           static_cast<double>(A + B);
  };

  std::pair<int64_t, int64_t> Best = {8, 12};
  double BestScore = -1;
  for (auto [Mr, Nr] : TileCandidates) {
    if (!tileAdmissible(Mr, Nr, ForceIsa))
      continue;

    int64_t MEdge = M % Mr, NEdge = N % Nr;
    double FullM = static_cast<double>(M - MEdge) / M;
    double FullN = static_cast<double>(N - NEdge) / N;
    double EdgeM = static_cast<double>(MEdge) / M;
    double EdgeN = static_cast<double>(NEdge) / N;
    // Edge regions pay dispatch/packing overhead beyond their lower
    // flops-per-load, so they are further discounted; exact divisors win
    // near-ties.
    const double EdgeDiscount = 0.6;
    double Score = Eff(Mr, Nr) * FullM * FullN +
                   EdgeDiscount * (Eff(MEdge, Nr) * EdgeM * FullN +
                                   Eff(Mr, NEdge) * FullM * EdgeN +
                                   Eff(MEdge, NEdge) * EdgeM * EdgeN);
    if (K > 0) {
      // Depth-pass penalty from the cache model: every extra kc pass over
      // the packed panels re-streams A and C through L2, so a tile whose
      // analytical kc covers k in fewer passes wins near-ties.
      BlockSizes Bl =
          analyticalBlockSizes(CacheConfig::host(), Mr, Nr, sizeof(float));
      int64_t Kc = std::max<int64_t>(1, Bl.KC);
      double Passes = static_cast<double>((K + Kc - 1) / Kc);
      Score /= 1.0 + 0.02 * (Passes - 1.0);
    }
    if (Score > BestScore) {
      BestScore = Score;
      Best = {Mr, Nr};
    }
  }
  return Best;
}

PlanChoice gemm::choosePlan(int64_t M, int64_t N, int64_t K,
                            const exo::IsaLib *ForceIsa, PlanOutcome *Outcome,
                            DType Ty, PriorDb *Db) {
  // I8I32 never runs selection: the scalar dot has no vector width for the
  // screen or the model to reason about, and the tuned stage never
  // measures integer kernels (see Planner.h).
  if (Ty == DType::I8I32)
    return PlanChoice::make(I8TileMR, I8TileNR, PlanSource::Model);

  // Stage 1: the autotuner's persistent prior database (dtype-keyed: an
  // f16 winner never plans a bf16 shape or vice versa).
  if (Db && Db->enabled()) {
    if (std::optional<PriorRecord> R = Db->lookup(M, N, K, Ty)) {
      // The never-lose gate: the record must beat its own measured model
      // baseline, and its tile must pass the same screen as the model's
      // candidates. Anything else falls through to the model.
      if (R->margin() > 0 && tileAdmissible(R->MR, R->NR, ForceIsa)) {
        PlanChoice C = PlanChoice::make(R->MR, R->NR, PlanSource::Tuned);
        if (R->MC > 0 && R->KC > 0 && R->NC > 0)
          C.Blocks = BlockSizes{R->MC, R->KC, R->NC};
        C.UnrollCompute = R->UnrollCompute;
        return C;
      }
      if (Outcome)
        ++Outcome->TunedRejected;
    }
  }

  // Stage 2: the analytical model.
  auto [Mr, Nr] = pickTileForProblem(M, N, K, ForceIsa);
  return PlanChoice::make(Mr, Nr, PlanSource::Model);
}

int64_t gemm::batchCrossoverBytes() {
  // Read per call (not statically cached) so tests and operators can flip
  // EXO_GEMM_BATCH_CROSSOVER between batches. The default is the cache
  // model's host L2: the largest footprint one core can keep private while
  // its siblings each run their own item.
  int64_t L2 = CacheConfig::host().L2.SizeBytes;
  if (L2 <= 0)
    L2 = 1 << 20;
  return exo::envInt("EXO_GEMM_BATCH_CROSSOVER",
                     std::getenv("EXO_GEMM_BATCH_CROSSOVER"),
                     /*Default=*/L2, /*Min=*/0,
                     /*Max=*/int64_t(1) << 40);
}

bool gemm::batchPrefersCrossItem(int64_t M, int64_t N, int64_t K,
                                 int64_t Threads, int64_t Items) {
  if (Threads <= 1 || Items <= 1)
    return false; // nothing to spread, or no one to spread it over
  // Per-item working set: the A and B operands plus the C block, as the
  // five-loop driver streams them. Wide arithmetic — callers pass raw
  // user dimensions.
  const double Floats = static_cast<double>(M) * static_cast<double>(K) +
                        static_cast<double>(K) * static_cast<double>(N) +
                        static_cast<double>(M) * static_cast<double>(N);
  return Floats * static_cast<double>(sizeof(float)) <=
         static_cast<double>(batchCrossoverBytes());
}

std::vector<ukr::UkrConfig> gemm::planKernelFamily(int64_t M, int64_t N,
                                                   int64_t K, DType Ty) {
  PlanChoice C = choosePlan(M, N, K, nullptr, nullptr, Ty);
  std::vector<ukr::UkrConfig> Out;
  if (Ty == DType::I8I32) {
    // The typed widening-accumulator kernel for the fixed i8 tile; no edge
    // family (non-f32 geometries always zero-pad; Planner.h).
    Out.push_back(ukr::shapeConfig(C.MR, C.NR, nullptr,
                                   /*UnrollCompute=*/false,
                                   exo::ScalarKind::I8));
    return Out;
  }
  Out.push_back(ukr::shapeConfig(C.MR, C.NR));
  if (Ty != DType::F32 || N <= 0)
    return Out;
  // The partial strip widths the five-loop driver will request for this
  // problem, replicating resolveEdgeKernels' enumeration over the standard
  // clamped blocking (nc need not be a multiple of nr, so several widths
  // can occur).
  BlockSizes Bl =
      analyticalBlockSizes(CacheConfig::host(), C.MR, C.NR, sizeof(float));
  auto RoundUp = [](int64_t V, int64_t Q) { return ((V + Q - 1) / Q) * Q; };
  const int64_t Nc =
      std::min(std::max<int64_t>(Bl.NC, C.NR), RoundUp(N, C.NR));
  std::set<int64_t> Widths;
  for (int64_t Jc = 0; Jc < N; Jc += Nc) {
    int64_t W = std::min(Nc, N - Jc) % C.NR;
    if (W != 0 && Widths.insert(W).second)
      Out.push_back(ukr::shapeConfig(C.MR, W));
  }
  return Out;
}
