//===- Tuner.cpp - Offline micro-kernel schedule search -------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "gemm/Tuner.h"

#include "gemm/CacheModel.h"
#include "gemm/Engine.h"
#include "gemm/Planner.h"
#include "ukr/KernelRegistry.h"

#include <algorithm>
#include <chrono>
#include <vector>

using exo::Error;
using exo::errorf;
using exo::Expected;

namespace gemm {

namespace {

/// Round \p V down to a positive multiple of \p Unit (at least one unit).
int64_t roundTo(int64_t V, int64_t Unit) {
  if (Unit <= 0)
    Unit = 1;
  return std::max(Unit, (V / Unit) * Unit);
}

/// Portable deterministic Fisher-Yates: std::shuffle's draw sequence is
/// implementation-defined, and the deterministic-seed tests pin the search
/// order across toolchains.
template <typename T> void shuffleStable(std::vector<T> &V, uint64_t Seed) {
  // SplitMix64 stream — self-contained so the order never shifts under us.
  uint64_t S = Seed;
  auto Next = [&S]() {
    S += 0x9E3779B97F4A7C15ull;
    uint64_t Z = S;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  };
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Next() % I]);
}

/// Deterministic data fill (same LCG family the tests use).
void fillLcg(std::vector<float> &V, uint32_t Seed) {
  uint32_t X = Seed * 2654435761u + 12345u;
  for (float &F : V) {
    X = X * 1664525u + 1013904223u;
    // Small integers: exactly representable, keeps accumulation exact.
    F = static_cast<float>(static_cast<int>(X >> 28) - 8);
  }
}

struct Measurer {
  int64_t M, N, K;
  const TuneOptions &O;
  std::vector<float> A, B, C;

  Measurer(int64_t M, int64_t N, int64_t K, const TuneOptions &O)
      : M(M), N(N), K(K), O(O), A(static_cast<size_t>(M * K)),
        B(static_cast<size_t>(K * N)), C(static_cast<size_t>(M * N)) {
    fillLcg(A, 0xA0 + static_cast<uint32_t>(O.Seed));
    fillLcg(B, 0xB0 + static_cast<uint32_t>(O.Seed));
  }

  /// GFLOPS of one schedule through the pooled Engine path; fails when the
  /// Auto series degraded to the portable fallback (every candidate would
  /// measure the same kernel) or the Engine rejects the schedule.
  Expected<double> run(const TuneSample &S) {
    EngineConfig Cfg;
    Cfg.Series = EngineSeries::Auto;
    Cfg.Isa = O.Isa;
    Cfg.ForceMR = S.MR;
    Cfg.ForceNR = S.NR;
    Cfg.Threads = O.Threads;
    Cfg.UnrollCompute = S.UnrollCompute;
    Cfg.TunedPriors = false; // measuring: the DB must not steer the search
    if (S.MC > 0 && S.NC > 0 && S.KC > 0)
      Cfg.Blocks = BlockSizes{S.MC, S.KC, S.NC};
    Engine E(Cfg);
    Expected<PlanChoice> Plan = E.planFor(Trans::None, Trans::None, M, N, K);
    if (!Plan)
      return Plan.takeError();
    if (Plan->Src == PlanSource::Fallback)
      return errorf("tune: no generated kernel for %lldx%lld (JIT "
                    "unavailable?)",
                    static_cast<long long>(S.MR),
                    static_cast<long long>(S.NR));
    // One untimed call absorbs plan build + first-touch.
    if (Error Err = E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f,
                            C.data(), M))
      return Err;
    using Clock = std::chrono::steady_clock;
    int64_t Reps = 0;
    const Clock::time_point T0 = Clock::now();
    Clock::time_point T1 = T0;
    do {
      if (Error Err = E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f,
                              C.data(), M))
        return Err;
      ++Reps;
      T1 = Clock::now();
    } while (std::chrono::duration<double>(T1 - T0).count() < O.Seconds);
    const double Secs = std::chrono::duration<double>(T1 - T0).count();
    return (2.0 * M * N * K * Reps) / (Secs * 1e9);
  }
};

} // namespace

std::vector<TuneSample> tuneCandidates(int64_t M, int64_t N, int64_t K,
                                       const TuneOptions &O) {
  const CacheConfig Caches = CacheConfig::host();
  std::vector<TuneSample> Out;
  for (auto [Mr, Nr] : plannerTileCandidates(O.Isa)) {
    const BlockSizes Model = analyticalBlockSizes(Caches, Mr, Nr, 4);
    // Blocking variants: the model's own (encoded as zeros: "use the
    // analytical blocking", so a record stays valid if the model
    // improves), then half/double depth and half the A block.
    struct Var {
      int64_t MC, NC, KC;
    };
    const Var Vars[] = {
        {0, 0, 0},
        {Model.MC, Model.NC, roundTo(Model.KC / 2, 4)},
        {Model.MC, Model.NC, Model.KC * 2},
        {roundTo(Model.MC / 2, Mr), Model.NC, Model.KC},
    };
    for (const Var &V : Vars)
      for (bool Unroll : {false, true}) {
        TuneSample S;
        S.MR = Mr;
        S.NR = Nr;
        S.MC = V.MC;
        S.NC = V.NC;
        S.KC = V.KC;
        S.UnrollCompute = Unroll;
        Out.push_back(S);
      }
  }
  // Shape-mixed seed: different shapes explore different prefixes under
  // one budget, but the full (seed, shape) -> order map is deterministic.
  const uint64_t Mix = O.Seed ^ (static_cast<uint64_t>(M) * 0x100000001B3ull +
                                 static_cast<uint64_t>(N) * 0x1000193ull +
                                 static_cast<uint64_t>(K));
  shuffleStable(Out, Mix);
  return Out;
}

Expected<TuneResult> tuneShape(int64_t M, int64_t N, int64_t K,
                               const TuneOptions &O, PriorDb *Db) {
  if (M <= 0 || N <= 0 || K <= 0)
    return errorf("tune: degenerate shape %lldx%lldx%lld",
                  static_cast<long long>(M), static_cast<long long>(N),
                  static_cast<long long>(K));
  if (O.Dtype == DType::I8I32)
    return errorf("tune: i8 plans use the fixed %lldx%lld scalar-dot tile; "
                  "there is no schedule space to search",
                  static_cast<long long>(I8TileMR),
                  static_cast<long long>(I8TileNR));
  if (!Db)
    Db = &PriorDb::global();

  TuneResult R;
  R.M = M;
  R.N = N;
  R.K = K;

  Measurer Meas(M, N, K, O);

  // The never-lose baseline: the analytical model's own tile, measured
  // exactly like every candidate. A failure here (typically: no JIT) fails
  // the whole tune — without a baseline the gate cannot hold.
  std::tie(R.ModelMR, R.ModelNR) = pickTileForProblem(M, N, K, O.Isa);
  TuneSample ModelS;
  ModelS.MR = R.ModelMR;
  ModelS.NR = R.ModelNR;
  Expected<double> Base = Meas.run(ModelS);
  if (!Base)
    return Base.takeError();
  R.ModelGflops = ModelS.Gflops = *Base;
  R.Samples.push_back(ModelS);
  R.Best = ModelS;

  std::vector<TuneSample> Cands = tuneCandidates(M, N, K, O);
  if (static_cast<int64_t>(Cands.size()) > O.Budget)
    Cands.resize(static_cast<size_t>(O.Budget));
  for (TuneSample &S : Cands) {
    if (S.MR == R.ModelMR && S.NR == R.ModelNR && S.MC == 0 &&
        !S.UnrollCompute)
      continue; // the baseline already measured this schedule
    Expected<double> G = Meas.run(S);
    if (!G)
      continue; // e.g. the Engine rejects this blocking: skip the candidate
    S.Gflops = *G;
    R.Samples.push_back(S);
    if (S.Gflops > R.Best.Gflops)
      R.Best = S;
  }

  // Winner's curse control: the search takes a max over noisy one-shot
  // measurements, so the apparent winner is biased high. Confirm with a
  // second measurement of both the winner and the baseline, and gate on
  // the *pessimistic* pairing (winner's worse run vs the model's better
  // run) — a record only lands when the margin survives that.
  const bool BestIsModel = R.Best.MR == R.ModelMR && R.Best.NR == R.ModelNR &&
                           R.Best.MC == 0 && !R.Best.UnrollCompute;
  if (!BestIsModel) {
    if (Expected<double> G2 = Meas.run(R.Best))
      R.Best.Gflops = std::min(R.Best.Gflops, *G2);
    if (Expected<double> B2 = Meas.run(ModelS))
      R.ModelGflops = std::max(R.ModelGflops, *B2);
  }
  const double Gate = R.ModelGflops * (1.0 + std::max(0.0, O.MinMargin));
  if (!BestIsModel && R.Best.Gflops > Gate) {
    PriorRecord Rec;
    Rec.Dtype = O.Dtype;
    Rec.M = M;
    Rec.N = N;
    Rec.K = K;
    Rec.MR = R.Best.MR;
    Rec.NR = R.Best.NR;
    Rec.MC = R.Best.MC;
    Rec.NC = R.Best.NC;
    Rec.KC = R.Best.KC;
    Rec.UnrollCompute = R.Best.UnrollCompute;
    const ukr::UkrConfig Cfg =
        ukr::shapeConfig(Rec.MR, Rec.NR, O.Isa, Rec.UnrollCompute);
    Rec.Isa = Cfg.Isa->name();
    Rec.Fma = ukr::fmaStyleName(Cfg.effectiveStyle());
    Rec.Threads = O.Threads;
    Rec.TunedGflops = R.Best.Gflops;
    Rec.ModelMR = R.ModelMR;
    Rec.ModelNR = R.ModelNR;
    Rec.ModelGflops = R.ModelGflops;
    if (Error Err = Db->store(Rec))
      return Err;
    R.Stored = true;
    R.Record = Rec;
  }
  return R;
}

} // namespace gemm
