//===- Fuzzer.cpp - Deterministic sample drawing and campaign driver ------===//
//
// Drawing is deterministic: a single mt19937_64 stream seeded from
// FuzzOptions::Seed decides every choice, and candidate chain steps are
// validated against the evolving proc at draw time (a rejected candidate is
// simply not recorded), so two fuzzers with equal options produce identical
// campaigns. run() draws everything up front, prefetches every kernel the
// oracles will need through the KernelService worker pool (compilations
// overlap instead of serializing on first use), then runs the battery.
//
//===----------------------------------------------------------------------===//

#include "exo/fuzz/Fuzz.h"
#include "exo/fuzz/FuzzInternal.h"

#include "exo/ir/Rewrite.h"
#include "exo/isa/IsaLib.h"
#include "gemm/PriorDb.h"
#include "ukr/KernelService.h"

#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>

using namespace exo;
using namespace exo::fuzz;

struct ScheduleFuzzer::Impl {
  FuzzOptions O;
  std::mt19937_64 Rng;
  FuzzStats St;
  int Drawn = 0;

  explicit Impl(const FuzzOptions &O) : O(O), Rng(O.Seed) {}

  template <typename T> T pick(std::initializer_list<T> L) {
    auto It = L.begin();
    std::advance(It, Rng() % L.size());
    return *It;
  }

  /// Appends \p Step if the scheduler accepts it on top of the sample's
  /// current pipeline.
  bool tryStep(FuzzSample &S, const RewriteStep &Step) {
    FuzzSample Cand = S;
    Cand.Steps.push_back(Step);
    if (std::getenv("EXO_FUZZ_TRACE"))
      std::fprintf(stderr, "[trace] tryStep:\n%s",
                   serializeSample(Cand).c_str());
    Expected<AppliedSample> A = applySample(Cand);
    if (!A || A->AppliedSteps.size() != Cand.Steps.size())
      return false;
    S = std::move(Cand);
    return true;
  }

  FuzzSample drawRecipe(FuzzSample S) {
    S.M = FuzzSample::Mode::Recipe;
    S.MR = pick<int64_t>({4, 8, 8, 8, 12, 16, 24});
    S.NR = pick<int64_t>({4, 6, 8, 12, 12, 16});
    S.Isa = pick<const char *>(
        {"portable", "portable", "avx2", "avx2", "avx512", "neon", "none"});
    S.Style = pick<const char *>({"auto", "auto", "auto", "lane", "bcst"});
    // Weighted dtype draw (§III-D): most recipes stay f32 — the JIT and
    // cross oracles only run there — but every campaign also exercises the
    // typed instruction libraries: the Neon f16/bf16 half schedules and the
    // K-grouped i8 -> i32 dot path (Neon sdot-style), gated to libraries
    // that actually carry those spaces so the default campaign keeps its
    // zero-rejection invariant.
    const uint64_t TyDraw = Rng() % 8;
    if (TyDraw == 0 && (S.Isa == "neon" || S.Isa == "none"))
      S.Ty = "f16";
    else if (TyDraw == 1 && (S.Isa == "neon" || S.Isa == "none"))
      S.Ty = "bf16";
    else if (TyDraw == 2 && (S.Isa == "neon" || S.Isa == "none")) {
      S.Ty = "i8";
      S.WidenAcc = true; // i8 accumulates i32, the dot-unit convention
    } else {
      S.Ty = "f32";
    }
    S.UnrollLoads = Rng() % 2 == 0;
    S.UnrollCompute = Rng() % 4 == 0;
    // widen_acc has no axpby spec (Fig. 4 is same-type); keep them apart.
    S.GeneralAlphaBeta = !S.WidenAcc && Rng() % 4 == 0;
    St.IsasScheduled.insert(S.Isa);
    return S;
  }

  FuzzSample drawChain(FuzzSample S) {
    S.M = FuzzSample::Mode::Chain;
    S.MR = pick<int64_t>({2, 4, 4, 8, 8, 16});
    S.NR = pick<int64_t>({3, 4, 8, 12});
    S.Ty = "f32";
    S.GeneralAlphaBeta = Rng() % 8 == 0;
    S.UnrollCompute = false;

    // Most chains start from a vectorized kernel so the replace/stage
    // machinery is inside the fuzzed pipeline; the rest stay scalar C.
    std::string VecIsa = "none";
    if (Rng() % 5 != 0) {
      RewriteStep V;
      V.K = RewriteStep::Kind::Vectorize;
      V.Isa = pick<const char *>(
          {"portable", "portable", "avx2", "avx512", "neon"});
      V.Style = pick<const char *>({"auto", "auto", "lane", "bcst"});
      V.UnrollLoads = Rng() % 2 == 0;
      if (tryStep(S, V))
        VecIsa = V.Isa;
    }
    St.IsasScheduled.insert(VecIsa);

    int Extra = static_cast<int>(Rng() % 4);
    int Fresh = 0;
    for (int K = 0; K != Extra; ++K) {
      Expected<AppliedSample> A = applySample(S);
      if (!A)
        break;
      std::set<std::string> Vars;
      collectLoopVars(A->Scheduled.body(), Vars);
      if (Vars.empty())
        break;
      auto PickVar = [&] {
        std::vector<std::string> V(Vars.begin(), Vars.end());
        return V[Rng() % V.size()];
      };
      std::string Var = PickVar();
      std::string Pat = "for " + Var + " in _: _";
      RewriteStep Step;
      switch (Rng() % 5) {
      case 0:
        Step.K = RewriteStep::Kind::Divide;
        Step.Pattern = Pat;
        Step.Factor = 2 + static_cast<int64_t>(Rng() % 3);
        Step.Outer = "fz" + std::to_string(Fresh++);
        Step.Inner = "fz" + std::to_string(Fresh++);
        Step.Perfect = Rng() % 2 == 0;
        break;
      case 1: {
        std::string V2 = PickVar();
        if (V2 == Var)
          continue;
        Step.K = RewriteStep::Kind::Reorder;
        Step.Pattern = Var + " " + V2;
        break;
      }
      case 2:
        Step.K = RewriteStep::Kind::Unroll;
        Step.Pattern = Pat;
        break;
      case 3:
        Step.K = RewriteStep::Kind::Cut;
        Step.Pattern = Pat;
        Step.Factor = static_cast<int64_t>(Rng() % 5);
        break;
      case 4:
        Step.K = RewriteStep::Kind::Fuse;
        Step.Pattern = Pat;
        break;
      }
      tryStep(S, Step); // rejected candidates are simply not recorded
    }

    if (!O.Fault.empty())
      S.Fault = O.Fault;
    return S;
  }

  /// A recipe sample whose tile comes out of a synthetic tuned-prior
  /// record: the record is serialized and re-parsed through the PriorDb
  /// on-disk format, then materialized with priorRecordConfig — the exact
  /// mapping Planner::choosePlan uses — so every Nth campaign sample
  /// checks that a prior-shaped schedule is semantics-preserving. Tiles are
  /// restricted to the portable-admissible set so the sample is legal on
  /// any host.
  FuzzSample drawPriorShaped(FuzzSample S) {
    S.M = FuzzSample::Mode::Recipe;
    struct Tile {
      int64_t MR, NR;
    };
    Tile T = pick<Tile>({{8, 12}, {8, 8}, {8, 4}, {4, 8}, {4, 4}, {16, 4}});

    gemm::PriorRecord Rec;
    Rec.Machine = gemm::priorMachineKey();
    Rec.MR = T.MR;
    Rec.NR = T.NR;
    Rec.M = T.MR * static_cast<int64_t>(1 + Rng() % 8);
    Rec.N = T.NR * static_cast<int64_t>(1 + Rng() % 8);
    Rec.K = 16 + static_cast<int64_t>(Rng() % 512);
    Rec.Class = gemm::priorShapeClass(Rec.M, Rec.N, Rec.K);
    Rec.UnrollCompute = Rng() % 4 == 0;
    Rec.TunedGflops = 2.0; // positive margin: the planner would accept it
    Rec.ModelMR = 8;
    Rec.ModelNR = 8;
    Rec.ModelGflops = 1.0;

    Expected<gemm::PriorRecord> P =
        gemm::parsePriorRecord(gemm::formatPriorRecord(Rec));
    if (P)
      ++St.PriorShaped; // only a surviving round trip counts as coverage
    ukr::UkrConfig Cfg = gemm::priorRecordConfig(P ? *P : Rec);
    S.MR = Cfg.MR;
    S.NR = Cfg.NR;
    S.Isa = Cfg.Isa ? Cfg.Isa->name() : "none";
    S.Style = "auto";
    S.UnrollLoads = Cfg.UnrollLoads;
    S.UnrollCompute = Cfg.UnrollCompute;
    St.IsasScheduled.insert(S.Isa);
    return S;
  }

  FuzzSample draw() {
    FuzzSample S;
    S.Seed = Rng();
    S.KC = 1 + static_cast<int64_t>(Rng() % 8);
    S.LdcSlack = pick<int64_t>({0, 0, 0, 1, 2, 5});
    ++Drawn;
    if (O.PriorEvery > 0 && Drawn % O.PriorEvery == 0)
      return drawPriorShaped(S);
    return Rng() % 4 == 0 ? drawRecipe(S) : drawChain(S);
  }

  /// Queues every kernel build the oracles will request so the service
  /// workers compile them concurrently.
  void prefetch(const FuzzSample &S) {
    if (S.Ty != "f32")
      return;
    auto Queue = [&](const std::string &Isa, const std::string &Style,
                     bool UnrollLoads) {
      Expected<ukr::UkrConfig> Cfg =
          detail::sampleUkrConfig(S, Isa, Style, UnrollLoads);
      if (Cfg && (!Cfg->Isa || Cfg->Isa->hostExecutable()))
        ukr::KernelService::global().prefetch(*Cfg);
    };
    if (S.M == FuzzSample::Mode::Recipe && O.Oracle.CheckJit)
      Queue(S.Isa, S.Style, S.UnrollLoads);
    if (O.Oracle.CheckCross)
      for (const char *Isa : {"none", "portable", "avx2", "avx512"})
        Queue(Isa, "auto", true);
  }
};

ScheduleFuzzer::ScheduleFuzzer(const FuzzOptions &O) : I(new Impl(O)) {}

ScheduleFuzzer::~ScheduleFuzzer() { delete I; }

FuzzSample ScheduleFuzzer::draw() { return I->draw(); }

const FuzzStats &ScheduleFuzzer::stats() const { return I->St; }

std::optional<FuzzFailure> ScheduleFuzzer::run() {
  std::vector<FuzzSample> Samples;
  Samples.reserve(static_cast<size_t>(I->O.Iterations));
  for (int K = 0; K != I->O.Iterations; ++K)
    Samples.push_back(I->draw());
  for (const FuzzSample &S : Samples)
    I->prefetch(S);

  for (size_t K = 0; K != Samples.size(); ++K) {
    OracleOptions OO = I->O.Oracle;
    OO.CheckDriver =
        OO.CheckDriver || (I->O.DriverEvery > 0 &&
                           K % static_cast<size_t>(I->O.DriverEvery) ==
                               static_cast<size_t>(I->O.DriverEvery) - 1);
    OracleOutcome Res;
    Error E = runOracles(Samples[K], OO, &Res);
    ++I->St.Samples;
    if (Res.Rejected)
      ++I->St.Rejected;
    if (Res.InterpChecked)
      ++I->St.InterpChecks;
    if (Res.JitChecked)
      ++I->St.JitChecks;
    if (Res.CrossChecked)
      ++I->St.CrossChecks;
    if (Res.DriverChecked)
      ++I->St.DriverChecks;
    I->St.IsasCompared.insert(Res.IsasCompared.begin(),
                              Res.IsasCompared.end());
    if (E) {
      // Drain the prefetch queue before handing control back: builds still
      // in flight must not outlive the caller (static teardown order).
      ukr::KernelService::global().wait();
      return FuzzFailure{Samples[K], E.message(), OO};
    }
  }
  ukr::KernelService::global().wait();
  return std::nullopt;
}
