//===- TunerTest.cpp - Autotuner search + never-lose planner gate ---------===//
//
// The search half of the tuner and its contract with the planner:
// deterministic candidate enumeration under TuneOptions::Seed, and — the
// heart of the feature — the never-lose gate: a tuned database record
// steers the planner only when its tile is admissible and its stored margin
// over the measured model baseline is positive, and a tuned plan computes
// bitwise-identical results to the model plan on the same inputs.
//
//===----------------------------------------------------------------------===//

#include "gemm/Tuner.h"

#include "JitCacheTestEnv.h"
#include "exo/isa/IsaLib.h"
#include "exo/jit/Jit.h"
#include "gemm/Engine.h"
#include "gemm/Planner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace gemm;

namespace {

std::string makeTempDir() { return exotest::makeTempDir("exo-tunetest"); }

/// Deterministic integer-valued data: every product and partial sum is an
/// exactly representable small integer, so any two correct schedules must
/// agree bitwise — which is what lets the tests compare tuned vs model
/// plans with memcmp instead of a tolerance.
void fillInts(std::vector<float> &V, uint32_t Seed) {
  uint32_t X = Seed * 2654435761u + 12345u;
  for (float &F : V) {
    X = X * 1664525u + 1013904223u;
    F = static_cast<float>(static_cast<int>(X >> 28) - 8);
  }
}

/// An admissible tile that differs from the analytical pick for the shape
/// (so a test can prove the tuned record — not the model — chose it).
std::pair<int64_t, int64_t> nonModelTile(int64_t M, int64_t N, int64_t K) {
  auto Model = pickTileForProblem(M, N, K);
  for (auto T : plannerTileCandidates())
    if (T != Model)
      return T;
  return {0, 0}; // host with a single admissible tile: caller skips
}

/// A positive-margin record the planner should accept.
PriorRecord tunedRecord(int64_t M, int64_t N, int64_t K, int64_t Mr,
                        int64_t Nr) {
  PriorRecord R;
  R.M = M;
  R.N = N;
  R.K = K;
  R.MR = Mr;
  R.NR = Nr;
  R.TunedGflops = 60.0;
  std::tie(R.ModelMR, R.ModelNR) = pickTileForProblem(M, N, K);
  R.ModelGflops = 50.0;
  return R;
}

} // namespace

TEST(TuneCandidatesTest, DeterministicPerSeedAndAllAdmissible) {
  TuneOptions O;
  O.Seed = 1;
  std::vector<TuneSample> C1 = tuneCandidates(128, 128, 128, O);
  std::vector<TuneSample> C2 = tuneCandidates(128, 128, 128, O);
  ASSERT_FALSE(C1.empty());
  ASSERT_EQ(C1.size(), C2.size());
  for (size_t I = 0; I < C1.size(); ++I) {
    EXPECT_EQ(C1[I].MR, C2[I].MR) << "at " << I;
    EXPECT_EQ(C1[I].NR, C2[I].NR) << "at " << I;
    EXPECT_EQ(C1[I].MC, C2[I].MC) << "at " << I;
    EXPECT_EQ(C1[I].NC, C2[I].NC) << "at " << I;
    EXPECT_EQ(C1[I].KC, C2[I].KC) << "at " << I;
    EXPECT_EQ(C1[I].UnrollCompute, C2[I].UnrollCompute) << "at " << I;
    // Every candidate the search would measure passes the same screen the
    // planner applies on the way back out of the database.
    EXPECT_TRUE(tileAdmissible(C1[I].MR, C1[I].NR, O.Isa))
        << C1[I].MR << "x" << C1[I].NR;
  }

  if (C1.size() > 3) {
    O.Seed = 2;
    std::vector<TuneSample> C3 = tuneCandidates(128, 128, 128, O);
    ASSERT_EQ(C1.size(), C3.size()); // seed permutes, never adds/drops
    bool Differs = false;
    for (size_t I = 0; I < C1.size() && !Differs; ++I)
      Differs = C1[I].MR != C3[I].MR || C1[I].NR != C3[I].NR ||
                C1[I].MC != C3[I].MC || C1[I].KC != C3[I].KC ||
                C1[I].UnrollCompute != C3[I].UnrollCompute;
    EXPECT_TRUE(Differs) << "seed does not influence the search order";
  }
}

TEST(TuneCandidatesTest, ShapeMixesIntoSearchOrder) {
  // One budget across many shapes should not re-measure the same prefix
  // of the space for every shape: the shape is mixed into the seed.
  TuneOptions O;
  std::vector<TuneSample> A = tuneCandidates(128, 128, 128, O);
  std::vector<TuneSample> B = tuneCandidates(256, 256, 256, O);
  ASSERT_EQ(A.size(), B.size());
  if (A.size() <= 3)
    GTEST_SKIP() << "too few admissible tiles on this host";
  bool Differs = false;
  for (size_t I = 0; I < A.size() && !Differs; ++I)
    Differs = A[I].MR != B[I].MR || A[I].NR != B[I].NR ||
              A[I].MC != B[I].MC || A[I].KC != B[I].KC ||
              A[I].UnrollCompute != B[I].UnrollCompute;
  EXPECT_TRUE(Differs);
}

TEST(TuneShapeTest, DegenerateShapeFails) {
  TuneOptions O;
  O.Budget = 1;
  O.Seconds = 0.001;
  exo::Expected<TuneResult> R = tuneShape(0, 8, 8, O);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.message().find("degenerate"), std::string::npos)
      << R.message();
}

TEST(NeverLoseGateTest, PositiveMarginAdmissibleRecordWins) {
  auto [Mr, Nr] = nonModelTile(96, 96, 96);
  if (Mr == 0)
    GTEST_SKIP() << "host has a single admissible tile";
  PriorDb Db(makeTempDir());
  ASSERT_TRUE(Db.enabled());
  PriorRecord R = tunedRecord(96, 96, 96, Mr, Nr);
  R.MC = 192;
  R.NC = 960;
  R.KC = 96;
  R.UnrollCompute = true;
  ASSERT_FALSE(static_cast<bool>(Db.store(R)));

  PlanOutcome Out;
  PlanChoice C = choosePlan(96, 96, 96, nullptr, &Out, DType::F32, &Db);
  EXPECT_EQ(C.Src, PlanSource::Tuned);
  EXPECT_STREQ(C.Source, "tuned");
  EXPECT_EQ(C.MR, Mr);
  EXPECT_EQ(C.NR, Nr);
  // The tuned execution overrides ride along into the plan.
  ASSERT_TRUE(C.Blocks.has_value());
  EXPECT_EQ(C.Blocks->MC, 192);
  EXPECT_EQ(C.Blocks->NC, 960);
  EXPECT_EQ(C.Blocks->KC, 96);
  EXPECT_TRUE(C.UnrollCompute);
  EXPECT_EQ(Out.TunedRejected, 0u);

  // Zero blocking fields mean "analytical": no override is attached.
  PriorRecord R2 = tunedRecord(64, 64, 64, Mr, Nr);
  ASSERT_FALSE(static_cast<bool>(Db.store(R2)));
  PlanChoice C2 = choosePlan(64, 64, 64, nullptr, nullptr, DType::F32, &Db);
  EXPECT_EQ(C2.Src, PlanSource::Tuned);
  EXPECT_FALSE(C2.Blocks.has_value());
}

TEST(NeverLoseGateTest, NonPositiveMarginFallsBackToModel) {
  auto [Mr, Nr] = nonModelTile(96, 96, 96);
  if (Mr == 0)
    GTEST_SKIP() << "host has a single admissible tile";
  PriorDb Db(makeTempDir());
  PriorRecord R = tunedRecord(96, 96, 96, Mr, Nr);
  R.TunedGflops = R.ModelGflops; // aged badly: margin exactly zero
  ASSERT_FALSE(static_cast<bool>(Db.store(R)));

  PlanOutcome Out;
  PlanChoice C = choosePlan(96, 96, 96, nullptr, &Out, DType::F32, &Db);
  EXPECT_EQ(C.Src, PlanSource::Model);
  EXPECT_EQ(Out.TunedRejected, 1u);
  auto Model = pickTileForProblem(96, 96, 96);
  EXPECT_EQ(C.MR, Model.first);
  EXPECT_EQ(C.NR, Model.second);
}

TEST(NeverLoseGateTest, InadmissibleTileIsRejected) {
  // 7x5 passes store() validation (it is a positive shape) but no vector
  // ISA divides 7, so the planner's screen must refuse it on every host.
  PriorDb Db(makeTempDir());
  PriorRecord R = tunedRecord(80, 80, 80, 7, 5);
  ASSERT_FALSE(static_cast<bool>(Db.store(R)));

  PlanOutcome Out;
  PlanChoice C = choosePlan(80, 80, 80, nullptr, &Out, DType::F32, &Db);
  EXPECT_EQ(C.Src, PlanSource::Model);
  EXPECT_EQ(Out.TunedRejected, 1u);
}

TEST(NeverLoseGateTest, NullDbSkipsTunedStage) {
  // The bench_tune "model" arm: EngineConfig::TunedPriors == false plans
  // as if the database did not exist, even with a winning record on disk.
  auto [Mr, Nr] = nonModelTile(96, 96, 96);
  if (Mr == 0)
    GTEST_SKIP() << "host has a single admissible tile";
  PriorDb Db(makeTempDir());
  ASSERT_FALSE(static_cast<bool>(Db.store(tunedRecord(96, 96, 96, Mr, Nr))));

  PlanOutcome Out;
  PlanChoice C = choosePlan(96, 96, 96, nullptr, &Out, DType::F32, nullptr);
  EXPECT_EQ(C.Src, PlanSource::Model);
  EXPECT_EQ(Out.TunedRejected, 0u);
}

namespace {

/// Repoints PriorDb::global() at a fresh temp root for one test, restoring
/// the binary-wide isolated root (JitCacheTestEnv) on exit.
struct ScopedGlobalDb {
  std::string Saved;
  std::string Dir;
  ScopedGlobalDb() : Saved(PriorDb::global().root()), Dir(makeTempDir()) {
    PriorDb::setGlobalRoot(Dir);
  }
  ~ScopedGlobalDb() { PriorDb::setGlobalRoot(Saved); }
};

} // namespace

TEST(TunedEngineTest, PlanProvenanceReachesEngineStats) {
  if (!exo::jitAvailable())
    GTEST_SKIP() << "no JIT toolchain";
  auto [Mr, Nr] = nonModelTile(96, 80, 64);
  if (Mr == 0)
    GTEST_SKIP() << "host has a single admissible tile";
  ScopedGlobalDb G;
  ASSERT_FALSE(static_cast<bool>(
      PriorDb::global().store(tunedRecord(96, 80, 64, Mr, Nr))));

  Engine E{EngineConfig{}}; // Auto series, TunedPriors on by default
  exo::Expected<PlanChoice> Plan =
      E.planFor(Trans::None, Trans::None, 96, 80, 64);
  ASSERT_TRUE(static_cast<bool>(Plan)) << Plan.takeError().message();
  EXPECT_STREQ(Plan->Source, "tuned");
  EXPECT_EQ(Plan->MR, Mr);
  EXPECT_EQ(Plan->NR, Nr);
  EXPECT_EQ(E.stats().PlansFromTuned, 1u);
  EXPECT_EQ(E.stats().PlansFromModel, 0u);

  // A shape without a record still plans from the model; both counters
  // coexist in one Engine.
  exo::Expected<PlanChoice> Other =
      E.planFor(Trans::None, Trans::None, 33, 65, 17);
  ASSERT_TRUE(static_cast<bool>(Other)) << Other.takeError().message();
  EXPECT_STREQ(Other->Source, "model");
  EXPECT_EQ(E.stats().PlansFromTuned, 1u);
  EXPECT_EQ(E.stats().PlansFromModel, 1u);

  // The ablation arm ignores the same on-disk record.
  EngineConfig ModelCfg;
  ModelCfg.TunedPriors = false;
  Engine ME(ModelCfg);
  exo::Expected<PlanChoice> MPlan =
      ME.planFor(Trans::None, Trans::None, 96, 80, 64);
  ASSERT_TRUE(static_cast<bool>(MPlan)) << MPlan.takeError().message();
  EXPECT_STREQ(MPlan->Source, "model");
  EXPECT_EQ(ME.stats().PlansFromTuned, 0u);
}

TEST(TunedEngineTest, TunedPlanIsBitwiseIdenticalToModelPlan) {
  // The deterministic-seed search smoke's correctness half: whatever tile
  // and blocking a tuned record steers the planner to, the result must be
  // bitwise-identical to the model plan's on the same integer-valued
  // inputs — tuning may only change speed, never values.
  if (!exo::jitAvailable())
    GTEST_SKIP() << "no JIT toolchain";
  const int64_t M = 96, N = 80, K = 64;
  auto [Mr, Nr] = nonModelTile(M, N, K);
  if (Mr == 0)
    GTEST_SKIP() << "host has a single admissible tile";
  ScopedGlobalDb G;
  PriorRecord R = tunedRecord(M, N, K, Mr, Nr);
  R.MC = 2 * Mr; // non-default blocking + unroll: the full override path
  R.NC = 2 * Nr;
  R.KC = 32;
  R.UnrollCompute = true;
  ASSERT_FALSE(static_cast<bool>(PriorDb::global().store(R)));

  std::vector<float> A(M * K), B(K * N);
  fillInts(A, 0xA11CE);
  fillInts(B, 0xB0B);
  std::vector<float> CTuned(M * N, 0.f), CModel(M * N, 0.f);

  Engine Tuned{EngineConfig{}};
  exo::Expected<PlanChoice> Plan =
      Tuned.planFor(Trans::None, Trans::None, M, N, K);
  ASSERT_TRUE(static_cast<bool>(Plan)) << Plan.takeError().message();
  ASSERT_STREQ(Plan->Source, "tuned"); // the record really is in play
  ASSERT_FALSE(static_cast<bool>(Tuned.sgemm(M, N, K, 1.f, A.data(), M,
                                             B.data(), K, 0.f,
                                             CTuned.data(), M)));

  EngineConfig ModelCfg;
  ModelCfg.TunedPriors = false;
  Engine Model(ModelCfg);
  exo::Expected<PlanChoice> MPlan =
      Model.planFor(Trans::None, Trans::None, M, N, K);
  ASSERT_TRUE(static_cast<bool>(MPlan)) << MPlan.takeError().message();
  ASSERT_STREQ(MPlan->Source, "model");
  ASSERT_FALSE(static_cast<bool>(Model.sgemm(M, N, K, 1.f, A.data(), M,
                                             B.data(), K, 0.f,
                                             CModel.data(), M)));

  EXPECT_EQ(std::memcmp(CTuned.data(), CModel.data(),
                        CTuned.size() * sizeof(float)),
            0)
      << "tuned plan changed numerical results";
}

TEST(TunedSearchSmokeTest, SeededSearchIsReproducible) {
  // TuneOptions::Seed pins the search trajectory: two tuneShape runs with
  // the same seed and budget measure the same candidate sequence (GFLOPS
  // vary; the schedule list must not). Tiny budget keeps this a smoke.
  if (!exo::jitAvailable())
    GTEST_SKIP() << "no JIT toolchain";
  ScopedGlobalDb G;
  TuneOptions O;
  O.Seed = 424242;
  O.Budget = 3;
  O.Seconds = 0.002;
  O.MinMargin = 1e9; // measurement smoke only: nothing can qualify
  PriorDb Db(makeTempDir());

  exo::Expected<TuneResult> R1 = tuneShape(64, 64, 64, O, &Db);
  ASSERT_TRUE(static_cast<bool>(R1)) << R1.message();
  exo::Expected<TuneResult> R2 = tuneShape(64, 64, 64, O, &Db);
  ASSERT_TRUE(static_cast<bool>(R2)) << R2.message();

  EXPECT_FALSE(R1->Stored); // the absurd margin gate held
  ASSERT_EQ(R1->Samples.size(), R2->Samples.size());
  ASSERT_FALSE(R1->Samples.empty());
  // Sample 0 is the model baseline, by contract.
  EXPECT_EQ(R1->Samples[0].MR, R1->ModelMR);
  EXPECT_EQ(R1->Samples[0].NR, R1->ModelNR);
  for (size_t I = 0; I < R1->Samples.size(); ++I) {
    EXPECT_EQ(R1->Samples[I].MR, R2->Samples[I].MR) << "at " << I;
    EXPECT_EQ(R1->Samples[I].NR, R2->Samples[I].NR) << "at " << I;
    EXPECT_EQ(R1->Samples[I].MC, R2->Samples[I].MC) << "at " << I;
    EXPECT_EQ(R1->Samples[I].KC, R2->Samples[I].KC) << "at " << I;
    EXPECT_EQ(R1->Samples[I].UnrollCompute, R2->Samples[I].UnrollCompute)
        << "at " << I;
  }
}
