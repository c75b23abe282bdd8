//===- ObsGemmTest.cpp - Observability of the GEMM hot path ---------------===//
//
// Stage attribution of the GEMM executor behind Engine::sgemm (packA /
// packB / micro-kernel / barrier), bitwise identity of results with tracing
// on vs off, and one trace lane per worker on the threaded path.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "benchutil/Bench.h"
#include "benchutil/Json.h"
#include "gemm/Engine.h"
#include "gemm/Kernels.h"
#include "gemm/MicroKernel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

using namespace gemm;

namespace {

class ObsGemmTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!baselineKernelsUsable())
      GTEST_SKIP() << "no AVX2 baseline kernels on this host";
    obs::setCounterBackend(obs::CounterBackend::Fake);
    obs::setEnabled(true);
    obs::clear();
  }
  void TearDown() override {
    obs::setEnabled(false);
    obs::setCounterBackend(obs::CounterBackend::Off);
    obs::clear();
  }

  /// An Engine over the BLIS-style baseline kernel at a fixed team width.
  static EngineConfig blisConfig(int Threads) {
    EngineConfig Cfg;
    Cfg.Series = EngineSeries::Custom;
    Cfg.Provider = std::make_shared<FixedProvider>(blisKernel(), "BLIS");
    Cfg.Threads = Threads;
    return Cfg;
  }

  /// Runs one M x N x K SGEMM with the BLIS-style baseline kernel.
  void runGemm(int64_t M, int64_t N, int64_t K, float *C, int Threads = 1) {
    std::vector<float> A(M * K), B(K * N);
    benchutil::fillRandom(A.data(), A.size(), 5);
    benchutil::fillRandom(B.data(), B.size(), 6);
    Engine E(blisConfig(Threads));
    exo::Error Err =
        E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, C, M);
    ASSERT_FALSE(bool(Err)) << Err.message();
  }
};

TEST_F(ObsGemmTest, StagesAttributeTimeAndCounters) {
  std::vector<float> C(128 * 128, 0.f);
  runGemm(128, 128, 128, C.data());

  std::map<std::string, obs::StageStat> Tot = obs::stageTotals();
  for (const char *Stage :
       {"gemm.call", "gemm.packA", "gemm.packB", "gemm.ukr"}) {
    ASSERT_EQ(Tot.count(Stage), 1u) << Stage << " missing from trace";
    EXPECT_GT(Tot[Stage].Count, 0u) << Stage;
    EXPECT_GT(Tot[Stage].Seconds, 0.0) << Stage;
    // Fake backend quanta prove the counter plumbing reached every stage.
    EXPECT_GT(Tot[Stage].Counters.Cycles, 0u) << Stage;
  }
  // The whole-call span must dominate its own stages' wall time.
  EXPECT_GE(Tot["gemm.call"].Seconds, Tot["gemm.ukr"].Seconds);
}

TEST_F(ObsGemmTest, ResultsBitwiseIdenticalWithTracingOff) {
  const int64_t M = 96, N = 96, K = 96;
  std::vector<float> COn(M * N, 0.25f), COff(M * N, 0.25f);

  runGemm(M, N, K, COn.data());
  obs::setEnabled(false);
  runGemm(M, N, K, COff.data());
  obs::setEnabled(true);

  EXPECT_EQ(std::memcmp(COn.data(), COff.data(), COn.size() * sizeof(float)),
            0)
      << "tracing must only observe, never change results";
}

TEST_F(ObsGemmTest, ThreadedRunTracesOneLanePerWorker) {
  const int Threads = 4;
  std::vector<float> C(256 * 256, 0.f);
  runGemm(256, 256, 256, C.data(), Threads);

  std::set<uint32_t> Tids;
  uint64_t Barriers = 0;
  for (const obs::Event &E : obs::events()) {
    if (std::strncmp(E.Name, "gemm.", 5) == 0)
      Tids.insert(E.Tid);
    if (std::strcmp(E.Name, "gemm.barrier") == 0)
      ++Barriers;
  }
  // Every worker in the team records spans under its own thread id.
  EXPECT_GE(Tids.size(), static_cast<size_t>(Threads));
  EXPECT_GT(Barriers, 0u) << "threaded path must trace its barriers";

  // And the chrome trace renders them as distinct lanes.
  std::string Path = ::testing::TempDir() + "/obs_gemm_trace.json";
  ASSERT_FALSE(bool(obs::writeChromeTrace(Path)));
  auto J = benchutil::Json::load(Path);
  ASSERT_TRUE(bool(J));
  std::set<double> LaneTids;
  const benchutil::Json *Ev = J->get("traceEvents");
  ASSERT_NE(Ev, nullptr);
  for (size_t I = 0; I != Ev->size(); ++I)
    if (Ev->at(I).str("ph") == "X")
      LaneTids.insert(Ev->at(I).num("tid", -1));
  EXPECT_GE(LaneTids.size(), static_cast<size_t>(Threads));
  std::remove(Path.c_str());
}

TEST_F(ObsGemmTest, MeasureAttributesStagesPerCall) {
  const int64_t M = 64, N = 64, K = 64;
  std::vector<float> A(M * K), B(K * N), C(M * N, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 5);
  benchutil::fillRandom(B.data(), B.size(), 6);
  Engine E(blisConfig(1));

  benchutil::Measurement Meas = benchutil::measure(
      [&] {
        E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, C.data(), M);
      },
      0.01);
  ASSERT_GT(Meas.Reps, 0);
  ASSERT_EQ(Meas.Stages.count("gemm.ukr"), 1u);
  // Per-call stage time can never exceed the measured per-call wall time.
  EXPECT_LE(Meas.Stages["gemm.ukr"].Seconds, Meas.SecondsPerCall);
  // One gemm.call span per rep (the warm-up call is excluded).
  ASSERT_EQ(Meas.Stages.count("gemm.call"), 1u);
  EXPECT_EQ(Meas.Stages["gemm.call"].Count,
            static_cast<uint64_t>(Meas.Reps));
}

} // namespace
