//===- bench_threads.cpp - Macro-kernel strong scaling --------------------===//
//
// Not a paper figure: the paper evaluates single-core micro-kernels. This
// bench measures the BLIS-style parallel macro-kernel layered above them —
// one SGEMM problem swept over team sizes, reporting GFLOPS, speedup over
// one thread, and parallel efficiency. The 1-thread row runs the identical
// sequential driver the figure benches use, so it doubles as a regression
// check that threading support costs the single-core path nothing.
//
// Defaults to a 2048^3 SGEMM over 1/2/4/8 threads (capped at the host's
// hardware concurrency unless --all-counts is given; on a 1-core CI box
// the >1 rows are oversubscribed and merely prove correctness).
//
//   bench_threads [--size S] [--threads "1,2,4,8"] [--all-counts]
//                 [--seconds T] [--csv] [--json [PATH]] [--trace PATH]
//
// Pin the sweep for stable numbers: `taskset -c 0-7 bench_threads`.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "exo/support/Str.h"

#include <cstring>
#include <thread>

int main(int Argc, char **Argv) {
  using namespace gemm;
  fig::Context Ctx("threads", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  int64_t Size = Opt.Big ? 2048 : 768;
  if (Opt.Smoke)
    Size = 96;
  std::vector<int64_t> Counts = {1, 2, 4, 8};
  bool AllCounts = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--size") && I + 1 < Argc)
      Size = std::atoll(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--all-counts"))
      AllCounts = true;
    else if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc) {
      Counts.clear();
      for (const std::string &Tok : exo::split(Argv[++I], ','))
        if (int64_t T = std::atoll(Tok.c_str()); T > 0)
          Counts.push_back(T);
    }
  }
  const int64_t HW = std::max(1u, std::thread::hardware_concurrency());
  if (!AllCounts) {
    std::vector<int64_t> Kept;
    for (int64_t T : Counts)
      if (T <= HW)
        Kept.push_back(T);
    if (Kept.empty())
      Kept.push_back(1);
    Counts = Kept;
  }

  const int64_t M = Size, N = Size, K = Size;
  std::printf("Strong scaling: %lld^3 SGEMM, BLIS macro-kernel "
              "(ic x jr partitioning), %lld hardware thread(s)%s\n",
              static_cast<long long>(Size), static_cast<long long>(HW),
              Opt.Big ? " [paper-scale size]" : " [scaled; use --big]");

  std::vector<float> A(M * K), B(K * N), C(M * N);
  benchutil::fillRandom(A.data(), A.size(), 11);
  benchutil::fillRandom(B.data(), B.size(), 22);

  // Team size is part of the Engine's plan key, so one Engine per count
  // keeps every row's plan cached independently.
  auto EngineFor = [](int64_t Threads) {
    EngineConfig Cfg;
    Cfg.Series = EngineSeries::Exo;
    Cfg.Isa = &exo::avx2Isa();
    Cfg.Threads = Threads;
    return Cfg;
  };

  // Verified once (threaded vs sequential vs reference) before timing.
  {
    Engine E1(EngineFor(1)), ET(EngineFor(Counts.back()));
    std::vector<float> C1(M * N, 1.0f), CT(M * N, 1.0f);
    exo::Error Err1 = E1.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f,
                               C1.data(), M);
    exo::Error Err2 = ET.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f,
                               CT.data(), M);
    if (Err1 || Err2) {
      std::fprintf(stderr, "gemm failed: %s\n",
                   (Err1 ? Err1 : Err2).message().c_str());
      return 1;
    }
    if (std::memcmp(C1.data(), CT.data(), C1.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "WRONG RESULT: %lld-thread output differs from "
                           "1-thread\n",
                   static_cast<long long>(Counts.back()));
      return 1;
    }
  }

  benchutil::Table T("threads_strong_scaling",
                     {"threads", "gflops", "speedup", "efficiency"},
                     Opt.Csv);
  const double Flops = 2.0 * M * N * K;
  double Base = 0;
  for (int64_t Threads : Counts) {
    Engine E(EngineFor(Threads));
    // Plan once outside the timed region; the reps run the cached plan.
    E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, C.data(), M);
    benchutil::Measurement Meas = benchutil::measure(
        [&] {
          E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, C.data(),
                  M);
        },
        Opt.Seconds);
    double G = benchutil::gflops(Flops, Meas.SecondsPerCall);
    if (Base == 0)
      Base = G;
    T.addRow(exo::strf("%lld", static_cast<long long>(Threads)),
             {G, G / Base, G / Base / static_cast<double>(Threads)});
    benchutil::ReportRow Row;
    Row.Label = "t" + std::to_string(Threads);
    Row.Series = "strong_scaling";
    Row.Value = G;
    Row.SecondsPerCall = Meas.SecondsPerCall;
    Row.Reps = Meas.Reps;
    Row.Threads = Threads;
    Row.M = M;
    Row.N = N;
    Row.K = K;
    Row.Stages = Meas.Stages;
    Row.Extra["speedup"] = G / Base;
    Row.Extra["efficiency"] = G / Base / static_cast<double>(Threads);
    Ctx.Rep.addRow(std::move(Row));
  }
  T.print();
  return Ctx.finish();
}
