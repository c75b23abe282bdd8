//===- Workload.cpp -------------------------------------------------------===//

#include "Workload.h"

#include <cstdio>

using namespace pb;

SetupTimer::SetupTimer() : T0(Clock::now()), S0(ukr::globalCacheStats()) {}

bool SetupTimer::warm(gemm::Engine &Eng, const std::vector<Shape> &Shapes,
                      const std::vector<gemm::DType> &Types) {
  const auto W0 = Clock::now();
  for (gemm::DType Ty : Types)
    for (const Shape &S : Shapes)
      if (exo::Error E = Eng.warm(Ty, gemm::Trans::None, gemm::Trans::None,
                                  S.M, S.N, S.K)) {
        std::fprintf(stderr, "perfbench: warm %s %lldx%lldx%lld: %s\n",
                     gemm::dtypeName(Ty), (long long)S.M, (long long)S.N,
                     (long long)S.K, E.message().c_str());
        return false;
      }
  WarmS += secondsSince(W0);
  return true;
}

void SetupTimer::finish(Result &R) {
  const double SetupS = secondsSince(T0);
  const ukr::CacheStats S1 = ukr::globalCacheStats();
  R.add("setup_s", "s", SetupS, 1);
  R.add("ukr.warm_s", "s", WarmS, 1);
  R.add("ukr.jit_compiles", "count",
        static_cast<double>(S1.Compiles - S0.Compiles), 1);
  R.add("ukr.disk_hits", "count",
        static_cast<double>(S1.DiskHits - S0.DiskHits), 1);
}

bool pb::timedSetup(Result &R, const std::vector<Shape> &Shapes,
                    const std::vector<gemm::DType> &Types,
                    std::unique_ptr<gemm::Engine> &Eng) {
  SetupTimer T;
  Eng = std::make_unique<gemm::Engine>();
  if (!T.warm(*Eng, Shapes, Types))
    return false;
  T.finish(R);
  return true;
}

void pb::notePlans(gemm::Engine &Eng, const std::vector<Shape> &Shapes,
                   Result &R) {
  std::string J = "[";
  for (const Shape &S : Shapes) {
    auto C = Eng.planFor(gemm::Trans::None, gemm::Trans::None, S.M, S.N, S.K);
    if (!C)
      continue;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"mnk\":\"%lldx%lldx%lld\",\"tile\":\"%lldx%lld\","
                  "\"source\":\"%s\"}",
                  J.size() > 1 ? "," : "", (long long)S.M, (long long)S.N,
                  (long long)S.K, (long long)C->MR, (long long)C->NR,
                  C->Source);
    J += Buf;
  }
  R.note("f32_plans", J + "]");
}

bool Probes::start(gemm::Engine &Eng, Shape Dominant, bool IsTraced,
                   Result &R) {
  Traced = IsTraced;
  auto C = Eng.planFor(gemm::Trans::None, gemm::Trans::None, Dominant.M,
                       Dominant.N, Dominant.K);
  if (!C || !Solo.init(C->MR, C->NR)) {
    std::fprintf(stderr, "perfbench: no generated main kernel to probe\n");
    return false;
  }
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "\"%lldx%lld main kernel of %lldx%lldx%lld\"",
                (long long)C->MR, (long long)C->NR, (long long)Dominant.M,
                (long long)Dominant.N, (long long)Dominant.K);
  R.note("solo_probe", Buf);
  StartS = Solo.time();
  return true;
}

void Probes::finish(Result &R) {
  const double EndS = Solo.time();
  R.add("host.drift_frac", "frac", EndS / StartS - 1.0, 2);
  R.add("ukr.solo_gflops", "GFLOP/s", soloGflops(), 1);
  if (!Traced)
    return;
  // Far larger than any private cache level; the host LLC is stated next
  // to it because it may be a socket-wide cache shared with other tenants.
  constexpr size_t CopyBytes = size_t{128} << 20;
  CopyGbps = memCopyGbps(CopyBytes);
  R.note("mem_copy_buffer_bytes", std::to_string(CopyBytes));
  R.add("mem.copy_gbps", "GB/s", CopyGbps, 1);
}

void pb::reportOps(const OpLog &Log, Result &R, const char *OpName,
                   double TailQ) {
  const uint64_t N = Log.Untraced.size();
  R.add("op_ms", "ms", median(Log.Untraced) * 1e3, N);
  R.add("op_ms_p10", "ms", quantile(Log.Untraced, 0.1) * 1e3, N);
  R.add("op_ms_tail", "ms", quantile(Log.Untraced, TailQ) * 1e3, N);
  R.note("op_ms_tail_quantile", jsonNumber(TailQ));
  std::string Q = "{";
  for (double P : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
    Q += (Q.size() > 1 ? ",\"p" : "\"p") + std::to_string(int(P * 100)) +
         "\":" + jsonNumber(quantile(Log.Untraced, P) * 1e3);
  R.note("op_ms_quantiles", Q + "}");
  const uint64_t All = N + Log.Traced.size();
  R.add("ops_per_s", "1/s", static_cast<double>(All) / Log.Wall, All);
  R.note("op", jsonString(OpName));
}

void pb::reportGemmStages(const trace::Summary &Sum, const char *CallSpan,
                          bool Scoped, const std::string &Suffix,
                          double FlopsPerOp, double PackBytesPerOp, double Ops,
                          const Probes &P, Result &R) {
  const uint64_t N = static_cast<uint64_t>(Ops);
  auto stage = [&](const char *Name) {
    return (Scoped ? Sum.under(Name, CallSpan) : Sum[Name]).SelfNs * 1e-9 /
           Ops;
  };
  const double CallS = Sum[CallSpan].DurNs * 1e-9 / Ops;
  const double Gflops = CallS > 0 ? FlopsPerOp / CallS * 1e-9 : 0;
  R.add("gemm.call_ms" + Suffix, "ms", CallS * 1e3, N);
  R.add("gemm.gflops" + Suffix, "GFLOP/s", Gflops, N);
  const double PackA = stage("gemm.packA"), PackB = stage("gemm.packB");
  const double Ukr = stage("gemm.ukr");
  R.add("gemm.packA_ms" + Suffix, "ms", PackA * 1e3, N);
  R.add("gemm.packB_ms" + Suffix, "ms", PackB * 1e3, N);
  R.add("gemm.ukr_ms" + Suffix, "ms", Ukr * 1e3, N);
  R.add("gemm.beta_ms" + Suffix, "ms", stage("gemm.beta") * 1e3, N);
  if (!Suffix.empty())
    return;
  // f32 only: the ceilings are the f32 kernel and an f32 copy.
  const double Solo = P.soloGflops();
  const double PackGbps =
      PackA + PackB > 0 ? PackBytesPerOp / (PackA + PackB) * 1e-9 : 0;
  R.add("gemm.peak_frac", "frac", Gflops / Solo, N);
  R.add("gemm.pack_gbps", "GB/s", PackGbps, N);
  R.add("gemm.pack_bw_frac", "frac",
        P.copyGbps() > 0 ? PackGbps / P.copyGbps() : 0, N);
  R.add("gemm.ukr_peak_frac", "frac",
        Ukr > 0 ? FlopsPerOp / Ukr * 1e-9 / Solo : 0, N);
}

void pb::reportPlanStats(const gemm::EngineStats &S0,
                         const gemm::EngineStats &S1, Result &R) {
  const double Hits = static_cast<double>(S1.Hits - S0.Hits);
  const double Misses = static_cast<double>(S1.Misses - S0.Misses);
  const uint64_t Calls = static_cast<uint64_t>(Hits + Misses);
  R.add("gemm.plan_hit_ratio", "frac", Calls ? Hits / (Hits + Misses) : 0,
        Calls);
  R.add("gemm.plan_builds", "count",
        static_cast<double>(S1.Builds - S0.Builds), Calls);
}

void pb::reportTraceCommon(const OpLog &Log, const trace::Summary &Sum,
                           Result &R) {
  const double Un = median(Log.Untraced), Tr = median(Log.Traced);
  R.add("trace_overhead_frac", "frac", Un > 0 ? Tr / Un - 1.0 : 0,
        Log.Traced.size());
  R.add("trace.unattributed_frac", "frac", Sum.unattributed(),
        Log.Traced.size());
  const trace::NameStat &Lookup = Sum["plan.lookup"];
  R.add("gemm.plan_lookup_us", "us",
        Lookup.Count ? Lookup.DurNs * 1e-3 / static_cast<double>(Lookup.Count)
                     : 0,
        Lookup.Count);
}

void pb::writeSpanFile(const Options &O, const trace::Summary &Sum) {
  // One file per workload, replaced by each traced run: a gemmd run alone
  // records a few hundred thousand spans.
  const std::string Path = O.OutDir + "/spans-" + O.Workload + ".jsonl";
  if (!trace::writeSpans(Path, O.Workload, O.Seed, Sum))
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  else
    std::fprintf(stderr, "perfbench: spans written to %s\n", Path.c_str());
}
