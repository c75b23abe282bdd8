//===- Main.cpp - Repository benchmark program ----------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
///           [--setup-only]
///
/// Runs one workload (resnet50, gemmd_mixed): set-up,
/// correctness gates, the start drift probe, the timed closed loop, the end
/// drift probe. Prints one JSON object as its last line: the contract
/// counters, every end-to-end metric (--trace 0) or every per-layer metric
/// (--trace 1), each with unit and sample count, and a report of the host
/// record, plans and gate outcomes. run.py builds this binary and wraps it.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Host.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pb;

namespace {

struct MetricDef {
  const char *Name, *Unit;
};

/// Reported by every workload in an untraced run.
const MetricDef EndToEnd[] = {{"op_ms", "ms"}, {"setup_s", "s"}};

/// Reported by every workload in a traced run; a layer a workload does not
/// exercise reports 0 with 0 samples. The p10, tail and throughput of the
/// run's untraced ops come first.
const MetricDef PerLayer[] = {
    {"op_ms_p10", "ms"},
    {"op_ms_tail", "ms"},
    {"ops_per_s", "1/s"},
    {"dnn.im2row_ms", "ms"},
    {"dnn.im2row_gbps", "GB/s"},
    {"gemm.call_ms", "ms"},
    {"gemm.gflops", "GFLOP/s"},
    {"gemm.peak_frac", "frac"},
    {"gemm.packA_ms", "ms"},
    {"gemm.packB_ms", "ms"},
    {"gemm.ukr_ms", "ms"},
    {"gemm.beta_ms", "ms"},
    {"gemm.pack_gbps", "GB/s"},
    {"gemm.pack_bw_frac", "frac"},
    {"gemm.ukr_peak_frac", "frac"},
    {"pass_ms.f16", "ms"},
    {"gemm.call_ms.f16", "ms"},
    {"gemm.gflops.f16", "GFLOP/s"},
    {"gemm.packA_ms.f16", "ms"},
    {"gemm.packB_ms.f16", "ms"},
    {"gemm.ukr_ms.f16", "ms"},
    {"gemm.beta_ms.f16", "ms"},
    {"pass_ms.bf16", "ms"},
    {"gemm.call_ms.bf16", "ms"},
    {"gemm.gflops.bf16", "GFLOP/s"},
    {"gemm.packA_ms.bf16", "ms"},
    {"gemm.packB_ms.bf16", "ms"},
    {"gemm.ukr_ms.bf16", "ms"},
    {"gemm.beta_ms.bf16", "ms"},
    {"pass_ms.i8", "ms"},
    {"gemm.call_ms.i8", "ms"},
    {"gemm.gflops.i8", "GFLOP/s"},
    {"gemm.packA_ms.i8", "ms"},
    {"gemm.packB_ms.i8", "ms"},
    {"gemm.ukr_ms.i8", "ms"},
    {"gemm.beta_ms.i8", "ms"},
    {"gemm.plan_hit_ratio", "frac"},
    {"gemm.plan_builds", "count"},
    {"gemm.plan_lookup_us", "us"},
    {"ukr.solo_gflops", "GFLOP/s"},
    {"ukr.warm_s", "s"},
    {"ukr.jit_compiles", "count"},
    {"ukr.disk_hits", "count"},
    {"mem.copy_gbps", "GB/s"},
    {"ipc.stage_us", "us"},
    {"ipc.collect_us", "us"},
    {"ipc.transport_us", "us"},
    {"ipc.bytes_per_req", "B"},
    {"rtt_us.f32", "us"},
    {"rtt_us.bf16", "us"},
    {"rtt_us.batch", "us"},
    {"daemon.request_us", "us"},
    {"daemon.batch_us", "us"},
    {"daemon.busy_frac", "frac"},
    {"daemon.exec_frac", "frac"},
    {"host.drift_frac", "frac"},
    {"trace_overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload resnet50|gemmd_mixed --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--setup-only]\n");
  return 2;
}

bool parse(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (A == "--setup-only") {
      O.SetupOnly = true;
      continue;
    }
    if (!V)
      return false;
    ++I;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 0);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::atoi(V) != 0;
    else if (A == "--out")
      O.OutDir = V;
    else
      return false;
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

std::string metricJson(const Metric &M) {
  return jsonString(M.Name) + ":{\"value\":" + jsonNumber(M.Value) +
         ",\"unit\":" + jsonString(M.Unit) +
         ",\"samples\":" + std::to_string(M.Samples) + "}";
}

} // namespace

double pb::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

uint64_t pb::checksum(const void *P, size_t Bytes) {
  // Eight bytes per step: fast enough to hash every pass's outputs.
  const unsigned char *B = static_cast<const unsigned char *>(P);
  uint64_t H = 0xcbf29ce484222325ull;
  size_t I = 0;
  for (; I + 8 <= Bytes; I += 8) {
    uint64_t W;
    std::memcpy(&W, B + I, 8);
    H = (H ^ W) * 0x100000001b3ull;
  }
  for (; I != Bytes; ++I)
    H = (H ^ B[I]) * 0x100000001b3ull;
  return H;
}

void Result::gateFail(const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  std::fprintf(stderr, "perfbench: gate failed: %s\n", Buf);
  note("gate_failure", jsonString(Buf));
  GateFailed = true;
  ++Attempted;
  ++Failed;
}

std::string pb::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string pb::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int main(int Argc, char **Argv) {
  Options O;
  if (!parse(Argc, Argv, O))
    return usage();
  int (*Run)(const Options &, Result &) = nullptr;
  if (O.Workload == "resnet50")
    Run = runResnet;
  else if (O.Workload == "gemmd_mixed")
    Run = runGemmd;
  else
    return usage();

  Result R;
  if (int Rc = Run(O, R))
    return Rc; // set-up failed: no result to print

  // The requested metric set in canonical order; anything else a workload
  // measured goes to the report.
  std::vector<Metric> Out, Extra;
  auto find = [&](const char *Name) -> const Metric * {
    for (const Metric &M : R.Metrics)
      if (M.Name == Name)
        return &M;
    return nullptr;
  };
  if (O.SetupOnly) {
    Out = R.Metrics;
  } else {
    const MetricDef *Defs = O.Trace ? PerLayer : EndToEnd;
    const size_t N = O.Trace ? std::size(PerLayer) : std::size(EndToEnd);
    for (size_t I = 0; I != N; ++I) {
      const Metric *M = find(Defs[I].Name);
      Out.push_back(M ? *M : Metric{Defs[I].Name, Defs[I].Unit, 0, 0});
    }
    for (const Metric &M : R.Metrics)
      if (std::none_of(Out.begin(), Out.end(),
                       [&](const Metric &X) { return X.Name == M.Name; }))
        Extra.push_back(M);
  }

  std::string J = "{\"correct\":";
  J += R.Failed == 0 && !R.GateFailed ? "true" : "false";
  J += ",\"attempted\":" + std::to_string(std::max<uint64_t>(R.Attempted, 1));
  J += ",\"failed\":" + std::to_string(R.Failed);
  J += ",\"metrics\":{";
  for (size_t I = 0; I != Out.size(); ++I)
    J += (I ? "," : "") + metricJson(Out[I]);
  J += "},\"report\":{\"workload\":" + jsonString(O.Workload) +
       ",\"seed\":" + std::to_string(O.Seed) +
       ",\"seconds\":" + jsonNumber(O.Seconds) +
       ",\"trace\":" + (O.Trace ? "1" : "0") + ",\"host\":" + hostRecordJson();
  for (const auto &[Key, Val] : R.Report)
    J += "," + jsonString(Key) + ":" + Val;
  J += ",\"extra_metrics\":{";
  for (size_t I = 0; I != Extra.size(); ++I)
    J += (I ? "," : "") + metricJson(Extra[I]);
  J += "}}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return R.GateFailed ? 1 : 0;
}
