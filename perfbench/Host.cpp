//===- Host.cpp -----------------------------------------------------------===//

#include "Host.h"

#include "exo/jit/DiskCache.h"
#include "gemm/ExoProvider.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace pb;

namespace {

/// First "key : value" line of /proc/cpuinfo with this key.
std::string cpuInfo(const std::string &Key) {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.compare(0, Key.size(), Key) != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string V = Line.substr(Colon + 1);
    V.erase(0, V.find_first_not_of(" \t"));
    return V;
  }
  return "";
}

} // namespace

std::string pb::hostRecordJson() {
  // Only the flags that decide which kernels and conversions can run.
  static const char *Interesting[] = {
      "avx2",        "fma",         "f16c",     "avx512f", "avx512bw",
      "avx512_vnni", "avx512_bf16", "avx512_fp16", "amx_tile", "asimd"};
  std::istringstream Flags(" " + cpuInfo("flags") + " " +
                           cpuInfo("Features") + " ");
  std::vector<std::string> Have;
  std::string F;
  while (Flags >> F)
    for (const char *I : Interesting)
      if (F == I && std::find(Have.begin(), Have.end(), F) == Have.end())
        Have.push_back(F);
  std::string Isa = "[";
  for (size_t I = 0; I != Have.size(); ++I)
    Isa += (I ? "," : "") + jsonString(Have[I]);
  Isa += "]";
  const char *Team = std::getenv("EXO_GEMM_THREADS");
  std::ostringstream O;
  O << "{\"cpu\":" << jsonString(cpuInfo("model name"))
    << ",\"mhz\":" << jsonString(cpuInfo("cpu MHz")) << ",\"isa\":" << Isa
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"gemm_team\":" << jsonString(Team ? Team : "1")
    << ",\"llc_bytes\":" << llcBytes()
    << ",\"jit_cc\":" << jsonString(exo::jitCompilerIdentity()) << "}";
  return O.str();
}

bool SoloProbe::init(int64_t Mr, int64_t Nr) {
  gemm::ExoProvider P(Mr, Nr);
  gemm::MicroKernel K = P.main();
  if (!K.Fn || K.IsFallback)
    return false;
  MR = Mr;
  NR = Nr;
  Fn = K.Fn;
  Rng R(0x501051);
  Ac.resize(static_cast<size_t>(Kc * MR));
  Bc.resize(static_cast<size_t>(Kc * NR));
  C.assign(static_cast<size_t>(MR * NR), 0.0f);
  fillSym(Ac, R);
  fillSym(Bc, R);
  // About 2 GFLOP: tens of milliseconds at any plausible kernel speed.
  Calls = static_cast<int64_t>(2e9 / (2.0 * MR * NR * Kc));
  return true;
}

double SoloProbe::time(int Trials) {
  double Best = 1e30;
  for (int T = 0; T != Trials; ++T) {
    std::fill(C.begin(), C.end(), 0.0f);
    const auto T0 = Clock::now();
    for (int64_t I = 0; I != Calls; ++I)
      Fn(Kc, MR, Ac.data(), Bc.data(), C.data());
    Best = std::min(Best, secondsSince(T0));
  }
  return Best;
}

double SoloProbe::gflops(double Seconds) const {
  return 2.0 * MR * NR * Kc * static_cast<double>(Calls) / Seconds * 1e-9;
}

double pb::memCopyGbps(size_t Bytes) {
  std::vector<char> Src(Bytes, 1), Dst(Bytes, 0);
  double Best = 1e30;
  for (int T = 0; T != 4; ++T) {
    Src[static_cast<size_t>(T)] = static_cast<char>(T);
    const auto T0 = Clock::now();
    std::memcpy(Dst.data(), Src.data(), Bytes);
    Best = std::min(Best, secondsSince(T0));
  }
  if (Dst[3] != 3) // keeps the copies observable
    return 0;
  return 2.0 * static_cast<double>(Bytes) / Best * 1e-9;
}

size_t pb::llcBytes() {
  for (int Name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    long V = sysconf(Name);
    if (V > 0)
      return static_cast<size_t>(V);
  }
  return 0;
}
