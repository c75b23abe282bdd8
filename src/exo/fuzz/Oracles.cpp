//===- Oracles.cpp - The differential-conformance oracle battery ----------===//
//
// Oracle 1 (interp):  scheduled IR == unscheduled spec under the reference
//                     interpreter, bitwise on integer-valued inputs, both at
//                     the sample's exact shape and on random shapes.
// Oracle 2 (jit):     the emitted C, JIT-compiled through the KernelService /
//                     DiskCache path, matches the interpreter bit-for-bit on
//                     integer inputs and to tight tolerances on float inputs;
//                     bytes in the ldc slack region must be untouched.
// Oracle 3 (cross):   every host-executable kernel family for the sample's
//                     shape (scalar C, portable, AVX2, AVX-512) agrees with
//                     the interpreter bitwise on the same inputs, and the
//                     threaded GEMM driver (an Engine over the sample's
//                     kernel) reproduces the naive reference exactly at
//                     several team sizes.
//
//===----------------------------------------------------------------------===//

#include "exo/fuzz/Fuzz.h"
#include "exo/fuzz/FuzzInternal.h"

#include "exo/codegen/CEmit.h"
#include "exo/interp/Interp.h"
#include "exo/jit/Jit.h"
#include "exo/sched/Validate.h"
#include "exo/support/Str.h"
#include "gemm/Engine.h"
#include "gemm/ExoProvider.h"
#include "gemm/RefGemm.h"
#include "ukr/KernelService.h"

#include <cmath>
#include <cstring>
#include <random>

using namespace exo;
using namespace exo::fuzz;

namespace {

/// One instantiation of a sample's micro-kernel arguments. Panels are dense;
/// C is an NR x MR tile stored with row stride Ldc (Ldc - MR slack elements
/// per row that a correct kernel must never touch).
struct TileData {
  int64_t MR = 0, NR = 0, KC = 0, Ldc = 0;
  bool Axpby = false;
  std::vector<float> Ac, Bc, C0;
  float Alpha = 1.0f, Beta = 1.0f;
};

/// Integer-valued data keeps f32 arithmetic exact for any association, so
/// oracle comparisons can be bitwise; float data exercises rounding paths
/// under a tolerance.
TileData makeTileData(const FuzzSample &S, std::mt19937_64 &Rng,
                      bool Integer) {
  TileData D;
  D.MR = S.MR;
  D.NR = S.NR;
  D.KC = S.KC;
  D.Ldc = S.MR + S.LdcSlack;
  D.Axpby = S.GeneralAlphaBeta;
  auto Fill = [&](std::vector<float> &V, size_t N) {
    V.resize(N);
    if (Integer) {
      std::uniform_int_distribution<int> Di(-4, 4);
      for (float &X : V)
        X = static_cast<float>(Di(Rng));
    } else {
      std::uniform_real_distribution<double> Dr(-1.0, 1.0);
      for (float &X : V)
        X = static_cast<float>(Dr(Rng));
    }
  };
  Fill(D.Ac, static_cast<size_t>(D.KC * D.MR));
  Fill(D.Bc, static_cast<size_t>(D.KC * D.NR));
  Fill(D.C0, static_cast<size_t>(D.NR * D.Ldc));
  if (D.Axpby) {
    if (Integer) {
      std::uniform_int_distribution<int> Di(-2, 2);
      D.Alpha = static_cast<float>(Di(Rng));
      D.Beta = static_cast<float>(Di(Rng));
    } else {
      std::uniform_real_distribution<double> Dr(-1.0, 1.0);
      D.Alpha = static_cast<float>(Dr(Rng));
      D.Beta = static_cast<float>(Dr(Rng));
    }
  }
  return D;
}

/// Runs \p P (spec or scheduled, either ABI) on \p D under the interpreter
/// and returns the resulting C buffer, rounded to f32 like a real kernel.
Expected<std::vector<float>> interpTile(const Proc &P, const TileData &D) {
  std::vector<double> Ac(D.Ac.begin(), D.Ac.end());
  std::vector<double> Bc(D.Bc.begin(), D.Bc.end());
  std::vector<double> C(D.C0.begin(), D.C0.end());
  std::vector<double> Alpha{D.Alpha}, Beta{D.Beta};

  std::map<std::string, int64_t> Scalars{{"KC", D.KC}, {"ldc", D.Ldc}};
  std::map<std::string, TensorArg> Tensors;
  Tensors["Ac"] = TensorArg{Ac.data(), {D.KC, D.MR}, -1};
  Tensors["Bc"] = TensorArg{Bc.data(), {D.KC, D.NR}, -1};
  Tensors["C"] = TensorArg{C.data(), {D.NR, D.MR}, D.Ldc};
  if (D.Axpby) {
    Tensors["alpha"] = TensorArg{Alpha.data(), {1}, -1};
    Tensors["beta"] = TensorArg{Beta.data(), {1}, -1};
  }
  if (Error E = interpret(P, Scalars, Tensors))
    return errorf("interpreting %s: %s", P.name().c_str(),
                  E.message().c_str());
  return std::vector<float>(C.begin(), C.end());
}

std::vector<float> runKernel(ukr::MicroKernelF32 Fn, const TileData &D) {
  std::vector<float> C = D.C0;
  Fn(D.KC, D.Ldc, D.Ac.data(), D.Bc.data(), C.data());
  return C;
}

std::vector<float> runKernelAxpby(ukr::MicroKernelAxpbyF32 Fn,
                                  const TileData &D) {
  std::vector<float> C = D.C0;
  Fn(D.KC, D.Ldc, &D.Alpha, D.Ac.data(), D.Bc.data(), &D.Beta, C.data());
  return C;
}

bool sameBits(float A, float B) {
  return std::memcmp(&A, &B, sizeof(float)) == 0;
}

/// IEEE value equality plus bitwise NaN matching: the macro-kernel and the
/// naive reference sum signed zeros in different orders, and -0 == +0 is
/// exactly as conformant as bit equality there.
bool sameValue(float A, float B) { return A == B || sameBits(A, B); }

/// In-tile comparison of \p Got against \p Ref (bitwise or toleranced) plus
/// the slack check: elements past MR in each row must still hold their
/// initial values — an out-of-bounds store is a conformance failure even
/// when the tile itself is right.
Error compareTiles(const char *What, const std::vector<float> &Ref,
                   const std::vector<float> &Got, const TileData &D,
                   bool Exact) {
  for (int64_t J = 0; J != D.NR; ++J) {
    for (int64_t I = 0; I != D.MR; ++I) {
      float R = Ref[J * D.Ldc + I];
      float G = Got[J * D.Ldc + I];
      bool Ok = Exact ? sameBits(R, G)
                      : std::abs(R - G) <=
                            1e-4 * std::max(1.0, std::abs((double)R));
      if (!Ok)
        return errorf("%s: C[%lld][%lld] = %.9g, want %.9g (%s)", What,
                      static_cast<long long>(J), static_cast<long long>(I), G,
                      R, Exact ? "bitwise" : "tol 1e-4");
    }
    for (int64_t I = D.MR; I != D.Ldc; ++I)
      if (!sameBits(Got[J * D.Ldc + I], D.C0[J * D.Ldc + I]))
        return errorf("%s: slack element C[%lld][%lld] was written", What,
                      static_cast<long long>(J), static_cast<long long>(I));
  }
  return Error::success();
}

/// Labels the executed kernel family: the resolved-scalar case is one shared
/// "c" family regardless of the configured library.
std::string kernelFamily(const ukr::Kernel &K) {
  return K.Style == ukr::FmaStyle::Scalar || !K.Cfg.Isa ? "c"
                                                        : K.Cfg.Isa->name();
}

/// Oracle 3b: the threaded GEMM driver over a problem derived from the
/// sample's tile, against the naive reference, exactly (integer data), at
/// team sizes 1 and 3, which must also agree with each other bitwise.
Error checkDriver(const FuzzSample &S, std::mt19937_64 &Rng) {
  int64_t M = 2 * S.MR + 1;
  int64_t N = 2 * S.NR + 1;
  int64_t K = 2 * S.KC + 1;

  std::uniform_int_distribution<int> Di(-2, 2);
  auto Fill = [&](std::vector<float> &V, size_t Count) {
    V.resize(Count);
    for (float &X : V)
      X = static_cast<float>(Di(Rng));
  };
  std::vector<float> A, B, CInit;
  Fill(A, static_cast<size_t>(M * K));
  Fill(B, static_cast<size_t>(K * N));
  Fill(CInit, static_cast<size_t>(M * N));
  float Alpha = static_cast<float>(Di(Rng));
  float Beta = static_cast<float>(Di(Rng));

  std::vector<float> Ref = CInit;
  gemm::refSgemm(M, N, K, Alpha, A.data(), M, B.data(), K, Beta, Ref.data(),
                 M);

  auto P = std::make_shared<gemm::ExoProvider>(S.MR, S.NR);
  // One monolithic kernel via the scratch-tile edge path: driver checks are
  // rationed for wall time, so don't compile a whole edge family per sample.
  P->setSpecializeEdges(false);
  gemm::EngineConfig Cfg;
  Cfg.Series = gemm::EngineSeries::Custom;
  Cfg.Provider = P;
  Cfg.PackMode = gemm::EdgePack::ZeroPad;

  std::vector<float> C1;
  for (int64_t T : {int64_t(1), int64_t(3)}) {
    Cfg.Threads = T;
    gemm::Engine Eng(Cfg);
    std::vector<float> C = CInit;
    if (Error E = Eng.sgemm(M, N, K, Alpha, A.data(), M, B.data(), K, Beta,
                            C.data(), M))
      return errorf("driver oracle (%lld threads): %s",
                    static_cast<long long>(T), E.message().c_str());
    for (int64_t X = 0; X != M * N; ++X)
      if (!sameValue(C[X], Ref[X]))
        return errorf(
            "driver oracle (%lld threads): C[%lld] = %.9g, ref %.9g",
            static_cast<long long>(T), static_cast<long long>(X), C[X],
            Ref[X]);
    if (T == 1)
      C1 = C;
    else if (std::memcmp(C1.data(), C.data(), C.size() * sizeof(float)) != 0)
      return errorf("driver oracle: %lld-thread result differs from 1-thread",
                    static_cast<long long>(T));
  }
  return Error::success();
}

} // namespace

Error fuzz::runOracles(const FuzzSample &S, const OracleOptions &O,
                       OracleOutcome *Out) {
  OracleOutcome Local;
  OracleOutcome &R = Out ? *Out : Local;
  R = OracleOutcome();

  Expected<AppliedSample> A = applySample(S);
  if (!A) {
    // Inconsistent spec/recipe (e.g. lane style with an indivisible NR):
    // counted, never a failure.
    R.Rejected = true;
    return Error::success();
  }
  R.StepsApplied = static_cast<int>(A->AppliedSteps.size());
  R.StepsSkipped = static_cast<int>(A->SkippedSteps.size());

  std::mt19937_64 Rng(S.Seed * 0x9E3779B97F4A7C15ull + O.InputSeed);
  TileData DI = makeTileData(S, Rng, /*Integer=*/true);
  TileData DF = makeTileData(S, Rng, /*Integer=*/false);

  // --- Oracle 1: interpreter equivalence -------------------------------
  Expected<std::vector<float>> SpecI = interpTile(A->Spec, DI);
  if (!SpecI)
    return errorf("interp oracle: %s", SpecI.message().c_str());
  std::vector<float> SpecC = SpecI.take();
  {
    Expected<std::vector<float>> SchedI = interpTile(A->Scheduled, DI);
    if (!SchedI)
      return errorf("interp oracle: %s", SchedI.message().c_str());
    std::vector<float> SchedC = SchedI.take();
    if (Error E =
            compareTiles("interp oracle", SpecC, SchedC, DI, /*Exact=*/true))
      return E;
    // Random-shape trials on top of the sample's exact shape.
    if (Error E = checkProcsEquivalent(
            A->Spec, A->Scheduled, O.InterpTrials,
            static_cast<unsigned>(S.Seed ^ (O.InputSeed * 2654435761u)) | 1u))
      return errorf("interp oracle (random shapes): %s", E.message().c_str());
  }
  R.InterpChecked = true;

  bool HostRunnable =
      S.Ty == "f32" && (!A->Isa || A->Isa->hostExecutable()) && jitAvailable();

  // --- Oracle 2: JIT through the KernelService / DiskCache path --------
  if (O.CheckJit && HostRunnable) {
    ukr::MicroKernelF32 Fn = nullptr;
    ukr::MicroKernelAxpbyF32 FnAxpby = nullptr;
    JitKernelPtr Keep; // keeps a chain-mode .so alive through the calls
    std::string Family;

    if (S.M == FuzzSample::Mode::Recipe) {
      Expected<ukr::UkrConfig> Cfg =
          detail::sampleUkrConfig(S, S.Isa, S.Style, S.UnrollLoads);
      if (!Cfg)
        return errorf("jit oracle: %s", Cfg.message().c_str());
      Expected<const ukr::Kernel *> K = ukr::KernelService::global().get(*Cfg);
      if (!K) // applySample accepted the recipe, so a build must succeed
        return errorf("jit oracle: kernel build failed: %s",
                      K.message().c_str());
      const ukr::Kernel *KP = K.take();
      Fn = KP->Fn;
      FnAxpby = KP->FnAxpby;
      Family = kernelFamily(*KP);
    } else {
      CodegenOptions CO;
      CO.Isa = A->Isa;
      Expected<std::string> Src = emitCModule(A->Scheduled, CO);
      if (!Src) // an accepted schedule must emit
        return errorf("jit oracle: emission failed: %s",
                      Src.message().c_str());
      std::string Flags = A->Isa ? A->Isa->jitFlags() : "-march=native";
      Expected<JitKernelPtr> J =
          jitCompile(Src.take(), A->Scheduled.name(), Flags);
      if (!J)
        return errorf("jit oracle: compilation failed: %s",
                      J.message().c_str());
      Keep = J.take();
      if (S.GeneralAlphaBeta)
        FnAxpby = Keep->as<ukr::MicroKernelAxpbyF32>();
      else
        Fn = Keep->as<ukr::MicroKernelF32>();
      Family = A->Isa ? A->Isa->name() : "c";
    }

    if (Fn || FnAxpby) {
      std::vector<float> Got =
          FnAxpby ? runKernelAxpby(FnAxpby, DI) : runKernel(Fn, DI);
      if (Error E = compareTiles("jit oracle (integer)", SpecC, Got, DI,
                                 /*Exact=*/true))
        return E;
      Expected<std::vector<float>> SpecF = interpTile(A->Spec, DF);
      if (!SpecF)
        return errorf("jit oracle: %s", SpecF.message().c_str());
      std::vector<float> GotF =
          FnAxpby ? runKernelAxpby(FnAxpby, DF) : runKernel(Fn, DF);
      if (Error E = compareTiles("jit oracle (float)", SpecF.take(), GotF, DF,
                                 /*Exact=*/false))
        return E;
      R.JitChecked = true;
      R.IsasCompared.insert(Family);
    }
  }

  // --- Oracle 3a: cross-library agreement ------------------------------
  if (O.CheckCross && S.Ty == "f32" && jitAvailable()) {
    int Compared = 0;
    for (const char *IsaName : {"none", "portable", "avx2", "avx512"}) {
      Expected<ukr::UkrConfig> Cfg =
          detail::sampleUkrConfig(S, IsaName, "auto", /*UnrollLoads=*/true);
      if (!Cfg)
        continue;
      if (Cfg->Isa && !Cfg->Isa->hostExecutable())
        continue;
      Expected<const ukr::Kernel *> K = ukr::KernelService::global().get(*Cfg);
      if (!K)
        continue; // shape inconsistent for this library: rejected
      const ukr::Kernel *KP = K.take();
      std::vector<float> Got;
      if (S.GeneralAlphaBeta) {
        if (!KP->FnAxpby)
          continue;
        Got = runKernelAxpby(KP->FnAxpby, DI);
      } else {
        if (!KP->Fn)
          continue;
        Got = runKernel(KP->Fn, DI);
      }
      std::string What = "cross oracle (" + kernelFamily(*KP) + ")";
      if (Error E = compareTiles(What.c_str(), SpecC, Got, DI, /*Exact=*/true))
        return E;
      R.IsasCompared.insert(kernelFamily(*KP));
      ++Compared;
    }
    // Every family matched the interpreter bitwise, so pairwise agreement
    // is established once at least two actually ran.
    if (Compared >= 2)
      R.CrossChecked = true;
  }

  // --- Oracle 3b: the threaded driver ----------------------------------
  if (O.CheckDriver && S.Ty == "f32" && jitAvailable()) {
    if (Error E = checkDriver(S, Rng))
      return E;
    R.DriverChecked = true;
  }

  return Error::success();
}
