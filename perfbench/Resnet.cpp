//===- Resnet.cpp - ResNet-50 inference-pass workload ---------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// resnet50: one op is a batch-1 ResNet-50 v1.5 forward pass over the 53
/// convolution instances of the paper's Table I, each lowered by
/// dnn::im2row into one preallocated A and multiplied by Engine::sgemm
/// against weights lowered once by dnn::weightsToMatrix.
///
/// A traced run spends half its time on those passes and half on the same
/// 53-GEMM sequence through Engine::gemm once per low-precision dtype (f16,
/// then bf16, then i8 -> i32), for the per-dtype layer metrics.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Host.h"
#include "Trace.h"
#include "Workload.h"

#include "dnn/Conv.h"
#include "dnn/Models.h"
#include "gemm/DType.h"
#include "gemm/Engine.h"
#include "gemm/RefGemm.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>

using namespace pb;
using gemm::DType;
using gemm::Trans;

namespace {

//===----------------------------------------------------------------------===//
// The network
//===----------------------------------------------------------------------===//

/// Every convolution of ResNet-50 v1.5 in forward order: the 7x7 stem and
/// the four bottleneck stages (v1.5 puts the stride on the 3x3 conv; the
/// first block of each stage adds a strided 1x1 projection shortcut).
std::vector<dnn::ConvParams> resnet50Convs() {
  std::vector<dnn::ConvParams> Convs;
  auto conv = [&](int64_t InC, int64_t OutC, int64_t In, int64_t Kk,
                  int64_t Stride, int64_t Pad) {
    dnn::ConvParams P;
    P.InC = InC;
    P.OutC = OutC;
    P.InH = P.InW = In;
    P.Kh = P.Kw = Kk;
    P.Stride = Stride;
    P.Pad = Pad;
    Convs.push_back(P);
  };
  conv(3, 64, 224, 7, 2, 3);
  struct Stage {
    int64_t Mid, Out, Blocks, Stride;
  };
  const Stage Stages[] = {{64, 256, 3, 1}, {128, 512, 4, 2},
                          {256, 1024, 6, 2}, {512, 2048, 3, 2}};
  int64_t InC = 64, Res = 56; // after the stem's 3x3/2 max pool
  for (const Stage &S : Stages) {
    for (int64_t B = 0; B != S.Blocks; ++B) {
      const int64_t Stride = B == 0 ? S.Stride : 1;
      const int64_t OutRes = Res / Stride;
      conv(InC, S.Mid, Res, 1, 1, 0);
      conv(S.Mid, S.Mid, Res, 3, Stride, 1);
      conv(S.Mid, S.Out, OutRes, 1, 1, 0);
      if (B == 0)
        conv(InC, S.Out, Res, 1, Stride, 0);
      InC = S.Out;
      Res = OutRes;
    }
  }
  return Convs;
}

struct Instance {
  dnn::ConvParams P;
  size_t Row = 0;   ///< index into dnn::resnet50Layers()
  size_t Input = 0; ///< distinct (conv, activation) pair: one A per pair
  int64_t M = 0, N = 0, K = 0;
  size_t COff = 0;  ///< element offset of this instance's C in the pool
};

struct Model {
  std::vector<Instance> Insts;
  std::vector<dnn::ConvParams> Inputs; ///< distinct conv per Input index
  std::vector<std::vector<float>> Acts; ///< HWC activation per Input
  std::vector<std::vector<float>> B;    ///< lowered weights per table row
  size_t MaxA = 0, CElems = 0;
  double Flops = 0;
  double Im2rowBytes = 0; ///< activation read + A written, per pass
  double PackBytes = 0;   ///< A and B read + written once, per pass (f32)
};

/// Gate 1: the conv table reproduces Table I exactly (every row, with its
/// multiplicity, and nothing else). Fills Row/M/N/K on success.
bool mapToTable(std::vector<Instance> &Insts, Result &R) {
  const auto &Rows = dnn::resnet50Layers();
  std::vector<int> Seen(Rows.size(), 0);
  for (Instance &I : Insts) {
    const dnn::LayerGemm G = dnn::im2rowGemm(
        0, I.P.InC, I.P.OutC, I.P.InH, I.P.InW, I.P.Kh, I.P.Kw, I.P.Stride,
        I.P.Pad);
    auto It = std::find_if(Rows.begin(), Rows.end(), [&](const auto &L) {
      return L.M == G.M && L.N == G.N && L.K == G.K;
    });
    if (It == Rows.end()) {
      R.gateFail("conv %lldx%lld/%lld on %lldx%lldx%lld maps to no Table I "
                 "row",
                 (long long)I.P.Kh, (long long)I.P.Kw, (long long)I.P.Stride,
                 (long long)I.P.InH, (long long)I.P.InW, (long long)I.P.InC);
      return false;
    }
    I.Row = static_cast<size_t>(It - Rows.begin());
    I.M = G.M;
    I.N = G.N;
    I.K = G.K;
    ++Seen[I.Row];
  }
  for (size_t Row = 0; Row != Rows.size(); ++Row)
    if (Seen[Row] != Rows[Row].Count) {
      R.gateFail("Table I row %d: %d conv instances, table says %d",
                 Rows[Row].Id, Seen[Row], Rows[Row].Count);
      return false;
    }
  return true;
}

bool buildModel(uint64_t Seed, Model &Mdl, Result &R) {
  for (const dnn::ConvParams &P : resnet50Convs())
    Mdl.Insts.push_back({P});
  if (!mapToTable(Mdl.Insts, R))
    return false;
  R.note("gate_table", "\"ok: 53 convs reproduce the 20 Table I rows\"");

  Rng Gen(Seed);
  // One seeded activation per distinct conv: instances of the same conv
  // on the same input resolution share it (and, for the typed passes,
  // their lowered A).
  std::map<std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, int64_t>,
           size_t>
      InputOf;
  for (Instance &I : Mdl.Insts) {
    auto Key = std::make_tuple(I.P.InC, I.P.OutC, I.P.InH, I.P.Kh, I.P.Stride,
                               I.P.Pad);
    auto [It, New] = InputOf.emplace(Key, Mdl.Inputs.size());
    if (New) {
      Mdl.Inputs.push_back(I.P);
      Mdl.Acts.emplace_back(static_cast<size_t>(I.P.InH * I.P.InW * I.P.InC));
      fillSym(Mdl.Acts.back(), Gen);
    }
    I.Input = It->second;
    I.COff = Mdl.CElems;
    Mdl.CElems += static_cast<size_t>(I.M * I.N);
    Mdl.MaxA = std::max(Mdl.MaxA, static_cast<size_t>(I.M * I.K));
    Mdl.Flops += 2.0 * I.M * I.N * I.K;
    Mdl.Im2rowBytes += 4.0 * (I.M * I.K + I.P.InH * I.P.InW * I.P.InC);
    Mdl.PackBytes += 2.0 * 4.0 * (I.M * I.K + I.K * I.N);
  }
  const auto &Rows = dnn::resnet50Layers();
  Mdl.B.resize(Rows.size());
  for (size_t Row = 0; Row != Rows.size(); ++Row) {
    const Instance &I = *std::find_if(
        Mdl.Insts.begin(), Mdl.Insts.end(),
        [&](const Instance &X) { return X.Row == Row; });
    std::vector<float> W(static_cast<size_t>(I.P.Kh * I.P.Kw * I.P.InC *
                                             I.P.OutC));
    fillSym(W, Gen);
    Mdl.B[Row].resize(static_cast<size_t>(I.K * I.N));
    dnn::weightsToMatrix(I.P, W.data(), Mdl.B[Row].data());
  }
  return true;
}

/// The (m, n, k) of every table row, f32 first: what set-up warms.
std::vector<Shape> tableShapes() {
  std::vector<Shape> S;
  for (const dnn::LayerGemm &L : dnn::resnet50Layers())
    S.push_back({L.M, L.N, L.K});
  return S;
}

/// The table row with the most flops per pass: whose plan's main kernel
/// is the ceiling the pass is stated against.
Shape heaviestRow() {
  const dnn::LayerGemm *Best = nullptr;
  for (const dnn::LayerGemm &L : dnn::resnet50Layers())
    if (!Best || L.flops() * L.Count > Best->flops() * Best->Count)
      Best = &L;
  return {Best->M, Best->N, Best->K};
}

/// Rows checked per instance by the slice gates: first, last, two seeded.
std::vector<int64_t> gateRows(int64_t M, Rng &Gen) {
  std::vector<int64_t> Rows = {0, M - 1, static_cast<int64_t>(Gen.below(M)),
                               static_cast<int64_t>(Gen.below(M))};
  std::sort(Rows.begin(), Rows.end());
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
  return Rows;
}

/// Gate: one f32 C row against refSgemm. The bound is the forward error
/// of K-term f32 summation, 2*K*u*sum|a*b| (u = 2^-24), so any blocking
/// or FMA order passes while a wrong operand, offset or kernel does not.
bool checkF32Row(const Instance &I, const float *A, const float *B,
                 const float *C, int64_t Row) {
  std::vector<float> Ref(static_cast<size_t>(I.N));
  gemm::refSgemm(1, I.N, I.K, 1.0f, A + Row, I.M, B, I.K, 0.0f, Ref.data(), 1);
  for (int64_t J = 0; J != I.N; ++J) {
    double Abs = 0;
    for (int64_t Kk = 0; Kk != I.K; ++Kk)
      Abs += std::fabs(static_cast<double>(A[Row + Kk * I.M]) *
                       B[Kk + J * I.K]);
    const double Tol = 2.0 * I.K * 0x1p-24 * Abs + 1e-6;
    if (std::fabs(static_cast<double>(C[Row + J * I.M]) - Ref[J]) > Tol)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Shared op loop
//===----------------------------------------------------------------------===//

/// What one op reports: whether its output checked out, and the seconds
/// spent in the pass itself (output clearing and checksums excluded).
struct OpTime {
  bool Ok;
  double Secs;
};

/// Closed-loop timing shared by the f32 and typed passes: runs \p Op until
/// the next op would overrun the time budget, alternating traced and
/// untraced ops in a traced run.
template <typename OpFn>
OpLog timeOps(const Options &O, Result &R, OpFn &&Op) {
  OpLog Log;
  const auto T0 = Clock::now();
  for (uint64_t N = 0;; ++N) {
    const bool Traced = O.Trace && (N % 2 == 1);
    const auto S = Clock::now();
    obs::setEnabled(Traced);
    const OpTime T = Op(N + 1, Traced);
    obs::setEnabled(false);
    ++R.Attempted;
    if (!T.Ok)
      ++R.Failed;
    (Traced ? Log.Traced : Log.Untraced).push_back(T.Secs);
    const size_t MinOps = O.Trace ? 2 : 1;
    if (N + 1 >= MinOps && secondsSince(T0) + secondsSince(S) > O.Seconds)
      break;
  }
  Log.Wall = secondsSince(T0);
  return Log;
}

//===----------------------------------------------------------------------===//
// Low-precision passes (traced runs)
//===----------------------------------------------------------------------===//

constexpr DType LowpTypes[] = {DType::F16, DType::BF16, DType::I8I32};
const char *const LowpSpan[] = {"engine.gemm.f16", "engine.gemm.bf16",
                                "engine.gemm.i8"};
const char *const LowpSuffix[] = {".f16", ".bf16", ".i8"};

/// Converts (halves) or symmetric-per-tensor quantizes (i8) \p V into
/// storage of \p Ty.
std::vector<uint8_t> toStorage(DType Ty, const std::vector<float> &V) {
  std::vector<uint8_t> Out(V.size() * gemm::dtypeInBytes(Ty));
  if (Ty == DType::I8I32) {
    float Max = 0;
    for (float X : V)
      Max = std::max(Max, std::fabs(X));
    const float S = Max > 0 ? Max / 127.0f : 1.0f;
    for (size_t I = 0; I != V.size(); ++I)
      Out[I] = static_cast<uint8_t>(static_cast<int8_t>(
          std::clamp(std::lround(V[I] / S), -127l, 127l)));
    return Out;
  }
  uint16_t *H = reinterpret_cast<uint16_t *>(Out.data());
  for (size_t I = 0; I != V.size(); ++I)
    H[I] = Ty == DType::F16 ? gemm::f32ToF16(V[I]) : gemm::f32ToBf16(V[I]);
  return Out;
}

float loadF(DType Ty, const void *P, int64_t Idx) {
  const uint16_t H = static_cast<const uint16_t *>(P)[Idx];
  return Ty == DType::F16 ? gemm::f16ToF32(H) : gemm::bf16ToF32(H);
}

/// Gate: one contiguous row slice of a typed C against refGemmT. i8 must
/// match bitwise. The halves round C to storage once per Kc depth block
/// where the oracle rounds once, so they are held to a storage-ULP bound
/// that grows with the number of roundings: (2 + 2*sqrt(K/64)) ULPs of the
/// largest prefix sum (independent roundings add like a random walk).
bool checkTypedSlice(DType Ty, const Instance &I, const uint8_t *A,
                     const uint8_t *B, const uint8_t *C, int64_t Row0,
                     int64_t Rows) {
  const unsigned InB = gemm::dtypeInBytes(Ty), OutB = gemm::dtypeOutBytes(Ty);
  std::vector<uint8_t> Ref(static_cast<size_t>(Rows * I.N) * OutB);
  gemm::refGemmT(Ty, Trans::None, Trans::None, Rows, I.N, I.K, 1.0,
                 A + Row0 * InB, I.M, B, I.K, 0.0, Ref.data(), Rows);
  for (int64_t J = 0; J != I.N; ++J) {
    const uint8_t *Got = C + (Row0 + J * I.M) * OutB;
    const uint8_t *Want = Ref.data() + J * Rows * OutB;
    if (Ty == DType::I8I32) {
      if (std::memcmp(Got, Want, Rows * OutB))
        return false;
      continue;
    }
    const double Eps = Ty == DType::F16 ? 0x1p-10 : 0x1p-7;
    for (int64_t R = 0; R != Rows; ++R) {
      double Prefix = 0, MaxPrefix = 0;
      for (int64_t Kk = 0; Kk != I.K; ++Kk) {
        Prefix += static_cast<double>(loadF(Ty, A, Row0 + R + Kk * I.M)) *
                  loadF(Ty, B, Kk + J * I.K);
        MaxPrefix = std::max(MaxPrefix, std::fabs(Prefix));
      }
      const double Tol =
          (2.0 + 2.0 * std::sqrt(I.K / 64.0)) * Eps * (1.0 + MaxPrefix);
      if (std::fabs(loadF(Ty, Got, R) - loadF(Ty, Want, R)) > Tol)
        return false;
    }
  }
  return true;
}

/// The low-precision passes a traced run adds: the same 53 GEMMs through
/// Engine::gemm once per dtype (f16, bf16, i8 -> i32), operands
/// im2row-lowered and converted or quantized once, before timing.
class LowpPasses {
public:
  /// Lowers and converts the operands, warms the typed plans and runs the
  /// gate pass of every dtype. False when a gate failed.
  bool prepare(const Model &M, gemm::Engine &E, uint64_t Seed, Result &R);
  /// One f16 + bf16 + i8 triple; a check failure makes it a failed op.
  OpTime triple(uint64_t Op, bool Traced);

  std::vector<double> PerType[3]; ///< untraced single-dtype pass times

private:
  bool pass(int T, uint64_t Op);
  size_t passBytes(int T) const {
    return Mdl->CElems * gemm::dtypeOutBytes(LowpTypes[T]);
  }

  const Model *Mdl = nullptr;
  gemm::Engine *Eng = nullptr;
  std::vector<std::vector<uint8_t>> A[3], B[3];
  std::vector<uint8_t> C; ///< one pool for every dtype (i32 is widest)
  uint64_t Sum0[3] = {};
};

bool LowpPasses::prepare(const Model &M, gemm::Engine &E, uint64_t Seed,
                         Result &R) {
  Mdl = &M;
  Eng = &E;
  std::vector<float> Af;
  for (size_t In = 0; In != M.Inputs.size(); ++In) {
    const dnn::ConvParams &P = M.Inputs[In];
    Af.resize(static_cast<size_t>(P.gemmM() * P.gemmK()));
    dnn::im2row(P, M.Acts[In].data(), Af.data());
    for (int T = 0; T != 3; ++T)
      A[T].push_back(toStorage(LowpTypes[T], Af));
  }
  for (const std::vector<float> &W : M.B)
    for (int T = 0; T != 3; ++T)
      B[T].push_back(toStorage(LowpTypes[T], W));
  C.resize(M.CElems * sizeof(int32_t));
  for (DType Ty : LowpTypes)
    for (const dnn::LayerGemm &L : dnn::resnet50Layers())
      if (exo::Error Err = E.warm(Ty, Trans::None, Trans::None, L.M, L.N, L.K)) {
        R.gateFail("warm %s: %s", gemm::dtypeName(Ty), Err.message().c_str());
        return false;
      }

  // Gate pass per dtype (untimed): row slices against refGemmT, then the
  // checksum every timed pass of that dtype must reproduce.
  Rng GateGen(Seed ^ 0x10e9);
  for (int T = 0; T != 3; ++T) {
    const DType Ty = LowpTypes[T];
    if (!pass(T, 0)) {
      R.gateFail("%s gate pass failed", gemm::dtypeName(Ty));
      return false;
    }
    const unsigned OutB = gemm::dtypeOutBytes(Ty);
    for (const Instance &I : M.Insts) {
      const int64_t Rows = 2;
      for (int64_t Row0 :
           {int64_t{0}, static_cast<int64_t>(GateGen.below(I.M - Rows + 1))})
        if (!checkTypedSlice(Ty, I, A[T][I.Input].data(), B[T][I.Row].data(),
                             C.data() + I.COff * OutB, Row0, Rows)) {
          R.gateFail("%s %lldx%lldx%lld rows %lld+%lld differ from refGemmT",
                     gemm::dtypeName(Ty), (long long)I.M, (long long)I.N,
                     (long long)I.K, (long long)Row0, (long long)Rows);
          return false;
        }
    }
    Sum0[T] = checksum(C.data(), passBytes(T));
  }
  R.note("gate_lowp_slices", "\"ok: i8 bitwise, f16/bf16 ULP-bounded\"");
  return true;
}

bool LowpPasses::pass(int T, uint64_t Op) {
  const DType Ty = LowpTypes[T];
  const unsigned OutB = gemm::dtypeOutBytes(Ty);
  trace::Span Root("pass", Op);
  for (const Instance &I : Mdl->Insts) {
    trace::Span S(LowpSpan[T]);
    if (exo::Error E = Eng->gemm(Ty, Trans::None, Trans::None, I.M, I.N, I.K,
                                 1.0, A[T][I.Input].data(), I.M,
                                 B[T][I.Row].data(), I.K, 0.0,
                                 C.data() + I.COff * OutB, I.M)) {
      std::fprintf(stderr, "perfbench: %s gemm %lldx%lldx%lld: %s\n",
                   gemm::dtypeName(Ty), (long long)I.M, (long long)I.N,
                   (long long)I.K, E.message().c_str());
      return false;
    }
  }
  return true;
}

OpTime LowpPasses::triple(uint64_t Op, bool Traced) {
  OpTime Triple{true, 0};
  for (int T = 0; T != 3; ++T) {
    std::fill(C.begin(), C.begin() + passBytes(T), 0);
    const auto S = Clock::now();
    Triple.Ok &= pass(T, Op);
    const double Secs = secondsSince(S);
    Triple.Secs += Secs;
    if (!Traced)
      PerType[T].push_back(Secs);
    Triple.Ok &= checksum(C.data(), passBytes(T)) == Sum0[T];
  }
  return Triple;
}

} // namespace

//===----------------------------------------------------------------------===//
// resnet50
//===----------------------------------------------------------------------===//

int pb::runResnet(const Options &O, Result &R) {
  const std::vector<Shape> Shapes = tableShapes();
  if (O.SetupOnly) {
    std::unique_ptr<gemm::Engine> Eng;
    return timedSetup(R, Shapes, {DType::F32}, Eng) ? 0 : 1;
  }
  Model Mdl;
  if (!buildModel(O.Seed, Mdl, R))
    return 0;
  std::vector<float> A(Mdl.MaxA), C(Mdl.CElems);

  std::unique_ptr<gemm::Engine> Eng;
  if (!timedSetup(R, Shapes, {DType::F32}, Eng))
    return 1;
  notePlans(*Eng, Shapes, R);
  // A traced run also times the low-precision passes: their run-to-run
  // spread on a contended host is too wide to gate on, but their layers
  // are what typed-kernel work moves.
  std::unique_ptr<LowpPasses> Low;
  if (O.Trace) {
    Low = std::make_unique<LowpPasses>();
    if (!Low->prepare(Mdl, *Eng, O.Seed, R))
      return 0;
  }
  Probes P;
  if (!P.start(*Eng, heaviestRow(), O.Trace, R))
    return 1;

  // One pass; with \p Gate, every instance's row slices are checked
  // against refSgemm right after its GEMM, while A still holds its im2row.
  auto pass = [&](uint64_t Op, Rng *Gate) {
    trace::Span Root("pass", Op);
    for (const Instance &I : Mdl.Insts) {
      {
        trace::Span S("dnn.im2row");
        dnn::im2row(I.P, Mdl.Acts[I.Input].data(), A.data());
      }
      {
        trace::Span S("engine.sgemm");
        if (exo::Error E = Eng->sgemm(I.M, I.N, I.K, 1.0f, A.data(), I.M,
                                      Mdl.B[I.Row].data(), I.K, 0.0f,
                                      C.data() + I.COff, I.M)) {
          std::fprintf(stderr, "perfbench: sgemm %lldx%lldx%lld: %s\n",
                       (long long)I.M, (long long)I.N, (long long)I.K,
                       E.message().c_str());
          return false;
        }
      }
      if (Gate)
        for (int64_t Row : gateRows(I.M, *Gate))
          if (!checkF32Row(I, A.data(), Mdl.B[I.Row].data(),
                           C.data() + I.COff, Row)) {
            R.gateFail("f32 %lldx%lldx%lld row %lld differs from refSgemm",
                       (long long)I.M, (long long)I.N, (long long)I.K,
                       (long long)Row);
            return false;
          }
    }
    return true;
  };

  // Gate pass (untimed), then the checksum every timed pass must reproduce.
  Rng GateGen(O.Seed ^ 0x6a7e);
  if (!pass(0, &GateGen))
    return 0;
  R.note("gate_f32_slices", "\"ok\"");
  const uint64_t Sum0 = checksum(C.data(), C.size() * sizeof(float));

  // A traced run splits its time between the f32 and the typed passes.
  Options Part = O;
  if (Low)
    Part.Seconds = O.Seconds / 2;
  const gemm::EngineStats S0 = Eng->stats();
  OpLog Log = timeOps(Part, R, [&](uint64_t Op, bool) {
    std::fill(C.begin(), C.end(), 0.0f);
    const auto S = Clock::now();
    const bool Ok = pass(Op, nullptr);
    const double Secs = secondsSince(S);
    return OpTime{Ok && checksum(C.data(), C.size() * sizeof(float)) == Sum0,
                  Secs};
  });
  OpLog LowLog;
  if (Low)
    LowLog = timeOps(Part, R, [&](uint64_t Op, bool Traced) {
      return Low->triple(Op + (uint64_t{1} << 32), Traced);
    });
  const gemm::EngineStats S1 = Eng->stats();
  P.finish(R);

  // ~100 passes per run: p90 has about ten samples beyond it.
  reportOps(Log, R, "pass", 0.9);
  if (!O.Trace)
    return 0;
  const trace::Summary Sum = trace::analyze();
  const double Ops = static_cast<double>(Log.Traced.size());
  const double Im2rowS = Sum["dnn.im2row"].SelfNs * 1e-9 / Ops;
  R.add("dnn.im2row_ms", "ms", Im2rowS * 1e3, Log.Traced.size());
  R.add("dnn.im2row_gbps", "GB/s", Mdl.Im2rowBytes / Im2rowS * 1e-9,
        Log.Traced.size());
  reportGemmStages(Sum, "engine.sgemm", true, "", Mdl.Flops, Mdl.PackBytes, Ops,
                   P, R);
  const double LowOps = static_cast<double>(LowLog.Traced.size());
  for (int T = 0; T != 3; ++T) {
    R.add(std::string("pass_ms") + LowpSuffix[T], "ms",
          median(Low->PerType[T]) * 1e3, Low->PerType[T].size());
    reportGemmStages(Sum, LowpSpan[T], true, LowpSuffix[T], Mdl.Flops, 0,
                     LowOps, P, R);
  }
  reportPlanStats(S0, S1, R);
  reportTraceCommon(Log, Sum, R);
  writeSpanFile(O, Sum);
  return 0;
}
