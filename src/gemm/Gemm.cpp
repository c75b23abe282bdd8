//===- Gemm.cpp -----------------------------------------------------------===//

#include "gemm/Gemm.h"

#include "gemm/ThreadPool.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

using namespace exo;
using namespace gemm;

EdgePack gemm::preferredEdgePack(KernelProvider &P) {
  // This only picks the *preferred* mode; a provider whose edge family
  // turns out to be partial at run time degrades per strip to a zero-padded
  // panel and the scratch tile instead of failing (see F32Panels).
  return P.specializesEdges() ? EdgePack::Tight : EdgePack::ZeroPad;
}

detail::GemmGeometry detail::deriveGeometry(const MicroKernel &Main,
                                            EdgePack PackMode,
                                            const BlockSizes &Blocks,
                                            int64_t Threads, int64_t M,
                                            int64_t N, int64_t K) {
  GemmGeometry G;
  G.Main = Main;
  G.PackMode = PackMode;
  G.Mr = Main.MR;
  G.Nr = Main.NR;
  // Clamp blocks to the problem so pack buffers stay proportionate.
  auto RoundUp = [](int64_t V, int64_t Q) { return ((V + Q - 1) / Q) * Q; };
  G.Mc = std::min(std::max<int64_t>(Blocks.MC, G.Mr), RoundUp(M, G.Mr));
  G.Kc = std::min(std::max<int64_t>(Blocks.KC, 1), std::max<int64_t>(K, 1));
  G.Nc = std::min(std::max<int64_t>(Blocks.NC, G.Nr), RoundUp(N, G.Nr));

  // Team size and its BLIS-style 2D factorization: loop 3 (ic blocks) is
  // the primary axis; when there are fewer ic blocks than threads, the
  // remainder parallelizes loop 4 (jr strips) within each ic team. Tic is
  // the largest divisor of T fitting the ic block count, so every thread
  // lands in the grid.
  G.NIc = (M + G.Mc - 1) / G.Mc;
  const int64_t NPanMax = (std::min(G.Nc, N) + G.Nr - 1) / G.Nr;
  G.T = std::max<int64_t>(
      1, std::min(resolveGemmThreads(Threads), G.NIc * NPanMax));
  factorizeTeam(G);
  return G;
}

void detail::factorizeTeam(GemmGeometry &G) {
  G.Tic = 1;
  for (int64_t D = 1; D <= G.T; ++D)
    if (G.T % D == 0 && D <= G.NIc)
      G.Tic = D;
  G.Tjr = G.T / G.Tic;
}

detail::GemmGeometry detail::reteamGeometry(const GemmGeometry &G,
                                            int64_t Width) {
  GemmGeometry G2 = G;
  G2.T = std::max<int64_t>(1, std::min(Width, G.T));
  factorizeTeam(G2);
  return G2;
}

void detail::resolveEdgeKernels(
    KernelProvider &Provider, GemmGeometry &G, int64_t N,
    std::vector<std::optional<MicroKernel>> &Storage) {
  // Resolve every strip kernel up front, on the calling thread: the worker
  // team must never call into the provider (whose kernel cache may invoke
  // the JIT), and a fixed kernel per width keeps one GEMM call bitwise
  // invariant under the thread count. A width whose specialized kernel is
  // unavailable (a partial edge family, or a failed build) stays nullopt
  // and takes the zero-padded scratch path.
  Storage.assign(static_cast<size_t>(G.Nr), std::nullopt);
  if (G.PackMode == EdgePack::Tight) {
    std::vector<bool> Probed(G.Nr, false);
    for (int64_t Jc = 0; Jc < N; Jc += G.Nc) {
      int64_t W = std::min(G.Nc, N - Jc) % G.Nr;
      if (W == 0 || Probed[W])
        continue;
      Probed[W] = true;
      std::optional<MicroKernel> E = Provider.edge(G.Mr, W);
      if (E && E->Fn)
        Storage[W] = *E;
    }
  }
  G.EdgeKernels = Storage.data();
}

namespace {

//===----------------------------------------------------------------------===//
// Panel policies
//===----------------------------------------------------------------------===//
//
// Everything the five-loop nest below does differently per dtype, fixed at
// compile time: the element types, the packed panel depth, packA / packB,
// the tile (micro-kernel plus copy-out into C) and beta in storage type.
// The nest owns the loops, the team grid, the barriers and the obs spans,
// so every dtype inherits the same bitwise thread-count invariance.

/// f32: the plan's kernels over f32 panels, alpha folded into packA. Full
/// tiles and Tight-mode strips with a specialized edge kernel write C
/// directly; every other edge runs through the zero-initialized scratch
/// tile and accumulates its valid window back.
struct F32Panels {
  using In = float;     ///< A/B storage element
  using Out = float;    ///< C storage element
  using Packed = float; ///< panel element
  using Acc = float;    ///< scratch-tile element

  static int64_t depth(int64_t Kc) { return Kc; }
  static bool betaIsOne(const detail::GemmCall &Cl) { return Cl.Beta == 1.0f; }
  static void scale(float *Col, int64_t Len, const detail::GemmCall &Cl) {
    // Beta == 0 must *overwrite*, not scale: 0 * NaN == NaN, and serving
    // workloads hand in pooled, uninitialized C buffers (the classic BLAS
    // beta-zero rule).
    if (Cl.Beta == 0.0f)
      std::fill(Col, Col + Len, 0.0f);
    else
      for (int64_t I = 0; I < Len; ++I)
        Col[I] *= Cl.Beta;
  }
  static void packA(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
                    const float *Src, int64_t RS, int64_t CS, int64_t Mc,
                    int64_t Kc, float *Dst) {
    // A panels are always zero-padded to the full Mr: edge kernels keep
    // the full vector width along m and the copy-out is masked instead
    // (rows >= mr_eff contribute zeros).
    packPanels(DType::F32, Src, RS, CS, Mc, Kc, G.Mr, Cl.Alpha,
               EdgePack::ZeroPad, Dst);
  }
  static void packB(const detail::GemmGeometry &G, const float *Src,
                    int64_t RS, int64_t CS, int64_t Kc, int64_t W,
                    float *Dst) {
    // A Tight-mode strip whose width has no specialized kernel packs
    // zero-padded and runs the main kernel through the scratch tile — a
    // partial edge family degrades instead of failing. Only the last panel
    // can be partial, and its slot holds Kc * Nr elements either way.
    EdgePack Mode = G.PackMode;
    if (Mode == EdgePack::Tight && W < G.Nr && !G.EdgeKernels[W])
      Mode = EdgePack::ZeroPad;
    packPanels(DType::F32, Src, CS, RS, W, Kc, G.Nr, /*Alpha=*/1.0f, Mode,
               Dst);
  }
  static void tile(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
                   int64_t Kc, int64_t MrEff, int64_t NrEff, const float *Ap,
                   const float *Bp, float *CTile, float *Scratch) {
    const MicroKernel *Kern = &G.Main;
    const bool Edge = NrEff < G.Nr && G.PackMode == EdgePack::Tight &&
                      G.EdgeKernels[NrEff];
    if (Edge)
      Kern = &*G.EdgeKernels[NrEff];
    if (MrEff == G.Mr && (NrEff == G.Nr || Edge)) {
      // Full tile, or a specialized kernel at full vector width along m
      // and the exact nr_eff along n (tight B panel).
      Kern->Fn(Kc, Cl.Ldc, Ap, Bp, CTile);
      return;
    }
    std::fill(Scratch, Scratch + G.Mr * G.Nr, 0.0f);
    Kern->Fn(Kc, G.Mr, Ap, Bp, Scratch);
    addTile(DType::F32, Scratch, G.Mr, MrEff, NrEff, CTile, Cl.Ldc);
  }
};

/// f16 / bf16: the plan's f32 main kernel over convert-packed f32 panels
/// (alpha applied in f32 at packA), beta applied in f32 and rounded back.
template <DType Ty> struct HalfPanels {
  using In = uint16_t;
  using Out = uint16_t;
  using Packed = float;
  using Acc = float;

  static float load(uint16_t H) {
    return Ty == DType::BF16 ? bf16ToF32(H) : f16ToF32(H);
  }
  static uint16_t store(float F) {
    return Ty == DType::BF16 ? f32ToBf16(F) : f32ToF16(F);
  }

  static int64_t depth(int64_t Kc) { return Kc; }
  static bool betaIsOne(const detail::GemmCall &Cl) { return Cl.Beta == 1.0f; }
  static void scale(uint16_t *Col, int64_t Len, const detail::GemmCall &Cl) {
    if (Cl.Beta == 0.0f)
      std::fill(Col, Col + Len, uint16_t(0));
    else
      for (int64_t I = 0; I < Len; ++I)
        Col[I] = store(load(Col[I]) * Cl.Beta);
  }
  static void packA(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
                    const uint16_t *Src, int64_t RS, int64_t CS, int64_t Mc,
                    int64_t Kc, float *Dst) {
    packPanels(Ty, Src, RS, CS, Mc, Kc, G.Mr, Cl.Alpha, EdgePack::ZeroPad,
               Dst);
  }
  static void packB(const detail::GemmGeometry &G, const uint16_t *Src,
                    int64_t RS, int64_t CS, int64_t Kc, int64_t W,
                    float *Dst) {
    packPanels(Ty, Src, CS, RS, W, Kc, G.Nr, /*Alpha=*/1.0f,
               EdgePack::ZeroPad, Dst);
  }
  static void tile(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
                   int64_t Kc, int64_t MrEff, int64_t NrEff, const float *Ap,
                   const float *Bp, uint16_t *CTile, float *Scratch) {
    // Always the scratch tile: the f32 kernel computes the block's
    // contribution, and the C update (read storage, accumulate in f32,
    // round to storage) happens exactly once per Kc block — the documented
    // rounding contract.
    std::fill(Scratch, Scratch + G.Mr * G.Nr, 0.0f);
    G.Main.Fn(Kc, G.Mr, Ap, Bp, Scratch);
    addTile(Ty, Scratch, G.Mr, MrEff, NrEff, CTile, Cl.Ldc);
  }
};

/// Wrapping i32 scale used by the i8 policy's alpha/beta application.
inline int32_t mulWrapI32(int32_t V, int64_t S) {
  return int32_t(uint32_t(uint64_t(int64_t(V) * S)));
}

/// The K-grouped scalar dot micro-kernel (the portable stand-in for
/// sdot/VNNI): Scratch[j*Mr + i] += sum over (g, kk) of
/// Ac[g][i][kk] * Bc[g][j][kk], panels in the packAI8Strided layout.
/// Accumulation is two's-complement i32; the uint32_t detour keeps the
/// wraparound defined. The group's dot is written out rather than looped:
/// a 4-trip inner loop stays a loop at -O2, and its per-step branch made
/// the kernel's speed swing by a third with code placement. Kept out of
/// line: inlined into the loop nest, the dot loses its registers to the
/// nest's live values and spills on every k step.
[[gnu::noinline]] void i8DotTile(int64_t KGroups, int64_t Mr, int64_t Nr,
                                 const int8_t *Ac, const int8_t *Bc,
                                 int32_t *Scratch) {
  static_assert(I8KGroup == 4, "the dot below spells out one k group");
  for (int64_t G = 0; G < KGroups; ++G) {
    const int8_t *Ag = Ac + G * Mr * I8KGroup;
    const int8_t *Bg = Bc + G * Nr * I8KGroup;
    for (int64_t J = 0; J < Nr; ++J) {
      const int8_t *Bq = Bg + J * I8KGroup;
      for (int64_t I = 0; I < Mr; ++I) {
        const int8_t *Aq = Ag + I * I8KGroup;
        const int32_t Dot = int32_t(Aq[0]) * Bq[0] + int32_t(Aq[1]) * Bq[1] +
                            int32_t(Aq[2]) * Bq[2] + int32_t(Aq[3]) * Bq[3];
        uint32_t Acc = uint32_t(Scratch[J * Mr + I]) + uint32_t(Dot);
        Scratch[J * Mr + I] = int32_t(Acc);
      }
    }
  }
}

/// i8 -> i32: K-grouped byte panels (depth rounded up to whole groups, the
/// pack zero-fills the remainder), the scalar dot into an i32 scratch tile,
/// and alpha/beta as exact integers with two's-complement wraparound.
struct I8Panels {
  using In = int8_t;
  using Out = int32_t;
  using Packed = int8_t;
  using Acc = int32_t;

  static int64_t depth(int64_t Kc) {
    return (Kc + I8KGroup - 1) / I8KGroup * I8KGroup;
  }
  static bool betaIsOne(const detail::GemmCall &Cl) { return Cl.BetaI == 1; }
  static void scale(int32_t *Col, int64_t Len, const detail::GemmCall &Cl) {
    if (Cl.BetaI == 0)
      std::fill(Col, Col + Len, 0);
    else
      for (int64_t I = 0; I < Len; ++I)
        Col[I] = mulWrapI32(Col[I], Cl.BetaI);
  }
  static void packA(const detail::GemmGeometry &G, const detail::GemmCall &,
                    const int8_t *Src, int64_t RS, int64_t CS, int64_t Mc,
                    int64_t Kc, int8_t *Dst) {
    // No alpha: integer scaling happens exactly at copy-out.
    packAI8Strided(Src, RS, CS, Mc, Kc, G.Mr, Dst);
  }
  static void packB(const detail::GemmGeometry &G, const int8_t *Src,
                    int64_t RS, int64_t CS, int64_t Kc, int64_t W,
                    int8_t *Dst) {
    packBI8Strided(Src, RS, CS, Kc, W, G.Nr, Dst);
  }
  static void tile(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
                   int64_t Kc, int64_t MrEff, int64_t NrEff, const int8_t *Ap,
                   const int8_t *Bp, int32_t *CTile, int32_t *Scratch) {
    const int64_t Mr = G.Mr, Ldc = Cl.Ldc, AlphaI = Cl.AlphaI;
    std::fill(Scratch, Scratch + Mr * G.Nr, 0);
    i8DotTile(depth(Kc) / I8KGroup, Mr, G.Nr, Ap, Bp, Scratch);
    for (int64_t J = 0; J < NrEff; ++J)
      for (int64_t I = 0; I < MrEff; ++I) {
        int32_t &V = CTile[I + J * Ldc];
        V = int32_t(uint32_t(V) +
                    uint32_t(mulWrapI32(Scratch[J * Mr + I], AlphaI)));
      }
  }
};

/// Calls \p F with the panel policy of \p Ty — the one place a dtype is
/// switched on, once per call and never inside the loops.
template <class Fn> void withPanels(DType Ty, Fn &&F) {
  switch (Ty) {
  case DType::F32:
    return F(F32Panels{});
  case DType::F16:
    return F(HalfPanels<DType::F16>{});
  case DType::BF16:
    return F(HalfPanels<DType::BF16>{});
  case DType::I8I32:
    return F(I8Panels{});
  }
}

//===----------------------------------------------------------------------===//
// The five-loop nest
//===----------------------------------------------------------------------===//

/// Per-run context handed to the raw ThreadPool callback: pointers only,
/// so dispatching a team performs no allocation.
struct TeamJob {
  const detail::GemmGeometry *G;
  const detail::GemmCall *Calls; ///< the run (executeGemm's contract)
  int64_t NCalls;
  detail::GemmWorkspace *WS;
  TeamBarrier *Bar;
};

template <class Policy> void runTeamMember(void *Ctx, int64_t Tid) {
  using Packed = typename Policy::Packed;
  using In = typename Policy::In;
  using Out = typename Policy::Out;
  const TeamJob &Job = *static_cast<TeamJob *>(Ctx);
  const detail::GemmGeometry &G = *Job.G;
  const detail::GemmCall *Calls = Job.Calls;
  const int64_t NCalls = Job.NCalls;
  detail::GemmWorkspace &WS = *Job.WS;
  const int64_t Mr = G.Mr, Nr = G.Nr, Mc = G.Mc, Kc = G.Kc, Nc = G.Nc;
  const int64_t NIc = G.NIc, T = G.T, Tic = G.Tic, Tjr = G.Tjr;
  // Every call of the run shares the shape, B, Ldb and TB.
  const detail::GemmCall &Cl0 = Calls[0];
  const int64_t M = Cl0.M, N = Cl0.N, K = Cl0.K;
  const auto *B = static_cast<const In *>(Cl0.B);
  // Transposition swaps the element strides: element (i, k) of op(A) is
  // A[i*ARS + k*ACS] and (k, j) of op(B) is B[k*BRS + j*BCS].
  const int64_t BRS = Cl0.TB == Trans::None ? 1 : Cl0.Ldb;
  const int64_t BCS = Cl0.TB == Trans::None ? Cl0.Ldb : 1;
  bool AnyBeta = false;
  for (int64_t X = 0; X < NCalls; ++X)
    AnyBeta |= !Policy::betaIsOne(Calls[X]);

  // Grid position: ic team owns row blocks BIdx % Tic == IcTeam; within
  // a team, jr strips (and pre-scale columns) split by JrIdx.
  const int64_t IcTeam = Tid / Tjr, JrIdx = Tid % Tjr;
  Packed *ABuf = reinterpret_cast<Packed *>(WS.ABufs[Tid].data());
  Packed *BBuf = reinterpret_cast<Packed *>(WS.BBuf.data());
  auto *Scratch =
      reinterpret_cast<typename Policy::Acc *>(WS.Scratches[Tid].data());

  for (int64_t Jc = 0; Jc < N; Jc += Nc) {            // Loop L1
    const int64_t NcEff = std::min(Nc, N - Jc);
    const int64_t NPan = (NcEff + Nr - 1) / Nr;
    for (int64_t Pc = 0; Pc < K; Pc += Kc) {          // Loop L2
      const int64_t KcEff = std::min(Kc, K - Pc);
      const int64_t Depth = Policy::depth(KcEff);
      // Cooperative packB, once for the whole run: panel P goes to thread
      // P % T. Packing panel by panel reproduces the monolithic layout
      // exactly (slot stride Depth * Nr; only the last panel can be
      // partial).
      {
        EXO_OBS_SPAN("gemm.packB");
        for (int64_t P = Tid; P < NPan; P += T) {
          const int64_t J0 = Jc + P * Nr;
          Policy::packB(G, B + Pc * BRS + J0 * BCS, BRS, BCS, KcEff,
                        std::min(Nr, NcEff - P * Nr), BBuf + P * Depth * Nr);
        }
      }

      // Apply beta once per (jc) column block, before the first update.
      // Ownership: rows by ic team, columns round-robin within the team —
      // every C element has exactly one writer.
      if (Pc == 0 && AnyBeta) {
        EXO_OBS_SPAN("gemm.beta");
        for (int64_t X = 0; X < NCalls; ++X) {
          const detail::GemmCall &Cl = Calls[X];
          if (Policy::betaIsOne(Cl))
            continue;
          auto *C = static_cast<Out *>(Cl.C);
          for (int64_t BIdx = IcTeam; BIdx < NIc; BIdx += Tic) {
            const int64_t Ic = BIdx * Mc;
            const int64_t McEff = std::min(Mc, M - Ic);
            for (int64_t J = JrIdx; J < NcEff; J += Tjr)
              Policy::scale(C + Ic + (Jc + J) * Cl.Ldc, McEff, Cl);
          }
        }
      }
      if (T > 1) {
        EXO_OBS_SPAN("gemm.barrier");
        Job.Bar->arriveAndWait(); // packB + pre-scale done before update
      }

      for (int64_t X = 0; X < NCalls; ++X) {
        const detail::GemmCall &Cl = Calls[X];
        const auto *A = static_cast<const In *>(Cl.A);
        auto *C = static_cast<Out *>(Cl.C);
        const int64_t ARS = Cl.TA == Trans::None ? 1 : Cl.Lda;
        const int64_t ACS = Cl.TA == Trans::None ? Cl.Lda : 1;
        for (int64_t BIdx = IcTeam; BIdx < NIc; BIdx += Tic) { // Loop L3
          const int64_t Ic = BIdx * Mc;
          const int64_t McEff = std::min(Mc, M - Ic);
          // Each thread packs into its own buffer; members of the same ic
          // team duplicate the pack, trading redundant bandwidth for zero
          // intra-team synchronization.
          {
            EXO_OBS_SPAN("gemm.packA");
            Policy::packA(G, Cl, A + Ic * ARS + Pc * ACS, ARS, ACS, McEff,
                          KcEff, ABuf);
          }

          EXO_OBS_SPAN("gemm.ukr");
          for (int64_t P = JrIdx; P < NPan; P += Tjr) { // Loop L4
            const int64_t Jr = P * Nr;
            const int64_t NrEff = std::min(Nr, NcEff - Jr);
            const Packed *BPanel = BBuf + P * Depth * Nr;
            for (int64_t Ir = 0; Ir < McEff; Ir += Mr)  // Loop L5
              Policy::tile(G, Cl, KcEff, std::min(Mr, McEff - Ir), NrEff,
                           ABuf + (Ir / Mr) * Depth * Mr, BPanel,
                           C + (Ic + Ir) + (Jc + Jr) * Cl.Ldc, Scratch);
          }
        }
      }
      if (T > 1) {
        EXO_OBS_SPAN("gemm.barrier");
        Job.Bar->arriveAndWait(); // BBuf (and C columns) recycle next round
      }
    }
  }
}

template <class Policy>
void runTeam(const detail::GemmGeometry &G, const detail::GemmCall *Calls,
             int64_t NCalls, detail::GemmWorkspace &WS) {
  ThreadPool &Pool = ThreadPool::global();
  // Nested call (this thread is already inside a pool job): a T-member
  // team cannot form, and letting the pool degrade a T > 1 job inline
  // would deadlock on the TeamBarrier (each Tid would wait for teammates
  // that never run concurrently). Collapse to the single-member geometry
  // instead — results are bitwise identical for every team size, so this
  // only changes scheduling, never output.
  if (G.T > 1 && Pool.inParallel()) {
    const detail::GemmGeometry G1 = detail::reteamGeometry(G, 1);
    TeamJob Job{&G1, Calls, NCalls, &WS, nullptr}; // T == 1: no Bar
    runTeamMember<Policy>(&Job, 0);
    return;
  }
  TeamBarrier Bar(G.T);
  TeamJob Job{&G, Calls, NCalls, &WS, &Bar};
  Pool.parallel(G.T, &runTeamMember<Policy>, &Job);
}

} // namespace

void detail::GemmWorkspace::ensure(const GemmGeometry &G) {
  // Shared packed-B block (written cooperatively, panel-interleaved, read
  // by everyone after the barrier) and per-thread A pack buffer and
  // scratch tile, in the policy's panel and accumulator element sizes.
  // Every resize is a no-op when the workspace already fits this geometry
  // (the Engine's pooled hot path).
  withPanels(G.Ty, [&](auto Pol) {
    using Policy = decltype(Pol);
    const int64_t Depth = Policy::depth(G.Kc);
    const int64_t PackB = sizeof(typename Policy::Packed);
    BBuf.resize(((G.Nc + G.Nr - 1) / G.Nr) * Depth * G.Nr * PackB);
    ABufs.resize(G.T);
    Scratches.resize(G.T);
    for (int64_t I = 0; I < G.T; ++I) {
      ABufs[I].resize(((G.Mc + G.Mr - 1) / G.Mr) * Depth * G.Mr * PackB);
      Scratches[I].resize(G.Mr * G.Nr * sizeof(typename Policy::Acc));
    }
  });
}

void detail::executeGemm(const GemmGeometry &G, const GemmCall *Calls,
                         int64_t NCalls, GemmWorkspace &WS) {
  // Tracing (see docs/OBSERVABILITY.md): spans attribute time to the
  // packA / packB / micro-kernel / beta / barrier phases at block
  // granularity — coarse enough that an *enabled* trace stays cheap, and
  // each Span construction is a single relaxed load when EXO_OBS is unset.
  // The spans only observe; results are bitwise identical either way.
  EXO_OBS_SPAN("gemm.call");
  withPanels(G.Ty, [&](auto Pol) {
    runTeam<decltype(Pol)>(G, Calls, NCalls, WS);
  });
}

void detail::scaleByBeta(DType Ty, int64_t M, int64_t N, double Beta,
                         void *C, int64_t Ldc) {
  GemmCall Cl;
  Cl.Beta = static_cast<float>(Beta);
  if (Ty == DType::I8I32)
    Cl.BetaI = static_cast<int64_t>(Beta);
  withPanels(Ty, [&](auto Pol) {
    using Policy = decltype(Pol);
    auto *Out = static_cast<typename Policy::Out *>(C);
    for (int64_t J = 0; J < N; ++J)
      Policy::scale(Out + J * Ldc, M, Cl);
  });
}

Error detail::checkGemmArgs(const char *Who, DType Ty, Trans TA, Trans TB,
                            int64_t M, int64_t N, int64_t K, double Alpha,
                            double Beta, int64_t Lda, int64_t Ldb,
                            int64_t Ldc, int64_t StrideA, int64_t StrideB,
                            int64_t StrideC, int64_t BatchCount) {
  if (M < 0 || N < 0 || K < 0)
    return errorf("%s: negative dimension", Who);
  if (BatchCount < 0)
    return errorf("%s: negative batch count", Who);
  if (StrideA < 0 || StrideB < 0 || StrideC < 0)
    return errorf("%s: negative batch stride", Who);
  if (Ty == DType::I8I32) {
    // Integer alpha/beta only: they scale the i32 accumulator exactly.
    // A fractional scale is a quantization policy decision that belongs in
    // the caller, not a silently-rounded GEMM parameter (DType.h).
    constexpr double Lim = 9.0e18; // < 2^63, exactly representable
    if (Alpha != std::nearbyint(Alpha) || Beta != std::nearbyint(Beta) ||
        std::fabs(Alpha) > Lim || std::fabs(Beta) > Lim)
      return errorf("%s: i8 alpha/beta must be exact integers "
                    "(got alpha=%g beta=%g)",
                    Who, Alpha, Beta);
  }
  if (BatchCount == 0 || isDegenerate(M, N, K, Alpha))
    return Error::success();
  const int64_t ARows = TA == Trans::None ? M : K;
  const int64_t BRows = TB == Trans::None ? K : N;
  if (Lda < ARows || Ldb < BRows || Ldc < M)
    return errorf("%s: leading dimension smaller than rows "
                  "(lda=%lld ldb=%lld ldc=%lld for %lldx%lldx%lld)",
                  Who, static_cast<long long>(Lda),
                  static_cast<long long>(Ldb), static_cast<long long>(Ldc),
                  static_cast<long long>(M), static_cast<long long>(N),
                  static_cast<long long>(K));
  if (BatchCount > 1 &&
      static_cast<__int128>(StrideC) < static_cast<__int128>(Ldc) * N)
    return errorf("%s: StrideC (%lld) overlaps C items (need >= Ldc * N "
                  "= %lld * %lld)",
                  Who, static_cast<long long>(StrideC),
                  static_cast<long long>(Ldc), static_cast<long long>(N));
  return Error::success();
}
