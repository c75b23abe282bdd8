//===- Gemm.h - BLIS-like GEMM driver -------------------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GotoBLAS/BLIS five-loop macro-kernel (paper Figs. 1-2): jc over nc
/// column blocks (Bc packed for L3), pc over kc depth blocks, ic over mc row
/// blocks (Ac packed for L2), then jr/ir micro-tile loops invoking the
/// micro-kernel. Edge tiles either dispatch to a provider-specialized
/// kernel (EXO mode, tight packing) or run the monolithic kernel into a
/// zero-padded scratch tile (BLIS mode). One loop nest serves every dtype:
/// a compile-time panel policy per dtype supplies the packs, the tile
/// kernel and the storage-type copy-out. gemm::Engine (Engine.h) is the
/// front door; this header is its executor.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_GEMM_H
#define GEMM_GEMM_H

#include "exo/support/Error.h"
#include "gemm/CacheModel.h"
#include "gemm/MicroKernel.h"
#include "gemm/Pack.h"
#include "gemm/ThreadPool.h"

#include <optional>
#include <vector>

namespace gemm {

/// The f32 packing mode implied by \p P's edge support: Tight when it
/// specializes edge kernels (KernelProvider::specializesEdges, which
/// builds none), ZeroPad (monolithic kernel through the scratch tile)
/// otherwise. Tight mode tolerates a *partial* edge family:
/// a strip width without a specialized kernel degrades to the monolithic
/// kernel over a zero-padded panel.
EdgePack preferredEdgePack(KernelProvider &P);

/// BLAS-style operand transposition. Packing absorbs the transpose (the
/// packed panels are identical either way), so transposed GEMM costs the
/// same as the plain case — the BLIS property.
enum class Trans : uint8_t { None, Transpose };

namespace detail {

/// One GEMM call's operands and scalars, C = alpha * op(A) * op(B) +
/// beta * C, column-major. op(A) is m x k; with TA == Transpose, A is
/// stored k x m (leading dimension >= k), and symmetrically for B. The
/// operand pointers are raw storage in the executing geometry's element
/// types (dtypeInBytes / dtypeOutBytes); Alpha/Beta carry the f32 scale of
/// the float dtypes and AlphaI/BetaI the exact integer scale of i8 -> i32
/// (set from the same user-facing doubles by the Engine front door).
struct GemmCall {
  Trans TA = Trans::None, TB = Trans::None;
  int64_t M = 0, N = 0, K = 0;
  float Alpha = 1.0f, Beta = 1.0f;
  int64_t AlphaI = 1, BetaI = 1;
  const void *A = nullptr;
  int64_t Lda = 0;
  const void *B = nullptr;
  int64_t Ldb = 0;
  void *C = nullptr;
  int64_t Ldc = 0;
};

/// Everything the five-loop executor needs that does not depend on the
/// operand pointers or scalars: resolved kernels, problem-clamped blocking,
/// and the team factorization. Deriving this once per (shape, plan) is what
/// the Engine caches.
struct GemmGeometry {
  MicroKernel Main{};
  /// Element type this geometry executes; selects the executor's panel
  /// policy (Gemm.cpp). F32 runs the plan's kernels over f32 panels with
  /// Tight-mode edge kernels; F16/BF16 run the f32 main kernel over
  /// convert-packed panels with per-Kc-block rounding at copy-out; I8I32
  /// runs the K-grouped scalar dot (Main.Fn unused). Non-f32 geometries are
  /// always ZeroPad with no edge kernels.
  DType Ty = DType::F32;
  EdgePack PackMode = EdgePack::ZeroPad;
  int64_t Mr = 0, Nr = 0;
  int64_t Mc = 0, Kc = 0, Nc = 0; ///< clamped to the problem
  int64_t NIc = 0;                ///< ic block count
  int64_t T = 1;                  ///< team size, clamped to available work
  int64_t Tic = 1, Tjr = 1;       ///< 2D team factorization (ic x jr)
  /// Strip-width-indexed edge kernels, Nr entries; a nullopt width packs
  /// its B panel zero-padded and runs the main kernel through the scratch
  /// tile. Points into caller-owned storage (the resolveEdgeKernels Storage
  /// argument) which must outlive execution; unset unless PackMode is
  /// Tight.
  const std::optional<MicroKernel> *EdgeKernels = nullptr;
};

/// Pack buffers and per-thread scratch for one geometry, in bytes sized by
/// the geometry's panel policy. ensure() resizes to fit and is idempotent:
/// a second call with the same geometry performs no allocation, which is
/// what keeps the Engine's pooled steady state allocation-free.
struct GemmWorkspace {
  std::vector<unsigned char> BBuf;
  std::vector<std::vector<unsigned char>> ABufs, Scratches;
  void ensure(const GemmGeometry &G);
};

/// Clamps \p Blocks to the problem and factorizes a team of \p Threads —
/// everything in GemmGeometry except edge-kernel resolution (which needs
/// the provider; see resolveEdgeKernels). \p Threads follows
/// resolveGemmThreads (ThreadPool.h): 0 resolves EXO_GEMM_THREADS. Loop 3
/// (ic blocks) is parallelized first, loop 4 (jr strips) absorbs the
/// remainder; results are bitwise identical for every thread count.
GemmGeometry deriveGeometry(const MicroKernel &Main, EdgePack PackMode,
                            const BlockSizes &Blocks, int64_t Threads,
                            int64_t M, int64_t N, int64_t K);

/// Recomputes Tic / Tjr from G.T and G.NIc (the divisor rule: Tic is the
/// largest divisor of T fitting the ic block count). Shared by
/// deriveGeometry and reteamGeometry so a re-teamed copy factorizes
/// exactly like a freshly derived one.
void factorizeTeam(GemmGeometry &G);

/// Resolves the kernel for every partial strip width occurring in an N-wide
/// problem into \p Storage (resized to Nr) and points G.EdgeKernels at it;
/// a width without a runnable specialized kernel stays nullopt.
/// Must run on a thread allowed to call into the provider (may JIT).
void resolveEdgeKernels(KernelProvider &Provider, GemmGeometry &G, int64_t N,
                        std::vector<std::optional<MicroKernel>> &Storage);

/// Returns \p G re-factorized for a team of \p Width (1 <= Width <= G.T):
/// same blocking, same kernels, recomputed T / Tic / Tjr via the divisor
/// rule of deriveGeometry. Because results are bitwise invariant under the
/// team size (Gemm.h file comment), executing a plan's geometry at a
/// smaller width — which is what a nested call does when it collapses to
/// one member — changes scheduling only, never output; and since
/// Width <= G.T, a workspace ensured for G already fits the re-teamed copy.
GemmGeometry reteamGeometry(const GemmGeometry &G, int64_t Width);

/// The five-loop macro-kernel over a fully resolved geometry, for every
/// dtype (G.Ty picks the panel policy once per call), run over \p NCalls
/// calls that share one B: every call has the same shape, TB, B pointer
/// and Ldb (a lone call is a run of one). Each (jc, pc) block of B is
/// packed once for the run; beta then applies to every call's block, and
/// loops 3-5 run call by call. The packed values and each C tile's
/// accumulation order are those of separate calls, so a run is bitwise
/// equal to its calls issued one by one — provided no call's C overlaps
/// any call's A or B (the batched aliasing rule, Engine.h). Performs no
/// validation, no heap allocation, and never calls into the provider; the
/// workspace must already satisfy WS.ensure(G). The team is G.T members
/// from the global pool — or, when this thread is already inside a pool
/// job (a batched cross-item worker, a user callback issuing a GEMM), a
/// single member, since a nested team cannot form without deadlocking on
/// its barrier. Results are bitwise identical for every team size.
void executeGemm(const GemmGeometry &G, const GemmCall *Calls,
                 int64_t NCalls, GemmWorkspace &WS);

/// True when a call is answered by the quick return: nothing to multiply,
/// so it never plans, allocates or reads A/B (BLAS semantics). Alpha counts
/// as zero when it rounds to zero in f32, the precision every float dtype
/// applies it in (an integer i8 scale is zero exactly when its f32 image
/// is), so a call and its GemmCall agree on it.
inline bool isDegenerate(int64_t M, int64_t N, int64_t K, double Alpha) {
  return M == 0 || N == 0 || K == 0 || static_cast<float>(Alpha) == 0.0f;
}

/// The argument rules of every GEMM entry — the Engine and gemm::Client
/// alike, for a lone call (the defaults) or a strided batch (strides in
/// elements) — checked in one order: negative dimensions, a negative batch
/// count or stride, and for I8I32 scales that are not exact integers; then,
/// only for a non-empty batch past the quick return, a leading dimension
/// smaller than its operand's stored rows and, with more than one item, a
/// StrideC below Ldc * N, which would let C items overlap (the cuBLAS rule:
/// items may run concurrently). Ldc * N is compared in 128 bits, since it
/// can exceed int64_t. \p Who prefixes the message.
exo::Error checkGemmArgs(const char *Who, DType Ty, Trans TA, Trans TB,
                         int64_t M, int64_t N, int64_t K, double Alpha,
                         double Beta, int64_t Lda, int64_t Ldb, int64_t Ldc,
                         int64_t StrideA = 0, int64_t StrideB = 0,
                         int64_t StrideC = 0, int64_t BatchCount = 1);

/// The shared degenerate path (K == 0 or alpha == 0): C = beta * C in \p
/// Ty's storage type — f32 directly, f16/bf16 scaled in f32 and rounded
/// back, i8 -> i32 scaled by the integer beta with wraparound. Beta == 0
/// overwrites with zero rather than scaling (NaN-safe). Allocation-free.
void scaleByBeta(DType Ty, int64_t M, int64_t N, double Beta, void *C,
                 int64_t Ldc);

} // namespace detail

} // namespace gemm

#endif // GEMM_GEMM_H
