//===- Fuzz.h - Differential schedule fuzzing -----------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-conformance fuzzing subsystem. The paper's claim is that
/// every accepted rewrite pipeline is semantics-preserving for every
/// micro-kernel shape and every instruction library; hand-picked schedules
/// (the Fig. 6-11 pipeline, the generator's fixed recipes) only ever test a
/// few points of that space. A ScheduleFuzzer draws random micro-kernel
/// specs (MR/NR/KC, edge remainders, ldc slack, dtypes, alpha/beta) and
/// random-but-legal rewrite sequences, then checks three oracles per sample:
///
///   1. interp:  the rewritten IR, evaluated by the reference interpreter,
///               equals the unscheduled spec on random inputs (bitwise —
///               integer-valued data keeps float math exact).
///   2. jit:     the emitted C, JIT-compiled through the KernelService /
///               DiskCache path, matches the interpreter bit-for-bit on
///               integer-valued inputs and to tight tolerances on random
///               float inputs.
///   3. cross:   every host-executable instruction library that fits the
///               shape (portable, AVX2, AVX-512, plus the scalar kernel)
///               agrees bitwise on the same sample, and the threaded
///               GEMM driver (Engine::sgemm over the sample's kernel)
///               agrees with the naive reference at every team size.
///
/// Failing samples are auto-minimized (steps dropped, sizes shrunk while the
/// mismatch reproduces) and serialized as standalone repro files that the
/// `fuzz_replay` tool re-runs, so every future rewrite/codegen change
/// inherits a regression corpus under tests/fuzz/corpus/.
///
/// Determinism: a campaign is fully determined by (seed, iteration count).
/// Fault injection (FuzzSample::Fault, `fuzz_replay --fault`) simulates a rewrite
/// bug — after the matching rewrite step is applied, the first loop of the
/// proc silently loses its last iteration — so the oracle stack itself is
/// testable: an injected fault must be caught and must minimize.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_FUZZ_FUZZ_H
#define EXO_FUZZ_FUZZ_H

#include "exo/ir/Proc.h"
#include "exo/support/Error.h"

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace exo {

class IsaLib;

namespace fuzz {

/// One serialized scheduling directive of a chain-mode sample. Vectorize is
/// the composite lane/broadcast recipe (stage registers, fission, replace
/// loads/stores/FMA against the named instruction library) and may only
/// appear as the first step — it rewrites the fresh spec.
struct RewriteStep {
  enum class Kind : uint8_t { Divide, Reorder, Unroll, Cut, Fuse, Vectorize };
  Kind K = Kind::Divide;
  /// Loop pattern ("for i in _: _ #0") or reorder pair ("jt it #1").
  std::string Pattern;
  int64_t Factor = 0; ///< Divide factor / Cut point.
  bool Perfect = false;
  std::string Outer, Inner; ///< Divide's new loop names.
  std::string Isa;          ///< Vectorize: instruction library name.
  std::string Style;        ///< Vectorize: "lane" or "bcst".
  bool UnrollLoads = false; ///< Vectorize: run the Fig. 11 unroll too.

  /// Stable label, e.g. `divide |for i in _: _| 4`. Fault specs match
  /// against this.
  std::string describe() const;
};

/// One drawn micro-kernel spec + schedule. Value type, fully serializable.
struct FuzzSample {
  /// Recipe samples run the generator's full pipeline for a UkrConfig;
  /// chain samples apply an explicit random rewrite sequence.
  enum class Mode : uint8_t { Recipe, Chain };
  Mode M = Mode::Chain;
  uint64_t Seed = 0; ///< Seed the sample was drawn from (diagnostics).
  int64_t MR = 8, NR = 12, KC = 4;
  int64_t LdcSlack = 0; ///< ldc = MR + LdcSlack.
  /// Element type name ("f32", "f16", "bf16", "i8", ...). Non-f32 samples
  /// run the interpreter oracle only.
  std::string Ty = "f32";
  /// Accumulate into dotAccumKind(Ty) instead of Ty (the i8 -> i32 and
  /// bf16 -> f32 dot-product convention; mirrors UkrConfig::WidenAcc).
  /// Serialized as `widen_acc` only when set, so pre-dtype repro files
  /// stay byte-identical.
  bool WidenAcc = false;
  // Recipe-mode fields (mirror ukr::UkrConfig).
  std::string Isa = "portable"; ///< Library name, or "none" for scalar.
  std::string Style = "auto";   ///< auto | lane | bcst | scalar.
  bool UnrollLoads = true;
  bool UnrollCompute = false;
  bool GeneralAlphaBeta = false; ///< Fig. 4 alpha/beta spec (axpby ABI).
  // Chain-mode fields.
  std::vector<RewriteStep> Steps;
  /// Fault injection: after applying the first step whose describe()
  /// contains this substring, the first loop of the proc drops its last
  /// iteration. Empty = no fault. Serialized into repro files so a fault
  /// repro reproduces standalone.
  std::string Fault;

  /// One-line human summary.
  std::string summary() const;
};

/// Repro-file (de)serialization. The format is line-based and versioned
/// ("exo-fuzz-repro v1"); see docs/TESTING.md.
std::string serializeSample(const FuzzSample &S);
Expected<FuzzSample> parseSample(const std::string &Text);
Expected<FuzzSample> loadSampleFile(const std::string &Path);
Error saveSampleFile(const FuzzSample &S, const std::string &Path);

/// The result of materializing a sample: the partial-evaluated unscheduled
/// spec and the scheduled proc (fault applied, when requested).
struct AppliedSample {
  Proc Spec;
  Proc Scheduled;
  std::vector<std::string> AppliedSteps;
  std::vector<std::string> SkippedSteps; ///< Steps the scheduler rejected.
  bool FaultFired = false;
  /// Library for codegen/JIT of Scheduled; null for pure-C procs.
  const IsaLib *Isa = nullptr;
};

/// Builds the spec and applies the sample's pipeline. Scheduler-rejected
/// chain steps are recorded as skipped, not errors; a sample whose *recipe*
/// is inconsistent (e.g. lane style with NR not a lane multiple) comes back
/// as an error — callers count it as rejected, never as a bug.
Expected<AppliedSample> applySample(const FuzzSample &S);

/// Which oracles to run on a sample.
struct OracleOptions {
  int InterpTrials = 2;  ///< Oracle 1 random instantiations.
  bool CheckJit = true;  ///< Oracle 2 (skipped when no compiler / non-host ISA).
  bool CheckCross = true;///< Oracle 3a: cross-library kernel agreement.
  bool CheckDriver = false; ///< Oracle 3b: threaded Engine vs reference.
  unsigned InputSeed = 1;///< Seed for oracle input data.
};

/// What actually ran (coverage accounting for the smoke test).
struct OracleOutcome {
  bool Rejected = false; ///< Sample was inconsistent; nothing checked.
  bool InterpChecked = false;
  bool JitChecked = false;
  bool CrossChecked = false;
  bool DriverChecked = false;
  /// Chain-step accounting: a corpus replay with skipped steps is vacuous,
  /// so fuzz_replay rejects it.
  int StepsApplied = 0;
  int StepsSkipped = 0;
  /// Kernel families actually executed and compared ("portable", "avx2",
  /// "avx512", "c" for the scalar kernel).
  std::set<std::string> IsasCompared;
};

/// Runs the oracle battery. Success either means every requested oracle
/// agreed or the sample was rejected (see OracleOutcome::Rejected); failure
/// carries the oracle name and a diagnostic.
Error runOracles(const FuzzSample &S, const OracleOptions &O,
                 OracleOutcome *Out = nullptr);

/// Campaign configuration.
struct FuzzOptions {
  uint64_t Seed = 0xE40;
  int Iterations = 64;
  OracleOptions Oracle;
  /// Check the GEMM driver on every Nth sample (0 disables). Driver checks
  /// dominate wall time, so the smoke suite rations them.
  int DriverEvery = 8;
  /// Draw every Nth sample's tile config from a synthetic tuned-prior
  /// record (0 disables): the record round-trips through the PriorDb
  /// serialization and materializes through the same priorRecordConfig
  /// mapping the planner uses, so the campaign exercises the
  /// Prior→schedule path end to end.
  int PriorEvery = 8;
  /// Inject this fault into every drawn chain sample (`fuzz_replay
  /// --fault`).
  std::string Fault;
};

struct FuzzFailure {
  FuzzSample Sample;
  std::string Message;
  /// The oracle set the sample failed under (driver checks are rationed, so
  /// this can be wider than FuzzOptions::Oracle) — minimize with these.
  OracleOptions Oracle;
};

/// Campaign coverage counters.
struct FuzzStats {
  int Samples = 0;
  int Rejected = 0;
  int InterpChecks = 0;
  int JitChecks = 0;
  int CrossChecks = 0;
  int DriverChecks = 0;
  /// Samples whose tile config came from a synthetic prior record that
  /// survived the PriorDb format round trip (FuzzOptions::PriorEvery). A
  /// campaign drawing fewer than Samples / PriorEvery of these means the
  /// record format broke under the fuzzer's tiles.
  int PriorShaped = 0;
  /// Libraries that appeared in a drawn sample's schedule (includes
  /// non-host-executable ones like neon, which are interp/codegen-checked).
  std::set<std::string> IsasScheduled;
  /// Kernel families executed by oracle 2/3.
  std::set<std::string> IsasCompared;
};

/// See file comment. Drawing is deterministic: two fuzzers with equal
/// options draw identical sample sequences.
class ScheduleFuzzer {
public:
  explicit ScheduleFuzzer(const FuzzOptions &O);
  ~ScheduleFuzzer();
  ScheduleFuzzer(const ScheduleFuzzer &) = delete;
  ScheduleFuzzer &operator=(const ScheduleFuzzer &) = delete;

  /// Draws the next sample (legal at draw time; chain steps are pre-applied
  /// and only accepted ones recorded).
  FuzzSample draw();

  /// Runs the whole campaign: draws Iterations samples, prefetches their
  /// kernels through the KernelService worker pool, then runs the oracle
  /// battery on each. Stops at the first failure.
  std::optional<FuzzFailure> run();

  const FuzzStats &stats() const;

private:
  struct Impl;
  Impl *I;
};

/// Shrinks a failing sample while the failure reproduces: drops rewrite
/// steps (greedy delta debugging), then shrinks KC and the ldc slack.
/// Returns the smallest still-failing sample; \p RoundsOut (optional)
/// reports how many candidate re-runs were spent.
FuzzSample minimizeSample(const FuzzSample &S, const OracleOptions &O,
                          int *RoundsOut = nullptr);

/// Environment knobs (documented in docs/TESTING.md): EXO_FUZZ_SEED,
/// EXO_FUZZ_ITERS.
uint64_t fuzzSeedFromEnv(uint64_t Dflt);
int fuzzItersFromEnv(int Dflt);

} // namespace fuzz
} // namespace exo

#endif // EXO_FUZZ_FUZZ_H
