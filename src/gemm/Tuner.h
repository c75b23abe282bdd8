//===- Tuner.h - Offline micro-kernel schedule search ---------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search half of the autotuner: for one (m, n, k) problem, measure a
/// deterministic, budget-bounded sample of the planner's schedule space —
/// full-tile (MR, NR) candidates crossed with cache-blocking variants
/// around the analytical model's (MC, NC, KC) and with the compute-unroll
/// toggle — through the same pooled Engine execution path production
/// traffic uses, and persist any winner that beats the analytical model's
/// own measured choice into the prior database (PriorDb.h).
///
/// The never-lose contract starts here: every stored record carries the
/// model baseline measured in the same process, on the same data, under
/// the same time budget, and a candidate is only stored when it beats that
/// baseline by at least TuneOptions::MinMargin. The planner re-checks the
/// stored margin on every lookup, so even a record that aged badly cannot
/// drag a shape below the model.
///
/// Determinism: the candidate sample order is drawn from a seeded
/// SplitMix64 Fisher-Yates (TuneOptions::Seed), so two runs with the same
/// seed, budget, and machine enumerate the same schedules. Measured GFLOPS still vary with
/// machine load — only the *search trajectory* is reproducible, which is
/// what the deterministic-seed tests pin down.
///
/// Callers set TuneOptions fields (`ukr_cachectl tune --budget --seconds`).
/// See docs/TUNING.md.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_TUNER_H
#define GEMM_TUNER_H

#include "exo/support/Error.h"
#include "gemm/PriorDb.h"

#include <cstdint>
#include <string>
#include <vector>

namespace exo {
class IsaLib;
}

namespace gemm {

struct TuneOptions {
  /// Max schedule candidates measured per shape (model baseline excluded).
  int64_t Budget = 24;
  /// Min wall time each candidate runs for (repetitions amortize timer
  /// noise on small shapes).
  double Seconds = 0.05;
  /// Search-order seed; same seed + budget => same candidate sequence.
  uint64_t Seed = 0xE40;
  /// Team size measurements use (records store it; 1 = serial).
  int64_t Threads = 1;
  /// Relative improvement over the model baseline a winner must show
  /// before it is persisted (0.05 = 5%). Below typical timer noise a
  /// "winner" is a coin flip that will embarrass the database at serve
  /// time. Non-positive stores any winner.
  double MinMargin = 0.05;
  /// Restrict candidate tiles to this library's vector width (nullptr:
  /// every host-admissible tile).
  const exo::IsaLib *Isa = nullptr;
  /// Element type the stored record is keyed under. Measurements always
  /// run the f32 engine path: for f16/bf16 that is the very code a typed
  /// plan executes (f32 kernels over convert-packed panels — pack overhead
  /// differs, kernel choice does not), so the measured tile ranking
  /// transfers, and the record only ever feeds plans of this dtype.
  /// I8I32 is rejected by tuneShape (fixed tile; nothing to search).
  DType Dtype = DType::F32;
};

/// One schedule candidate's measurement (the tune log benches and the CLI
/// print).
struct TuneSample {
  int64_t MR = 0, NR = 0;
  int64_t MC = 0, NC = 0, KC = 0; ///< 0 = the analytical blocking
  bool UnrollCompute = false;
  double Gflops = 0;
};

/// The outcome of tuning one shape.
struct TuneResult {
  int64_t M = 0, N = 0, K = 0;
  /// The analytical model's own choice, measured like every candidate.
  int64_t ModelMR = 0, ModelNR = 0;
  double ModelGflops = 0;
  /// The best-measured schedule (equals the model's when nothing beat it).
  TuneSample Best;
  /// True when Best cleared MinMargin and was persisted to the database.
  bool Stored = false;
  /// The record as persisted (valid when Stored).
  PriorRecord Record;
  /// Every candidate measured, in search order (model baseline first).
  std::vector<TuneSample> Samples;
};

/// The candidate schedules tuneShape would measure for this shape under
/// \p O, in deterministic search order, before budget truncation applies
/// on top. Exposed so tests can pin the seed -> sequence mapping without
/// paying for measurements.
std::vector<TuneSample> tuneCandidates(int64_t M, int64_t N, int64_t K,
                                       const TuneOptions &O);

/// Tunes one shape and stores any qualifying winner into \p Db (nullptr:
/// PriorDb::global()). Fails when no generated kernel is available (the
/// Auto series would degrade every candidate to the same portable kernel,
/// making the measurements meaningless) or when the shape is degenerate.
exo::Expected<TuneResult> tuneShape(int64_t M, int64_t N, int64_t K,
                                    const TuneOptions &O = TuneOptions{},
                                    PriorDb *Db = nullptr);

} // namespace gemm

#endif // GEMM_TUNER_H
