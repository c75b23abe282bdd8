//===- Validate.h - Dynamic equivalence validation ------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter-based equivalence checking between two procs with identical
/// signatures: both run on the same random instantiations (small sizes,
/// integer-valued tensor data so floating-point reassociation is exact) and
/// all mutable tensors are compared bit-for-bit. Used as the scheduling
/// safety net (see Schedule.h) and directly by property tests.
///
/// A schedule is a chain of rewrites, so a check's Before proc is usually
/// the previous check's After. Each thread keeps a record of its last
/// passing check (the After proc, the seed, and per trial the sampled
/// instance and After's outputs); when the next check's Before is that
/// same proc (same parameters, precondition and body nodes) and the freshly
/// sampled instance equals the recorded one exactly, Before's outputs are
/// copied from the record instead of being interpreted again. After is
/// always interpreted and compared, so a chain of n rewrites interprets
/// n + 1 procs per trial instead of 2n.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHED_VALIDATE_H
#define EXO_SCHED_VALIDATE_H

#include "exo/ir/Proc.h"
#include "exo/sched/Schedule.h"
#include "exo/support/Error.h"

namespace exo {

/// Checks P0 ~ P1 on \p Trials random instantiations. Returns success when
/// all runs agree; a diagnostic otherwise. Requires identical parameter
/// lists (order, kinds, shapes).
Error checkProcsEquivalent(const Proc &P0, const Proc &P1, int Trials,
                           unsigned Seed);

/// Procs interpreted by checkProcsEquivalent on the calling thread so far
/// (a test hook for the Before-reuse above).
uint64_t validationInterpretations();

/// Runs the Schedule.h validation policy: no-op when \p Opts.Validate is
/// off or signatures differ; otherwise checkProcsEquivalent.
Error validateRewrite(const Proc &Before, const Proc &After,
                      const SchedOptions &Opts, const char *PrimName);

} // namespace exo

#endif // EXO_SCHED_VALIDATE_H
