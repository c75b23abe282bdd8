//===- Schedule.h - Scheduling primitives ---------------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing scheduling operations of the system — the C++ analogue of
/// the Exo directives the paper's user schedules are written in (its Figs.
/// 6-11): `partial_eval`, `divide_loop`, `reorder_loops`, `unroll_loop`,
/// `stage_mem`, `bind_expr`, `expand_dim`, `lift_alloc`, `autofission`,
/// `replace`, `set_memory`, `set_precision`.
///
/// Every primitive is a total function from a Proc to an Expected<Proc>; the
/// input proc is never modified. Two safety nets guard semantics:
///
///  1. `replace` only succeeds when the matched loop nest *unifies* with the
///     instruction's semantic definition (the paper's "security definition",
///     §II-B) — substituting an instruction that computes something else is
///     rejected statically.
///  2. With SchedOptions::Validate (default on), every structural rewrite is
///     additionally checked by running the reference interpreter on the proc
///     before and after the rewrite over random integer-valued inputs and
///     comparing results exactly. Rewrites whose full static legality check
///     would need value-based reasoning (fission across an accumulation
///     loop, allocation lifting) rely on this dynamic check, mirroring how
///     the original system discharges them with effect analysis.
///     Every rewrite is checked; the only saving is that the Before run of
///     a check is taken from the previous passing check when Before is that
///     check's After (the identical proc) on the identical sampled instance
///     (see Validate.h).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHED_SCHEDULE_H
#define EXO_SCHED_SCHEDULE_H

#include "exo/ir/Proc.h"
#include "exo/support/Error.h"

#include <cstdint>
#include <map>

namespace exo {

/// Knobs controlling the rewrite safety net.
struct SchedOptions {
  /// Run interpreter-based equivalence validation after each rewrite.
  bool Validate = true;
  /// Number of random instantiations per validation.
  int ValidationTrials = 2;
  /// RNG seed for validation inputs.
  unsigned Seed = 0xC60;
};

/// The process-wide default options (tests may toggle).
SchedOptions &defaultSchedOptions();

/// Returns a copy of \p P under a new name (the paper's `rename`).
Proc renameProc(const Proc &P, std::string NewName);

/// Substitutes the given size parameters by constants and removes them from
/// the signature (the paper's `partial_eval`, Fig. 6).
Expected<Proc> partialEval(const Proc &P,
                           const std::map<std::string, int64_t> &Sizes);

/// Normalizes every index expression (affine canonical form, constant
/// folding). Semantically the identity.
Proc simplifyProc(const Proc &P);

/// Splits the loop matched by \p LoopPattern by \p Factor into
/// `Outer`/`Inner` (Fig. 7). With \p Perfect the trip count must be a
/// constant multiple of Factor; otherwise a tail loop is emitted.
Expected<Proc> divideLoop(const Proc &P, const std::string &LoopPattern,
                          int64_t Factor, const std::string &Outer,
                          const std::string &Inner, bool Perfect,
                          const SchedOptions &Opts = defaultSchedOptions());

/// Swaps the perfectly nested pair named by \p Pair, e.g. "jtt it" swaps
/// `for jtt: for it:` into `for it: for jtt:` (Fig. 10).
Expected<Proc> reorderLoops(const Proc &P, const std::string &Pair,
                            const SchedOptions &Opts = defaultSchedOptions());

/// Fully unrolls a constant-bound loop (Fig. 11).
Expected<Proc> unrollLoop(const Proc &P, const std::string &LoopPattern,
                          const SchedOptions &Opts = defaultSchedOptions());

/// Binds the matched read expression to a fresh scalar buffer \p NewName,
/// inserting `NewName = <expr>` before the containing statement (Fig. 9).
Expected<Proc> bindExpr(const Proc &P, const std::string &ExprPattern,
                        const std::string &NewName,
                        const SchedOptions &Opts = defaultSchedOptions());

/// Stages buffer \p Buf inside the statement matched by \p StmtPattern
/// through a fresh scalar buffer \p NewName: load before, store after when
/// the statement writes \p Buf (Fig. 8, scalar granularity).
Expected<Proc> stageMem(const Proc &P, const std::string &StmtPattern,
                        const std::string &Buf, const std::string &NewName,
                        const SchedOptions &Opts = defaultSchedOptions());

/// Prepends a dimension of extent \p Size to allocation \p Name; every
/// access gains leading index \p Index (Fig. 8/9 `expand_dim`).
Expected<Proc> expandDim(const Proc &P, const std::string &Name, ExprPtr Size,
                         ExprPtr Index,
                         const SchedOptions &Opts = defaultSchedOptions());

/// Moves the allocation \p Name out of up to \p NLifts enclosing loops.
Expected<Proc> liftAlloc(const Proc &P, const std::string &Name, int NLifts,
                         const SchedOptions &Opts = defaultSchedOptions());

/// Splits the bodies of up to \p NLifts enclosing loops at the gap
/// before/after the statement matched by \p StmtPattern, distributing each
/// loop over the two halves. A half that does not mention the loop variable
/// is emitted without the loop when the trip count is provably positive.
Expected<Proc> autofission(const Proc &P, const std::string &StmtPattern,
                           bool After, int NLifts,
                           const SchedOptions &Opts = defaultSchedOptions());

/// Replaces the loop nest matched by \p LoopPattern with a call to \p I.
/// Succeeds only when the nest unifies with the instruction's semantics;
/// the inferred windows/operands become the call arguments (Figs. 8-10).
Expected<Proc> replaceWithInstr(const Proc &P, const std::string &LoopPattern,
                                InstrPtr I,
                                const SchedOptions &Opts = defaultSchedOptions());

/// Splits the loop matched by \p LoopPattern at iteration \p Point into two
/// sequential loops over [lo, Point) and [Point, hi). Needed for non-
/// divisible tilings (the guard-free edge handling §III-B sketches).
Expected<Proc> cutLoop(const Proc &P, const std::string &LoopPattern,
                       int64_t Point,
                       const SchedOptions &Opts = defaultSchedOptions());

/// Merges the loop matched by \p LoopPattern with its immediately following
/// sibling, which must have identical bounds (the inverse of fission).
Expected<Proc> fuseLoops(const Proc &P, const std::string &LoopPattern,
                         const SchedOptions &Opts = defaultSchedOptions());

/// Deletes a loop whose body does not depend on the loop variable,
/// executing the body once. Requires a provably positive trip count.
Expected<Proc> removeLoop(const Proc &P, const std::string &LoopPattern,
                          const SchedOptions &Opts = defaultSchedOptions());

/// Re-homes allocation \p Name into \p Mem (Fig. 8 step 6).
Expected<Proc> setMemory(const Proc &P, const std::string &Name,
                         const MemSpace *Mem);

/// Changes the element type of buffer \p Name (§III-D).
Expected<Proc> setPrecision(const Proc &P, const std::string &Name,
                            ScalarKind Ty);

} // namespace exo

#endif // EXO_SCHED_SCHEDULE_H
