//===- Validate.cpp -------------------------------------------------------===//

#include "exo/sched/Validate.h"

#include "exo/interp/Interp.h"
#include "exo/ir/Affine.h"
#include "obs/Obs.h"

#include <random>

using namespace exo;

namespace {

/// One sampled instantiation: scalar values plus tensor storage for both
/// runs (identical initial contents).
struct Instance {
  std::map<std::string, int64_t> Scalars;
  // Tensor name -> (shape, storage for run A, storage for run B).
  struct Tensor {
    std::vector<int64_t> Shape;
    std::vector<double> A, B;
  };
  std::map<std::string, Tensor> Tensors;
};

/// Evaluates an integer expression (shape dim or precondition) over the
/// sampled sizes; fails on unbound names or buffer reads.
bool evalIntExpr(const ExprPtr &E, const std::map<std::string, int64_t> &Env,
                 int64_t &Out) {
  switch (E->kind()) {
  case Expr::Kind::Const:
    if (isFloatKind(E->type()))
      return false;
    Out = cast<ConstExpr>(E)->intValue();
    return true;
  case Expr::Kind::Var: {
    auto It = Env.find(cast<VarExpr>(E)->name());
    if (It == Env.end())
      return false;
    Out = It->second;
    return true;
  }
  case Expr::Kind::USub: {
    if (!evalIntExpr(cast<USubExpr>(E)->operand(), Env, Out))
      return false;
    Out = -Out;
    return true;
  }
  case Expr::Kind::BinOp: {
    const auto *B = cast<BinOpExpr>(E);
    int64_t L, R;
    if (!evalIntExpr(B->lhs(), Env, L) || !evalIntExpr(B->rhs(), Env, R))
      return false;
    switch (B->op()) {
    case BinOpExpr::Op::Add:
      Out = L + R;
      return true;
    case BinOpExpr::Op::Sub:
      Out = L - R;
      return true;
    case BinOpExpr::Op::Mul:
      Out = L * R;
      return true;
    case BinOpExpr::Op::Div:
      if (R == 0)
        return false;
      Out = L / R;
      return true;
    case BinOpExpr::Op::Mod:
      if (R == 0)
        return false;
      Out = L % R;
      return true;
    case BinOpExpr::Op::Lt:
      Out = L < R;
      return true;
    case BinOpExpr::Op::Le:
      Out = L <= R;
      return true;
    case BinOpExpr::Op::Gt:
      Out = L > R;
      return true;
    case BinOpExpr::Op::Ge:
      Out = L >= R;
      return true;
    case BinOpExpr::Op::Eq:
      Out = L == R;
      return true;
    }
    return false;
  }
  case Expr::Kind::Read:
    return false;
  }
  return false;
}

bool evalShapeDim(const ExprPtr &E, const std::map<std::string, int64_t> &Env,
                  int64_t &Out) {
  return evalIntExpr(E, Env, Out);
}

/// Samples sizes satisfying the preconditions (rejection sampling), then
/// allocates integer-filled tensors.
bool sampleInstance(const Proc &P, std::mt19937 &Rng, Instance &Out) {
  std::uniform_int_distribution<int64_t> SizeDist(1, 6);
  std::uniform_int_distribution<int> ValDist(-4, 4);

  for (int Attempt = 0; Attempt != 200; ++Attempt) {
    Out.Scalars.clear();
    Out.Tensors.clear();
    for (const Param &Pa : P.params()) {
      if (Pa.PKind == Param::Kind::Size)
        Out.Scalars[Pa.Name] = SizeDist(Rng) * 4; // Multiples help `% N == 0`.
      else if (Pa.PKind == Param::Kind::IndexVal)
        Out.Scalars[Pa.Name] = SizeDist(Rng) - 1;
    }
    // Leading-stride parameters must cover the row extent; pin them to the
    // dense stride plus slack after the other sizes are drawn.
    for (const Param &Pa : P.params()) {
      if (Pa.PKind != Param::Kind::Tensor || Pa.LeadStrideVar.empty())
        continue;
      int64_t Inner = 1;
      for (size_t D = 1; D < Pa.Shape.size(); ++D) {
        int64_t E;
        if (!evalShapeDim(Pa.Shape[D], Out.Scalars, E))
          return false;
        Inner *= E;
      }
      Out.Scalars[Pa.LeadStrideVar] =
          Inner + std::uniform_int_distribution<int64_t>(0, 3)(Rng);
    }
    // Check preconditions on sizes only.
    bool Ok = true;
    for (const ExprPtr &Pre : P.preconds()) {
      int64_t V;
      if (!evalIntExpr(Pre, Out.Scalars, V) || !V) {
        Ok = false;
        break;
      }
    }
    if (!Ok)
      continue;

    bool ShapesOk = true;
    for (const Param &Pa : P.params()) {
      if (Pa.PKind != Param::Kind::Tensor)
        continue;
      Instance::Tensor T;
      int64_t Total = 1;
      for (const ExprPtr &D : Pa.Shape) {
        int64_t E;
        if (!evalShapeDim(D, Out.Scalars, E) || E < 0) {
          ShapesOk = false;
          break;
        }
        T.Shape.push_back(E);
        Total *= E;
      }
      if (!ShapesOk)
        break;
      // Strided dim-0 tensors need (shape0-1)*stride + inner elements.
      int64_t Alloc = Total;
      if (!Pa.LeadStrideVar.empty() && !T.Shape.empty()) {
        int64_t Inner = T.Shape.empty() ? 1 : Total / std::max<int64_t>(T.Shape[0], 1);
        Alloc = (std::max<int64_t>(T.Shape[0], 1) - 1) *
                    Out.Scalars[Pa.LeadStrideVar] +
                Inner;
      }
      T.A.resize(static_cast<size_t>(std::max<int64_t>(Alloc, 1)));
      for (double &V : T.A)
        V = static_cast<double>(ValDist(Rng));
      T.B = T.A;
      Out.Tensors.emplace(Pa.Name, std::move(T));
    }
    if (ShapesOk)
      return true;
  }
  return false;
}

/// The calling thread's last passing check. After is held by value, so the
/// node addresses sameProc compares stay alive and cannot be handed to a
/// later proc; each trial keeps its sampled instance with the inputs in
/// Tensor::A and After's outputs in Tensor::B. No trials: no record.
struct PassRecord {
  Proc After;
  unsigned Seed = 0;
  std::vector<Instance> Trials;
};

thread_local PassRecord LastPass;
thread_local uint64_t Interpretations = 0;

/// The same statements up to memory annotations: every node is shared
/// with \p B, except loops rebuilt around the same bounds and allocations
/// rebuilt with only another memory space (set_memory rebuilds both, and
/// the interpreter never reads a buffer's space).
bool sameBodyUpToMemory(const std::vector<StmtPtr> &A,
                        const std::vector<StmtPtr> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I] == B[I])
      continue;
    if (const auto *FA = dyn_castS<ForStmt>(A[I])) {
      const auto *FB = dyn_castS<ForStmt>(B[I]);
      if (!FB || FA->loopVar() != FB->loopVar() || FA->lo() != FB->lo() ||
          FA->hi() != FB->hi() || !sameBodyUpToMemory(FA->body(), FB->body()))
        return false;
      continue;
    }
    const auto *AA = dyn_castS<AllocStmt>(A[I]);
    const auto *AB = dyn_castS<AllocStmt>(B[I]);
    if (!AA || !AB || AA->name() != AB->name() ||
        AA->elemType() != AB->elemType() || AA->shape() != AB->shape())
      return false;
  }
  return true;
}

/// The same program, not merely an equal one: procs are immutable trees, so
/// equal parameter lists plus the same precondition and body nodes (up to
/// memory annotations, which the interpreter ignores) mean the same
/// interpretation.
bool sameProc(const Proc &P, const Proc &Q) {
  if (P.params().size() != Q.params().size())
    return false;
  for (size_t I = 0; I != P.params().size(); ++I) {
    const Param &A = P.params()[I], &B = Q.params()[I];
    if (A.Name != B.Name || A.PKind != B.PKind || A.Ty != B.Ty ||
        A.Shape != B.Shape || A.Mutable != B.Mutable ||
        A.LeadStrideVar != B.LeadStrideVar)
      return false;
  }
  return P.preconds() == Q.preconds() &&
         sameBodyUpToMemory(P.body(), Q.body());
}

/// \p Fresh (not yet interpreted) has exactly \p Rec's sizes and inputs.
bool sameInputs(const Instance &Fresh, const Instance &Rec) {
  if (Fresh.Scalars != Rec.Scalars ||
      Fresh.Tensors.size() != Rec.Tensors.size())
    return false;
  for (auto F = Fresh.Tensors.begin(), R = Rec.Tensors.begin();
       F != Fresh.Tensors.end(); ++F, ++R)
    if (F->first != R->first || F->second.Shape != R->second.Shape ||
        F->second.A != R->second.A)
      return false;
  return true;
}

} // namespace

uint64_t exo::validationInterpretations() { return Interpretations; }

Error exo::checkProcsEquivalent(const Proc &P0, const Proc &P1, int Trials,
                                unsigned Seed) {
  EXO_OBS_SPAN("sched.validate");
  if (P0.params().size() != P1.params().size())
    return errorf("signature arity changed (%zu vs %zu)", P0.params().size(),
                  P1.params().size());
  for (size_t I = 0; I != P0.params().size(); ++I)
    if (P0.params()[I].Name != P1.params()[I].Name ||
        P0.params()[I].PKind != P1.params()[I].PKind)
      return errorf("signature changed at parameter %zu", I);

  // A schedule chains rewrites, so this check's Before is usually the last
  // passing check's After: on the same instance its outputs are already
  // known. After is always interpreted and compared.
  const bool Chained = !LastPass.Trials.empty() && LastPass.Seed == Seed &&
                       LastPass.Trials.size() == static_cast<size_t>(Trials) &&
                       sameProc(P0, LastPass.After);
  bool Reused = false;
  std::vector<Instance> Passed;
  std::mt19937 Rng(Seed);
  for (int T = 0; T != Trials; ++T) {
    Instance Inst;
    if (!sampleInstance(P0, Rng, Inst))
      return errorf("could not sample an instantiation of '%s'",
                    P0.name().c_str());
    Instance Inputs = Inst;

    const Instance *Rec = Chained ? &LastPass.Trials[T] : nullptr;
    if (Rec && sameInputs(Inst, *Rec)) {
      if (!Reused)
        obs::mark("sched.validate.reuse");
      Reused = true;
      for (auto &[Name, Ten] : Inst.Tensors)
        Ten.A = Rec->Tensors.at(Name).B;
    } else {
      std::map<std::string, TensorArg> ArgsA;
      for (auto &[Name, Ten] : Inst.Tensors)
        ArgsA[Name] = TensorArg{Ten.A.data(), Ten.Shape, -1};
      ++Interpretations;
      if (Error Err = interpret(P0, Inst.Scalars, ArgsA))
        return errorf("baseline proc failed: %s", Err.message().c_str());
    }
    std::map<std::string, TensorArg> ArgsB;
    for (auto &[Name, Ten] : Inst.Tensors)
      ArgsB[Name] = TensorArg{Ten.B.data(), Ten.Shape, -1};
    ++Interpretations;
    if (Error Err = interpret(P1, Inst.Scalars, ArgsB))
      return errorf("rewritten proc failed: %s", Err.message().c_str());

    for (const Param &Pa : P0.params()) {
      if (Pa.PKind != Param::Kind::Tensor || !Pa.Mutable)
        continue;
      const auto &Ten = Inst.Tensors.at(Pa.Name);
      for (size_t I = 0; I != Ten.A.size(); ++I)
        if (Ten.A[I] != Ten.B[I])
          return errorf("results diverge in tensor '%s' at flat index %zu "
                        "(%g vs %g), trial %d",
                        Pa.Name.c_str(), I, Ten.A[I], Ten.B[I], T);
    }
    for (auto &[Name, Ten] : Inputs.Tensors)
      Ten.B = std::move(Inst.Tensors.at(Name).B);
    Passed.push_back(std::move(Inputs));
  }
  LastPass.After = P1;
  LastPass.Seed = Seed;
  LastPass.Trials = std::move(Passed);
  return Error::success();
}

Error exo::validateRewrite(const Proc &Before, const Proc &After,
                           const SchedOptions &Opts, const char *PrimName) {
  if (!Opts.Validate)
    return Error::success();
  if (Before.params().size() != After.params().size())
    return Error::success(); // Signature-changing primitives validate ad hoc.
  if (Error Err = checkProcsEquivalent(Before, After, Opts.ValidationTrials,
                                       Opts.Seed))
    return errorf("%s: rewrite failed dynamic validation: %s", PrimName,
                  Err.message().c_str());
  return Error::success();
}
