//===- Interp.cpp ---------------------------------------------------------===//
//
// Each interpret() call runs in two phases. Lowering walks the proc, and
// each instruction body it calls, once: every variable and buffer name
// becomes an integer slot of its proc, and every affine index expression
// becomes a constant plus a list of (slot, coefficient) terms. Execution
// then walks the lowered statements over flat slot arrays, so the hot path
// does no name lookups.
//
// Binding stays dynamic, as in a name-keyed environment: a loop variable is
// bound for its loop and then restored (or unbound); buffer names are
// proc-wide, so an allocation stays visible after the block that made it;
// every execution of an Alloc binds fresh zeroed storage; and an
// instruction body runs in a frame that holds only its parameters. Every
// failure is found at execution time, with the text a direct walk of the
// tree would give.
//
//===----------------------------------------------------------------------===//

#include "exo/interp/Interp.h"

#include "exo/support/Str.h"

#include <cmath>
#include <cstring>
#include <memory>

using namespace exo;

namespace {

/// A (possibly strided) view over caller or local storage.
struct BufView {
  double *Base = nullptr;
  ScalarKind Ty = ScalarKind::F32;
  std::vector<int64_t> Shape;
  std::vector<int64_t> Strides;

  int64_t rank() const { return static_cast<int64_t>(Shape.size()); }
};

/// Rounds \p V to the representable value of kind \p K (double compute,
/// typed stores).
double roundToKind(double V, ScalarKind K) {
  switch (K) {
  case ScalarKind::F16:
    return static_cast<double>(static_cast<_Float16>(V));
  case ScalarKind::BF16: {
    // Software bf16 rounding (round-to-nearest-even on f32's top 16 bits):
    // the host may lack a __bf16 arithmetic type, and the GEMM layer's
    // converters must agree with this oracle bit-for-bit.
    float F = static_cast<float>(V);
    uint32_t Bits;
    std::memcpy(&Bits, &F, sizeof(Bits));
    if ((Bits & 0x7f800000u) == 0x7f800000u && (Bits & 0x7fffffu))
      Bits |= 0x400000u; // quiet the NaN
    else
      Bits += 0x7fffu + ((Bits >> 16) & 1);
    Bits &= 0xffff0000u;
    std::memcpy(&F, &Bits, sizeof(F));
    return static_cast<double>(F);
  }
  case ScalarKind::F32:
    return static_cast<double>(static_cast<float>(V));
  case ScalarKind::F64:
    return V;
  case ScalarKind::I8:
    return static_cast<double>(static_cast<int8_t>(std::llrint(V)));
  case ScalarKind::I16:
    return static_cast<double>(static_cast<int16_t>(std::llrint(V)));
  case ScalarKind::I32:
    return static_cast<double>(static_cast<int32_t>(std::llrint(V)));
  case ScalarKind::Index:
  case ScalarKind::Bool:
    return V;
  }
  return V;
}

using Slot = uint32_t;
using NodeId = uint32_t;

/// `Coeff * var` inside an affine index expression.
struct Term {
  Slot Var;
  int64_t Coeff;
};

/// A lowered integer expression. Affine nodes cover the common case
/// (C + sum of terms); the other kinds keep the tree shape of what they
/// lower, so evaluation order and diagnostics match a direct walk.
struct IntNode {
  enum class Kind : uint8_t { Affine, BinOp, Neg, FloatConst, Read };
  Kind K = Kind::Affine;
  BinOpExpr::Op Op = BinOpExpr::Op::Add;
  int64_t C = 0;
  /// Affine: the node's terms, in order of first appearance.
  uint32_t TermBegin = 0, TermEnd = 0;
  /// BinOp: operands; Neg: L.
  NodeId L = 0, R = 0;
  const ConstExpr *Float = nullptr;
};

/// A buffer element reference `buf[idx...]`.
struct Access {
  Slot Buf = 0;
  std::vector<NodeId> Idx;
};

/// A lowered value expression.
struct ValNode {
  enum class Kind : uint8_t { Const, Int, Read, BinOp, Neg };
  Kind K = Kind::Const;
  BinOpExpr::Op Op = BinOpExpr::Op::Add;
  double C = 0;
  /// Int: the IntNode; Read: the Access; BinOp: operands; Neg: A.
  uint32_t A = 0, B = 0;
};

struct LProc;

/// A lowered call argument: a window or a scalar.
struct LArg {
  struct Dim {
    bool Point = false;
    NodeId P = 0, Lo = 0, Len = 0;
  };
  bool Window = false;
  NodeId Scalar = 0;
  Slot Buf = 0;
  std::vector<Dim> Dims;
};

/// A lowered statement; which fields are set depends on K.
struct LStmt {
  Stmt::Kind K = Stmt::Kind::Assign;
  // Assign.
  Access Target;
  NodeId Rhs = 0;
  bool Reduce = false;
  // For.
  Slot Var = 0;
  NodeId Lo = 0, Hi = 0;
  std::vector<LStmt> Body;
  // Alloc: Buf is the buffer slot, Storage its frame storage index.
  Slot Buf = 0;
  uint32_t Storage = 0;
  ScalarKind Ty = ScalarKind::F32;
  std::vector<NodeId> Dims;
  // Call.
  const CallStmt *Call = nullptr;
  const LProc *Callee = nullptr;
  std::vector<LArg> Args;
};

/// A proc with every name resolved to a slot (see file comment).
struct LProc {
  const Proc *Src = nullptr;
  std::vector<std::string> VarNames, BufNames;
  std::vector<IntNode> Ints;
  std::vector<Term> Terms;
  std::vector<ValNode> Vals;
  std::vector<Access> Accesses;
  /// Per parameter: its variable slot (scalars) or buffer slot (tensors),
  /// and, for tensors, the lowered declared shape.
  std::vector<Slot> ParamSlots;
  std::vector<std::vector<NodeId>> ParamShapes;
  std::vector<NodeId> Preconds;
  std::vector<LStmt> Body;
  uint32_t NumAllocs = 0;
};

/// The runtime state of one proc activation.
struct Frame {
  std::vector<int64_t> Ints;
  std::vector<char> IntBound;
  std::vector<BufView> Bufs;
  std::vector<char> BufBound;
  /// One buffer per Alloc statement. An Alloc's earlier buffer is visible
  /// only through the slot it rebinds, so zeroing and reusing it is the
  /// same as fresh storage.
  std::vector<std::vector<double>> Storage;

  /// Unbinds every slot for an activation of \p P. Frames are reused
  /// across calls, so views and storage only ever grow (no reallocation
  /// in the steady state).
  void reset(const LProc &P) {
    Ints.assign(P.VarNames.size(), 0);
    IntBound.assign(P.VarNames.size(), 0);
    if (Bufs.size() < P.BufNames.size())
      Bufs.resize(P.BufNames.size());
    BufBound.assign(P.BufNames.size(), 0);
    if (Storage.size() < P.NumAllocs)
      Storage.resize(P.NumAllocs);
  }
};

/// Builds one LProc; names are resolved against maps that live only while
/// lowering.
class Lowerer {
public:
  Lowerer(LProc &P, std::map<const Proc *, std::unique_ptr<LProc>> &Memo)
      : P(P), Memo(Memo) {}

  void run(const Proc &Src) {
    P.Src = &Src;
    for (const Param &Pa : Src.params()) {
      if (Pa.PKind != Param::Kind::Tensor) {
        P.ParamSlots.push_back(varSlot(Pa.Name));
        P.ParamShapes.emplace_back();
        continue;
      }
      P.ParamSlots.push_back(bufSlot(Pa.Name));
      std::vector<NodeId> Shape;
      for (const ExprPtr &D : Pa.Shape)
        Shape.push_back(lowerInt(D));
      P.ParamShapes.push_back(std::move(Shape));
    }
    for (const ExprPtr &Pre : Src.preconds())
      P.Preconds.push_back(lowerInt(Pre));
    P.Body = lowerBody(Src.body());
  }

private:
  Slot slotOf(std::map<std::string, Slot> &Map,
              std::vector<std::string> &Names, const std::string &Name) {
    auto [It, Inserted] =
        Map.try_emplace(Name, static_cast<Slot>(Names.size()));
    if (Inserted)
      Names.push_back(Name);
    return It->second;
  }
  Slot varSlot(const std::string &N) { return slotOf(Vars, P.VarNames, N); }
  Slot bufSlot(const std::string &N) { return slotOf(Bufs, P.BufNames, N); }

  /// Adds Coeff * var to \p Ts. A variable keeps its first position, even
  /// when its coefficient cancels to zero: it must still be bound.
  static void addTerm(std::vector<Term> &Ts, Slot Var, int64_t Coeff) {
    for (Term &T : Ts)
      if (T.Var == Var) {
        T.Coeff += Coeff;
        return;
      }
    Ts.push_back({Var, Coeff});
  }

  /// Adds \p E * Scale to the affine form (C, Terms); false when \p E is
  /// not affine. Terms keep their order of first appearance so the first
  /// unbound variable reported is the one a left-to-right walk meets.
  bool affine(const ExprPtr &E, int64_t Scale, int64_t &C,
              std::vector<Term> &Ts) {
    switch (E->kind()) {
    case Expr::Kind::Const:
      if (isFloatKind(E->type()))
        return false;
      C += Scale * cast<ConstExpr>(E)->intValue();
      return true;
    case Expr::Kind::Var:
      addTerm(Ts, varSlot(cast<VarExpr>(E)->name()), Scale);
      return true;
    case Expr::Kind::USub:
      return affine(cast<USubExpr>(E)->operand(), -Scale, C, Ts);
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      switch (B->op()) {
      case BinOpExpr::Op::Add:
        return affine(B->lhs(), Scale, C, Ts) &&
               affine(B->rhs(), Scale, C, Ts);
      case BinOpExpr::Op::Sub:
        return affine(B->lhs(), Scale, C, Ts) &&
               affine(B->rhs(), -Scale, C, Ts);
      case BinOpExpr::Op::Mul: {
        // Affine when one side is a constant: an affine form without
        // terms, which cannot fail to evaluate.
        int64_t LC = 0, RC = 0;
        std::vector<Term> LT, RT;
        if (!affine(B->lhs(), 1, LC, LT) || !affine(B->rhs(), 1, RC, RT) ||
            (!LT.empty() && !RT.empty()))
          return false;
        C += Scale * LC * RC;
        const int64_t K = LT.empty() ? LC : RC;
        for (const Term &T : LT.empty() ? RT : LT)
          addTerm(Ts, T.Var, Scale * K * T.Coeff);
        return true;
      }
      default:
        return false;
      }
    }
    case Expr::Kind::Read:
      return false;
    }
    return false;
  }

  NodeId addInt(IntNode N) {
    P.Ints.push_back(N);
    return static_cast<NodeId>(P.Ints.size() - 1);
  }

  NodeId lowerInt(const ExprPtr &E) {
    IntNode N;
    int64_t C = 0;
    std::vector<Term> Ts;
    if (affine(E, 1, C, Ts)) {
      N.C = C;
      N.TermBegin = static_cast<uint32_t>(P.Terms.size());
      P.Terms.insert(P.Terms.end(), Ts.begin(), Ts.end());
      N.TermEnd = static_cast<uint32_t>(P.Terms.size());
      return addInt(N);
    }
    switch (E->kind()) {
    case Expr::Kind::Const:
      N.K = IntNode::Kind::FloatConst;
      N.Float = cast<ConstExpr>(E);
      break;
    case Expr::Kind::USub:
      N.K = IntNode::Kind::Neg;
      N.L = lowerInt(cast<USubExpr>(E)->operand());
      break;
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      N.K = IntNode::Kind::BinOp;
      N.Op = B->op();
      N.L = lowerInt(B->lhs());
      N.R = lowerInt(B->rhs());
      break;
    }
    case Expr::Kind::Read:
      N.K = IntNode::Kind::Read;
      break;
    case Expr::Kind::Var:
      break; // always affine
    }
    return addInt(N);
  }

  Access lowerAccess(const std::string &Buf, const std::vector<ExprPtr> &Idx) {
    Access A;
    A.Buf = bufSlot(Buf);
    for (const ExprPtr &I : Idx)
      A.Idx.push_back(lowerInt(I));
    return A;
  }

  NodeId lowerVal(const ExprPtr &E) {
    ValNode N;
    switch (E->kind()) {
    case Expr::Kind::Const:
      N.K = ValNode::Kind::Const;
      N.C = cast<ConstExpr>(E)->floatValue();
      break;
    case Expr::Kind::Var:
      N.K = ValNode::Kind::Int;
      N.A = lowerInt(E);
      break;
    case Expr::Kind::Read: {
      const auto *R = cast<ReadExpr>(E);
      N.K = ValNode::Kind::Read;
      P.Accesses.push_back(lowerAccess(R->buffer(), R->indices()));
      N.A = static_cast<uint32_t>(P.Accesses.size() - 1);
      break;
    }
    case Expr::Kind::USub:
      N.K = ValNode::Kind::Neg;
      N.A = lowerVal(cast<USubExpr>(E)->operand());
      break;
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      N.K = ValNode::Kind::BinOp;
      N.Op = B->op();
      N.A = lowerVal(B->lhs());
      N.B = lowerVal(B->rhs());
      break;
    }
    }
    P.Vals.push_back(N);
    return static_cast<NodeId>(P.Vals.size() - 1);
  }

  std::vector<LStmt> lowerBody(const std::vector<StmtPtr> &Body) {
    std::vector<LStmt> Out;
    Out.reserve(Body.size());
    for (const StmtPtr &S : Body)
      Out.push_back(lowerStmt(S));
    return Out;
  }

  LStmt lowerStmt(const StmtPtr &S) {
    LStmt L;
    L.K = S->kind();
    switch (S->kind()) {
    case Stmt::Kind::Assign: {
      const auto *A = castS<AssignStmt>(S);
      L.Target = lowerAccess(A->buffer(), A->indices());
      L.Rhs = lowerVal(A->rhs());
      L.Reduce = A->isReduce();
      break;
    }
    case Stmt::Kind::For: {
      const auto *F = castS<ForStmt>(S);
      L.Var = varSlot(F->loopVar());
      L.Lo = lowerInt(F->lo());
      L.Hi = lowerInt(F->hi());
      L.Body = lowerBody(F->body());
      break;
    }
    case Stmt::Kind::Alloc: {
      const auto *A = castS<AllocStmt>(S);
      L.Buf = bufSlot(A->name());
      L.Storage = P.NumAllocs++;
      L.Ty = A->elemType();
      for (const ExprPtr &D : A->shape())
        L.Dims.push_back(lowerInt(D));
      break;
    }
    case Stmt::Kind::Call: {
      const auto *C = castS<CallStmt>(S);
      L.Call = C;
      L.Callee = lowerProc(C->callee()->semantics(), Memo);
      for (const CallArg &A : C->args()) {
        LArg LA;
        LA.Window = A.isWindow();
        if (!LA.Window) {
          LA.Scalar = lowerInt(A.Scalar);
          L.Args.push_back(std::move(LA));
          continue;
        }
        LA.Buf = bufSlot(A.Buf);
        for (const WindowDim &W : A.Dims) {
          LArg::Dim D;
          D.Point = W.isPoint();
          if (D.Point) {
            D.P = lowerInt(W.Point);
          } else {
            D.Lo = lowerInt(W.Lo);
            D.Len = lowerInt(W.Len);
          }
          LA.Dims.push_back(D);
        }
        L.Args.push_back(std::move(LA));
      }
      break;
    }
    }
    return L;
  }

public:
  /// The lowered form of \p Src, built once per interpret() call. The memo
  /// entry exists before the body is lowered, so a self-referencing
  /// instruction cannot recurse forever here.
  static const LProc *
  lowerProc(const Proc &Src,
            std::map<const Proc *, std::unique_ptr<LProc>> &Memo) {
    auto [It, Inserted] = Memo.try_emplace(&Src);
    if (!Inserted)
      return It->second.get();
    It->second = std::make_unique<LProc>();
    LProc &Out = *It->second;
    Lowerer(Out, Memo).run(Src);
    return &Out;
  }

private:
  LProc &P;
  std::map<const Proc *, std::unique_ptr<LProc>> &Memo;
  std::map<std::string, Slot> Vars, Bufs;
};

class Machine {
public:
  Error run(const Proc &P, const std::map<std::string, int64_t> &Scalars,
            const std::map<std::string, TensorArg> &Tensors);

private:
  Error bindParams(const LProc &P, Frame &F,
                   const std::map<std::string, int64_t> &Scalars,
                   const std::map<std::string, TensorArg> &Tensors);
  Error execBody(const LProc &P, Frame &F, const std::vector<LStmt> &Body);
  Error execStmt(const LProc &P, Frame &F, const LStmt &S);
  Error execCall(const LProc &P, Frame &F, const LStmt &S);
  Error bindArgs(const LProc &P, const Frame &F, const LStmt &S, Frame &Sub);
  Error evalInt(const LProc &P, const Frame &F, NodeId N, int64_t &Out);
  Error evalValue(const LProc &P, const Frame &F, NodeId N, double &Out);
  Error elemAddr(const LProc &P, const Frame &F, const Access &A,
                 double *&Addr, ScalarKind &Ty);

  std::map<const Proc *, std::unique_ptr<LProc>> Lowered;
  /// Frames by call depth, reused across calls so a steady-state
  /// instruction call allocates nothing.
  std::vector<std::unique_ptr<Frame>> Frames;
  size_t Depth = 0;
};

Error Machine::evalInt(const LProc &P, const Frame &F, NodeId Id,
                       int64_t &Out) {
  const IntNode &N = P.Ints[Id];
  switch (N.K) {
  case IntNode::Kind::Affine: {
    int64_t V = N.C;
    for (uint32_t T = N.TermBegin; T != N.TermEnd; ++T) {
      const Term &Tm = P.Terms[T];
      if (!F.IntBound[Tm.Var])
        return errorf("unbound variable '%s'", P.VarNames[Tm.Var].c_str());
      V += Tm.Coeff * F.Ints[Tm.Var];
    }
    Out = V;
    return Error::success();
  }
  case IntNode::Kind::FloatConst:
    Out = N.Float->intValue();
    return Error::success();
  case IntNode::Kind::Neg:
    if (Error Err = evalInt(P, F, N.L, Out))
      return Err;
    Out = -Out;
    return Error::success();
  case IntNode::Kind::BinOp: {
    int64_t L, R;
    if (Error Err = evalInt(P, F, N.L, L))
      return Err;
    if (Error Err = evalInt(P, F, N.R, R))
      return Err;
    switch (N.Op) {
    case BinOpExpr::Op::Add:
      Out = L + R;
      return Error::success();
    case BinOpExpr::Op::Sub:
      Out = L - R;
      return Error::success();
    case BinOpExpr::Op::Mul:
      Out = L * R;
      return Error::success();
    case BinOpExpr::Op::Div:
      if (R == 0)
        return errorf("division by zero in index expression");
      Out = L / R;
      return Error::success();
    case BinOpExpr::Op::Mod:
      if (R == 0)
        return errorf("modulo by zero in index expression");
      Out = L % R;
      return Error::success();
    case BinOpExpr::Op::Lt:
      Out = L < R;
      return Error::success();
    case BinOpExpr::Op::Le:
      Out = L <= R;
      return Error::success();
    case BinOpExpr::Op::Gt:
      Out = L > R;
      return Error::success();
    case BinOpExpr::Op::Ge:
      Out = L >= R;
      return Error::success();
    case BinOpExpr::Op::Eq:
      Out = L == R;
      return Error::success();
    }
    return errorf("unknown integer binop");
  }
  case IntNode::Kind::Read:
    return errorf("buffer read in index expression");
  }
  return errorf("unknown expression kind");
}

Error Machine::elemAddr(const LProc &P, const Frame &F, const Access &A,
                        double *&Addr, ScalarKind &Ty) {
  const std::string &Buf = P.BufNames[A.Buf];
  if (!F.BufBound[A.Buf])
    return errorf("access to unknown buffer '%s'", Buf.c_str());
  const BufView &V = F.Bufs[A.Buf];
  if (static_cast<int64_t>(A.Idx.size()) != V.rank())
    return errorf("buffer '%s' has rank %lld, accessed with %zu indices",
                  Buf.c_str(), static_cast<long long>(V.rank()),
                  A.Idx.size());
  int64_t Off = 0;
  for (size_t D = 0; D != A.Idx.size(); ++D) {
    int64_t I;
    if (Error Err = evalInt(P, F, A.Idx[D], I))
      return Err;
    if (I < 0 || I >= V.Shape[D])
      return errorf("out-of-bounds access %s[dim %zu] = %lld, extent %lld",
                    Buf.c_str(), D, static_cast<long long>(I),
                    static_cast<long long>(V.Shape[D]));
    Off += I * V.Strides[D];
  }
  Addr = V.Base + Off;
  Ty = V.Ty;
  return Error::success();
}

Error Machine::evalValue(const LProc &P, const Frame &F, NodeId Id,
                         double &Out) {
  const ValNode &N = P.Vals[Id];
  switch (N.K) {
  case ValNode::Kind::Const:
    Out = N.C;
    return Error::success();
  case ValNode::Kind::Int: {
    int64_t I;
    if (Error Err = evalInt(P, F, N.A, I))
      return Err;
    Out = static_cast<double>(I);
    return Error::success();
  }
  case ValNode::Kind::Read: {
    double *Addr;
    ScalarKind Ty;
    if (Error Err = elemAddr(P, F, P.Accesses[N.A], Addr, Ty))
      return Err;
    Out = *Addr;
    return Error::success();
  }
  case ValNode::Kind::Neg:
    if (Error Err = evalValue(P, F, N.A, Out))
      return Err;
    Out = -Out;
    return Error::success();
  case ValNode::Kind::BinOp: {
    double L, R;
    if (Error Err = evalValue(P, F, N.A, L))
      return Err;
    if (Error Err = evalValue(P, F, N.B, R))
      return Err;
    switch (N.Op) {
    case BinOpExpr::Op::Add:
      Out = L + R;
      return Error::success();
    case BinOpExpr::Op::Sub:
      Out = L - R;
      return Error::success();
    case BinOpExpr::Op::Mul:
      Out = L * R;
      return Error::success();
    case BinOpExpr::Op::Div:
      Out = L / R;
      return Error::success();
    default:
      return errorf("operator %s not valid in value expressions",
                    BinOpExpr::opName(N.Op));
    }
  }
  }
  return errorf("unknown expression kind");
}

/// Binds the callee frame \p Sub from the call's arguments, evaluated in
/// the caller's frame \p F.
Error Machine::bindArgs(const LProc &P, const Frame &F, const LStmt &S,
                        Frame &Sub) {
  const CallStmt &C = *S.Call;
  const LProc &Callee = *S.Callee;
  const auto &Params = Callee.Src->params();
  for (size_t I = 0; I != S.Args.size(); ++I) {
    const Param &Pa = Params[I];
    const LArg &A = S.Args[I];
    const Slot To = Callee.ParamSlots[I];
    if (Pa.PKind != Param::Kind::Tensor) {
      if (A.Window)
        return errorf("call to '%s': window passed for scalar param '%s'",
                      C.callee()->name().c_str(), Pa.Name.c_str());
      if (Error Err = evalInt(P, F, A.Scalar, Sub.Ints[To]))
        return Err;
      Sub.IntBound[To] = 1;
      continue;
    }
    if (!A.Window)
      return errorf("call to '%s': scalar passed for tensor param '%s'",
                    C.callee()->name().c_str(), Pa.Name.c_str());
    const std::string &Buf = P.BufNames[A.Buf];
    if (!F.BufBound[A.Buf])
      return errorf("call references unknown buffer '%s'", Buf.c_str());
    const BufView &Parent = F.Bufs[A.Buf];
    if (static_cast<int64_t>(A.Dims.size()) != Parent.rank())
      return errorf("window into '%s' has %zu dims, buffer rank %lld",
                    Buf.c_str(), A.Dims.size(),
                    static_cast<long long>(Parent.rank()));
    BufView &View = Sub.Bufs[To];
    View.Ty = Parent.Ty;
    View.Shape.clear();
    View.Strides.clear();
    int64_t Off = 0;
    for (size_t D = 0; D != A.Dims.size(); ++D) {
      const LArg::Dim &W = A.Dims[D];
      if (W.Point) {
        int64_t Pt;
        if (Error Err = evalInt(P, F, W.P, Pt))
          return Err;
        if (Pt < 0 || Pt >= Parent.Shape[D])
          return errorf("window point %lld out of bounds in '%s' dim %zu",
                        static_cast<long long>(Pt), Buf.c_str(), D);
        Off += Pt * Parent.Strides[D];
        continue;
      }
      int64_t Lo, Len;
      if (Error Err = evalInt(P, F, W.Lo, Lo))
        return Err;
      if (Error Err = evalInt(P, F, W.Len, Len))
        return Err;
      if (Lo < 0 || Len < 0 || Lo + Len > Parent.Shape[D])
        return errorf("window [%lld, +%lld) out of bounds in '%s' dim %zu",
                      static_cast<long long>(Lo),
                      static_cast<long long>(Len), Buf.c_str(), D);
      Off += Lo * Parent.Strides[D];
      View.Shape.push_back(Len);
      View.Strides.push_back(Parent.Strides[D]);
    }
    View.Base = Parent.Base + Off;

    // Check the window rank matches the instruction parameter's rank.
    if (View.Shape.size() != Pa.Shape.size())
      return errorf("window for '%s' has rank %zu, param wants %zu",
                    Pa.Name.c_str(), View.Shape.size(), Pa.Shape.size());
    Sub.BufBound[To] = 1;
  }
  return Error::success();
}

Error Machine::execCall(const LProc &P, Frame &F, const LStmt &S) {
  const CallStmt &C = *S.Call;
  const LProc &Callee = *S.Callee;
  const size_t NParams = Callee.Src->params().size();
  if (NParams != S.Args.size())
    return errorf("call to '%s': %zu args for %zu params",
                  C.callee()->name().c_str(), S.Args.size(), NParams);

  // Run the callee body in a fresh frame sharing storage views.
  if (Depth == Frames.size())
    Frames.push_back(std::make_unique<Frame>());
  Frame &Sub = *Frames[Depth];
  Sub.reset(Callee);
  ++Depth;
  Error Err = bindArgs(P, F, S, Sub);
  if (!Err)
    Err = execBody(Callee, Sub, Callee.Body);
  --Depth;
  return Err;
}

Error Machine::execStmt(const LProc &P, Frame &F, const LStmt &S) {
  switch (S.K) {
  case Stmt::Kind::Assign: {
    double *Addr;
    ScalarKind Ty;
    if (Error Err = elemAddr(P, F, S.Target, Addr, Ty))
      return Err;
    double V;
    if (Error Err = evalValue(P, F, S.Rhs, V))
      return Err;
    *Addr = roundToKind(S.Reduce ? *Addr + V : V, Ty);
    return Error::success();
  }
  case Stmt::Kind::For: {
    int64_t Lo, Hi;
    if (Error Err = evalInt(P, F, S.Lo, Lo))
      return Err;
    if (Error Err = evalInt(P, F, S.Hi, Hi))
      return Err;
    const int64_t Saved = F.Ints[S.Var];
    const char SavedBound = F.IntBound[S.Var];
    F.IntBound[S.Var] = 1;
    for (int64_t I = Lo; I < Hi; ++I) {
      F.Ints[S.Var] = I;
      if (Error Err = execBody(P, F, S.Body))
        return Err;
    }
    F.Ints[S.Var] = Saved;
    F.IntBound[S.Var] = SavedBound;
    return Error::success();
  }
  case Stmt::Kind::Alloc: {
    BufView &V = F.Bufs[S.Buf];
    V.Ty = S.Ty;
    V.Shape.clear();
    int64_t Total = 1;
    for (NodeId D : S.Dims) {
      int64_t E;
      if (Error Err = evalInt(P, F, D, E))
        return Err;
      if (E < 0)
        return errorf("negative extent in allocation '%s'",
                      P.BufNames[S.Buf].c_str());
      V.Shape.push_back(E);
      Total *= E;
    }
    // Dense row-major strides.
    V.Strides.assign(V.Shape.size(), 1);
    for (int D = static_cast<int>(V.Shape.size()) - 2; D >= 0; --D)
      V.Strides[D] = V.Strides[D + 1] * V.Shape[D + 1];
    std::vector<double> &Mem = F.Storage[S.Storage];
    Mem.assign(static_cast<size_t>(Total), 0.0);
    V.Base = Mem.data();
    F.BufBound[S.Buf] = 1;
    return Error::success();
  }
  case Stmt::Kind::Call:
    return execCall(P, F, S);
  }
  return errorf("unknown statement kind");
}

Error Machine::execBody(const LProc &P, Frame &F,
                        const std::vector<LStmt> &Body) {
  for (const LStmt &S : Body)
    if (Error Err = execStmt(P, F, S))
      return Err;
  return Error::success();
}

Error Machine::bindParams(const LProc &P, Frame &F,
                          const std::map<std::string, int64_t> &Scalars,
                          const std::map<std::string, TensorArg> &Tensors) {
  const auto &Params = P.Src->params();
  for (size_t PI = 0; PI != Params.size(); ++PI) {
    const Param &Pa = Params[PI];
    const Slot To = P.ParamSlots[PI];
    if (Pa.PKind != Param::Kind::Tensor) {
      auto It = Scalars.find(Pa.Name);
      if (It == Scalars.end())
        return errorf("missing scalar argument '%s'", Pa.Name.c_str());
      if (Pa.PKind == Param::Kind::Size && It->second <= 0)
        return errorf("size '%s' must be positive, got %lld", Pa.Name.c_str(),
                      static_cast<long long>(It->second));
      F.Ints[To] = It->second;
      F.IntBound[To] = 1;
      continue;
    }
    auto It = Tensors.find(Pa.Name);
    if (It == Tensors.end())
      return errorf("missing tensor argument '%s'", Pa.Name.c_str());
    const TensorArg &T = It->second;
    BufView V;
    V.Base = T.Data;
    V.Ty = Pa.Ty;
    // Declared shape, evaluated with the size environment.
    for (NodeId D : P.ParamShapes[PI]) {
      int64_t E;
      if (Error Err = evalInt(P, F, D, E))
        return Err;
      V.Shape.push_back(E);
    }
    if (V.Shape != T.Shape)
      return errorf("tensor '%s' shape mismatch", Pa.Name.c_str());
    V.Strides.assign(V.Shape.size(), 1);
    for (int D = static_cast<int>(V.Shape.size()) - 2; D >= 0; --D)
      V.Strides[D] = V.Strides[D + 1] * V.Shape[D + 1];
    if (!Pa.LeadStrideVar.empty()) {
      auto LS = Scalars.find(Pa.LeadStrideVar);
      int64_t Lead = T.LeadStride;
      if (LS != Scalars.end())
        Lead = LS->second;
      if (Lead < 0)
        return errorf("tensor '%s' needs a leading stride", Pa.Name.c_str());
      V.Strides[0] = Lead;
    } else if (T.LeadStride >= 0 && !V.Strides.empty()) {
      V.Strides[0] = T.LeadStride;
    }
    F.Bufs[To] = std::move(V);
    F.BufBound[To] = 1;
  }

  // Check preconditions.
  for (NodeId Pre : P.Preconds) {
    int64_t V;
    if (Error Err = evalInt(P, F, Pre, V))
      return Err;
    if (!V)
      return errorf("precondition failed in '%s'", P.Src->name().c_str());
  }
  return Error::success();
}

Error Machine::run(const Proc &P, const std::map<std::string, int64_t> &Scalars,
                   const std::map<std::string, TensorArg> &Tensors) {
  const LProc &L = *Lowerer::lowerProc(P, Lowered);
  Frames.push_back(std::make_unique<Frame>());
  Frame &F = *Frames.back();
  F.reset(L);
  Depth = 1;
  if (Error Err = bindParams(L, F, Scalars, Tensors))
    return Err;
  return execBody(L, F, L.Body);
}

} // namespace

Error exo::interpret(const Proc &P,
                     const std::map<std::string, int64_t> &Scalars,
                     const std::map<std::string, TensorArg> &Tensors) {
  Machine M;
  return M.run(P, Scalars, Tensors);
}
