//===- Sample.cpp - Fuzz sample model, serialization, application ---------===//

#include "exo/fuzz/Fuzz.h"
#include "exo/fuzz/FuzzInternal.h"

#include "exo/jit/DiskCache.h"
#include "exo/sched/Schedule.h"
#include "exo/support/Str.h"
#include "ukr/UkrSchedule.h"
#include "ukr/UkrSpec.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace exo;
using namespace exo::fuzz;

namespace {

SchedOptions fastOpts() { return detail::fastSchedOpts(); }

std::optional<ScalarKind> scalarKindFromName(const std::string &Name) {
  for (ScalarKind K : {ScalarKind::F16, ScalarKind::BF16, ScalarKind::F32,
                       ScalarKind::F64, ScalarKind::I8})
    if (Name == scalarKindName(K))
      return K;
  return std::nullopt;
}

} // namespace

Expected<ukr::UkrConfig> detail::sampleUkrConfig(const FuzzSample &S,
                                                 const std::string &IsaName,
                                                 const std::string &StyleName,
                                                 bool UnrollLoads) {
  ukr::UkrConfig Cfg;
  Cfg.MR = S.MR;
  Cfg.NR = S.NR;
  std::optional<ScalarKind> Ty = scalarKindFromName(S.Ty);
  if (!Ty)
    return errorf("fuzz: unknown element type '%s'", S.Ty.c_str());
  Cfg.Ty = *Ty;
  if (IsaName != "none") {
    Cfg.Isa = findIsa(IsaName);
    if (!Cfg.Isa)
      return errorf("fuzz: unknown isa '%s'", IsaName.c_str());
  }
  if (StyleName == "auto")
    Cfg.Style = ukr::FmaStyle::Auto;
  else if (StyleName == "lane")
    Cfg.Style = ukr::FmaStyle::Lane;
  else if (StyleName == "bcst")
    Cfg.Style = ukr::FmaStyle::Broadcast;
  else if (StyleName == "scalar" || IsaName == "none")
    Cfg.Style = ukr::FmaStyle::Scalar;
  else
    return errorf("fuzz: unknown style '%s'", StyleName.c_str());
  if (IsaName == "none")
    Cfg.Style = ukr::FmaStyle::Scalar;
  Cfg.UnrollLoads = UnrollLoads;
  Cfg.UnrollCompute = S.UnrollCompute;
  Cfg.GeneralAlphaBeta = S.GeneralAlphaBeta;
  Cfg.WidenAcc = S.WidenAcc;
  return Cfg;
}

namespace {

/// Simulated rewrite bug: the first loop of the body silently loses its
/// last iteration. Deterministic, semantics-breaking for every sample whose
/// first loop does work, and exactly the class of bound bug a broken
/// divide/cut tail would produce.
Proc dropLastIterationOfFirstLoop(const Proc &P) {
  std::vector<StmtPtr> Body = P.body();
  for (StmtPtr &S : Body) {
    if (const auto *F = dyn_castS<ForStmt>(S)) {
      S = ForStmt::make(F->loopVar(), F->lo(),
                        BinOpExpr::make(BinOpExpr::Op::Sub, F->hi(), idx(1)),
                        F->body());
      break;
    }
  }
  return P.withBody(std::move(Body));
}

/// The unscheduled reference spec for a sample, renamed to \p Name and with
/// MR/NR specialized (the paper's Fig. 6 partial evaluation).
Expected<Proc> makeSpec(const FuzzSample &S, const std::string &Name) {
  std::optional<ScalarKind> Ty = scalarKindFromName(S.Ty);
  if (!Ty)
    return errorf("fuzz: unknown element type '%s'", S.Ty.c_str());
  if (S.WidenAcc && S.GeneralAlphaBeta)
    return errorf("fuzz: widen_acc has no axpby spec");
  Proc Ref = S.GeneralAlphaBeta ? ukr::makeUkernelRefFull(*Ty)
             : S.WidenAcc ? ukr::makeUkernelRef(*Ty, dotAccumKind(*Ty))
                          : ukr::makeUkernelRef(*Ty);
  return partialEval(renameProc(Ref, Name), {{"MR", S.MR}, {"NR", S.NR}});
}

Expected<Proc> applyChainStep(const Proc &P, const RewriteStep &St) {
  switch (St.K) {
  case RewriteStep::Kind::Divide:
    return divideLoop(P, St.Pattern, St.Factor, St.Outer, St.Inner,
                      St.Perfect, fastOpts());
  case RewriteStep::Kind::Reorder:
    return reorderLoops(P, St.Pattern, fastOpts());
  case RewriteStep::Kind::Unroll:
    return unrollLoop(P, St.Pattern, fastOpts());
  case RewriteStep::Kind::Cut:
    return cutLoop(P, St.Pattern, St.Factor, fastOpts());
  case RewriteStep::Kind::Fuse:
    return fuseLoops(P, St.Pattern, fastOpts());
  case RewriteStep::Kind::Vectorize:
    return errorf("vectorize is handled by applySample");
  }
  return errorf("unknown step kind");
}

} // namespace

std::string RewriteStep::describe() const {
  switch (K) {
  case Kind::Divide:
    return strf("divide |%s| %lld %s %s %d", Pattern.c_str(),
                static_cast<long long>(Factor), Outer.c_str(), Inner.c_str(),
                Perfect ? 1 : 0);
  case Kind::Reorder:
    return strf("reorder |%s|", Pattern.c_str());
  case Kind::Unroll:
    return strf("unroll |%s|", Pattern.c_str());
  case Kind::Cut:
    return strf("cut |%s| %lld", Pattern.c_str(),
                static_cast<long long>(Factor));
  case Kind::Fuse:
    return strf("fuse |%s|", Pattern.c_str());
  case Kind::Vectorize:
    return strf("vectorize %s %s %d", Isa.c_str(), Style.c_str(),
                UnrollLoads ? 1 : 0);
  }
  return "?";
}

std::string FuzzSample::summary() const {
  std::string S =
      strf("%s %lldx%lld kc=%lld slack=%lld %s isa=%s style=%s",
           M == Mode::Recipe ? "recipe" : "chain",
           static_cast<long long>(MR), static_cast<long long>(NR),
           static_cast<long long>(KC), static_cast<long long>(LdcSlack),
           Ty.c_str(), Isa.c_str(), Style.c_str());
  if (WidenAcc)
    S += " widen";
  if (GeneralAlphaBeta)
    S += " axpby";
  if (!Steps.empty())
    S += strf(" steps=%zu", Steps.size());
  if (!Fault.empty())
    S += " fault='" + Fault + "'";
  return S;
}

std::string fuzz::serializeSample(const FuzzSample &S) {
  std::ostringstream O;
  O << "exo-fuzz-repro v1\n";
  O << "mode " << (S.M == FuzzSample::Mode::Recipe ? "recipe" : "chain")
    << "\n";
  O << "seed " << S.Seed << "\n";
  O << "shape " << S.MR << " " << S.NR << " " << S.KC << " " << S.LdcSlack
    << "\n";
  O << "ty " << S.Ty << "\n";
  if (S.WidenAcc)
    O << "widen_acc 1\n";
  O << "isa " << S.Isa << "\n";
  O << "style " << S.Style << "\n";
  O << "unroll_loads " << (S.UnrollLoads ? 1 : 0) << "\n";
  O << "unroll_compute " << (S.UnrollCompute ? 1 : 0) << "\n";
  O << "axpby " << (S.GeneralAlphaBeta ? 1 : 0) << "\n";
  if (!S.Fault.empty())
    O << "fault " << S.Fault << "\n";
  for (const RewriteStep &St : S.Steps)
    O << "step " << St.describe() << "\n";
  return O.str();
}

namespace {

/// Parses one `step <kind> ...` payload (the describe() format).
Expected<RewriteStep> parseStep(const std::string &Line) {
  RewriteStep St;
  std::istringstream In(Line);
  std::string Kind;
  In >> Kind;

  auto ReadPattern = [&](std::string &Out) -> bool {
    std::string Rest;
    std::getline(In, Rest);
    size_t A = Rest.find('|');
    size_t B = Rest.rfind('|');
    if (A == std::string::npos || B <= A)
      return false;
    Out = Rest.substr(A + 1, B - A - 1);
    In = std::istringstream(Rest.substr(B + 1));
    return true;
  };

  if (Kind == "divide") {
    St.K = RewriteStep::Kind::Divide;
    if (!ReadPattern(St.Pattern))
      return errorf("step: bad pattern in '%s'", Line.c_str());
    int P = 0;
    if (!(In >> St.Factor >> St.Outer >> St.Inner >> P))
      return errorf("step: bad divide args in '%s'", Line.c_str());
    St.Perfect = P != 0;
  } else if (Kind == "reorder" || Kind == "unroll" || Kind == "fuse") {
    St.K = Kind == "reorder"  ? RewriteStep::Kind::Reorder
           : Kind == "unroll" ? RewriteStep::Kind::Unroll
                              : RewriteStep::Kind::Fuse;
    if (!ReadPattern(St.Pattern))
      return errorf("step: bad pattern in '%s'", Line.c_str());
  } else if (Kind == "cut") {
    St.K = RewriteStep::Kind::Cut;
    if (!ReadPattern(St.Pattern) || !(In >> St.Factor))
      return errorf("step: bad cut args in '%s'", Line.c_str());
  } else if (Kind == "vectorize") {
    St.K = RewriteStep::Kind::Vectorize;
    int U = 0;
    if (!(In >> St.Isa >> St.Style >> U))
      return errorf("step: bad vectorize args in '%s'", Line.c_str());
    St.UnrollLoads = U != 0;
  } else {
    return errorf("step: unknown kind '%s'", Kind.c_str());
  }
  return St;
}

} // namespace

Expected<FuzzSample> fuzz::parseSample(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "exo-fuzz-repro v1")
    return errorf("repro: missing 'exo-fuzz-repro v1' header");

  FuzzSample S;
  S.UnrollLoads = false; // All fields come from the file.
  int LineNo = 1;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream L(Line);
    std::string Key;
    L >> Key;
    if (Key == "mode") {
      std::string V;
      L >> V;
      if (V == "recipe")
        S.M = FuzzSample::Mode::Recipe;
      else if (V == "chain")
        S.M = FuzzSample::Mode::Chain;
      else
        return errorf("repro:%d: bad mode '%s'", LineNo, V.c_str());
    } else if (Key == "seed") {
      L >> S.Seed;
    } else if (Key == "shape") {
      if (!(L >> S.MR >> S.NR >> S.KC >> S.LdcSlack))
        return errorf("repro:%d: bad shape line", LineNo);
    } else if (Key == "ty") {
      L >> S.Ty;
    } else if (Key == "widen_acc") {
      int V = 0;
      L >> V;
      S.WidenAcc = V != 0;
    } else if (Key == "isa") {
      L >> S.Isa;
    } else if (Key == "style") {
      L >> S.Style;
    } else if (Key == "unroll_loads") {
      int V = 0;
      L >> V;
      S.UnrollLoads = V != 0;
    } else if (Key == "unroll_compute") {
      int V = 0;
      L >> V;
      S.UnrollCompute = V != 0;
    } else if (Key == "axpby") {
      int V = 0;
      L >> V;
      S.GeneralAlphaBeta = V != 0;
    } else if (Key == "fault") {
      std::string Rest;
      std::getline(L, Rest);
      size_t B = Rest.find_first_not_of(' ');
      S.Fault = B == std::string::npos ? "" : Rest.substr(B);
    } else if (Key == "step") {
      std::string Rest;
      std::getline(L, Rest);
      size_t B = Rest.find_first_not_of(' ');
      auto St = parseStep(B == std::string::npos ? Rest : Rest.substr(B));
      if (!St)
        return errorf("repro:%d: %s", LineNo, St.message().c_str());
      S.Steps.push_back(St.take());
    } else {
      return errorf("repro:%d: unknown key '%s'", LineNo, Key.c_str());
    }
  }
  if (S.MR <= 0 || S.NR <= 0 || S.KC <= 0 || S.LdcSlack < 0)
    return errorf("repro: shape values must be positive");
  return S;
}

Expected<FuzzSample> fuzz::loadSampleFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return errorf("repro: cannot open '%s'", Path.c_str());
  std::ostringstream O;
  O << In.rdbuf();
  return parseSample(O.str());
}

Error fuzz::saveSampleFile(const FuzzSample &S, const std::string &Path) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return errorf("repro: cannot write '%s'", Path.c_str());
  Out << serializeSample(S);
  Out.flush();
  if (!Out)
    return errorf("repro: write to '%s' failed", Path.c_str());
  return Error::success();
}

Expected<AppliedSample> fuzz::applySample(const FuzzSample &S) {
  if (S.MR <= 0 || S.NR <= 0 || S.KC <= 0)
    return errorf("fuzz: non-positive shape");

  AppliedSample Out;

  if (S.M == FuzzSample::Mode::Recipe) {
    auto Cfg = detail::sampleUkrConfig(S, S.Isa, S.Style, S.UnrollLoads);
    if (!Cfg)
      return Cfg.takeError();
    auto R = ukr::generateUkernel(*Cfg, fastOpts());
    if (!R)
      return R.takeError(); // Inconsistent recipe: a rejection, not a bug.
    auto Spec = makeSpec(S, Cfg->kernelName());
    if (!Spec)
      return Spec.takeError();
    Out.Spec = Spec.take();
    Out.Scheduled = R->Final;
    Out.AppliedSteps.push_back("recipe " + Cfg->kernelName());
    Out.Isa = R->Style == ukr::FmaStyle::Scalar ? nullptr : Cfg->Isa;
    return Out;
  }

  // Chain mode: a stable, collision-free symbol (the JIT keys artifacts by
  // source+symbol, and every distinct sample emits distinct source).
  std::string Name =
      strf("fz_%llxx%llx_%016llx", static_cast<unsigned long long>(S.MR),
           static_cast<unsigned long long>(S.NR),
           static_cast<unsigned long long>(fnv1a64(serializeSample(S))));
  auto Spec = makeSpec(S, Name);
  if (!Spec)
    return Spec.takeError();
  Out.Spec = Spec.take();

  Proc Cur = Out.Spec;
  for (size_t I = 0; I != S.Steps.size(); ++I) {
    const RewriteStep &St = S.Steps[I];
    Expected<Proc> Next = errorf("unapplied");
    if (St.K == RewriteStep::Kind::Vectorize) {
      if (I != 0) {
        Out.SkippedSteps.push_back(St.describe() + " (not first)");
        continue;
      }
      auto Cfg = detail::sampleUkrConfig(S, St.Isa, St.Style, St.UnrollLoads);
      if (!Cfg)
        return Cfg.takeError();
      auto R = ukr::generateUkernel(*Cfg, fastOpts());
      if (R) {
        Next = renameProc(R->Final, Name);
        Out.Isa = R->Style == ukr::FmaStyle::Scalar ? nullptr : Cfg->Isa;
      } else {
        Next = errorf("%s", R.message().c_str());
      }
    } else {
      Next = applyChainStep(Cur, St);
    }
    if (!Next) {
      Out.SkippedSteps.push_back(St.describe() + ": " + Next.message());
      continue;
    }
    Cur = Next.take();
    Out.AppliedSteps.push_back(St.describe());
    if (!S.Fault.empty() && !Out.FaultFired &&
        St.describe().find(S.Fault) != std::string::npos) {
      Cur = dropLastIterationOfFirstLoop(Cur);
      Out.FaultFired = true;
    }
  }
  Out.Scheduled = Cur;
  return Out;
}

uint64_t fuzz::fuzzSeedFromEnv(uint64_t Dflt) {
  if (const char *V = std::getenv("EXO_FUZZ_SEED")) {
    char *End = nullptr;
    unsigned long long N = std::strtoull(V, &End, 0);
    if (End && *End == '\0')
      return N;
  }
  return Dflt;
}

int fuzz::fuzzItersFromEnv(int Dflt) {
  if (const char *V = std::getenv("EXO_FUZZ_ITERS")) {
    char *End = nullptr;
    long N = std::strtol(V, &End, 10);
    if (End && *End == '\0' && N > 0)
      return static_cast<int>(N);
  }
  return Dflt;
}
