//===- PriorDb.cpp --------------------------------------------------------===//

#include "gemm/PriorDb.h"

#include "exo/isa/IsaLib.h"
#include "exo/jit/DiskCache.h"
#include "exo/support/Str.h"
#include "gemm/CacheModel.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace exo;
using namespace gemm;

namespace {

/// The global database and the JIT cache root it was derived from, so that
/// repointing the cache moves the priors with it.
struct GlobalDb {
  std::mutex Mu;
  std::unique_ptr<PriorDb> Db;
  std::string CacheRoot;
};

GlobalDb &globalDb() {
  static GlobalDb G;
  return G;
}

std::atomic<uint64_t> GLookups{0}, GHits{0}, GClassHits{0},
    GMachineMismatch{0}, GCorruptSeen{0}, GQuarantined{0};

/// Whole-value checked parses: trailing garbage marks the record corrupt
/// instead of silently truncating (the DiskCache parseMetaU32 lesson).
bool parseI64(const std::string &V, int64_t &Out) {
  if (V.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long X = std::strtoll(V.c_str(), &End, 10);
  if (End == V.c_str() || *End != '\0' || errno == ERANGE)
    return false;
  Out = X;
  return true;
}

bool parseU64Hex(const std::string &V, uint64_t &Out) {
  if (V.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long X = std::strtoull(V.c_str(), &End, 16);
  if (End == V.c_str() || *End != '\0' || errno == ERANGE)
    return false;
  Out = X;
  return true;
}

bool parseF64(const std::string &V, double &Out) {
  if (V.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double X = std::strtod(V.c_str(), &End);
  if (End == V.c_str() || *End != '\0' || errno == ERANGE)
    return false;
  Out = X;
  return true;
}

int64_t roundUpPow2(int64_t V) {
  int64_t P = 1;
  while (P < V && P < (int64_t(1) << 62))
    P <<= 1;
  return P;
}

bool writeAtomically(const std::string &Path, const std::string &Text) {
  std::string Tmp = strf("%s.tmp.%d", Path.c_str(), getpid());
  {
    std::ofstream OS(Tmp, std::ios::trunc);
    if (!OS)
      return false;
    OS << Text;
    if (!OS.flush())
      return false;
  }
  if (rename(Tmp.c_str(), Path.c_str()) != 0) {
    unlink(Tmp.c_str());
    return false;
  }
  return true;
}

uint64_t exactKey(uint64_t Machine, int64_t M, int64_t N, int64_t K,
                  DType Ty = DType::F32) {
  std::string S = strf("exact\x1f%016llx\x1f%lld\x1f%lld\x1f%lld",
                       static_cast<unsigned long long>(Machine),
                       static_cast<long long>(M), static_cast<long long>(N),
                       static_cast<long long>(K));
  // F32 keys stay byte-identical to the pre-dtype scheme so existing
  // databases keep hitting; non-f32 records live under qualified keys.
  if (Ty != DType::F32)
    S += strf("\x1f%s", dtypeName(Ty));
  return fnv1a64(S);
}

uint64_t classKey(uint64_t Machine, const std::string &Class,
                  DType Ty = DType::F32) {
  std::string S = strf("class\x1f%016llx\x1f%s",
                       static_cast<unsigned long long>(Machine),
                       Class.c_str());
  if (Ty != DType::F32)
    S += strf("\x1f%s", dtypeName(Ty));
  return fnv1a64(S);
}

} // namespace

uint64_t gemm::priorMachineKey() {
  static const uint64_t Key = [] {
    const unsigned char Sep = 0x1f;
    uint64_t H = fnv1a64("exo-prior-machine");
    for (const IsaLib *Isa : allIsas()) {
      if (!Isa->hostExecutable())
        continue;
      H = fnv1a64(&Sep, 1, H);
      H = fnv1a64(std::string_view(Isa->name()), H);
    }
    H = fnv1a64(&Sep, 1, H);
    H = fnv1a64(std::string_view(CacheConfig::host().describe()), H);
    H = fnv1a64(&Sep, 1, H);
    H = fnv1a64(std::string_view(jitCompilerIdentity()), H);
    uint32_t V = PriorDbVersion;
    H = fnv1a64(&V, sizeof(V), H);
    return H;
  }();
  return Key;
}

std::string gemm::priorShapeClass(int64_t M, int64_t N, int64_t K) {
  return strf("g%lldx%lldx%lld",
              static_cast<long long>(roundUpPow2(std::max<int64_t>(M, 1))),
              static_cast<long long>(roundUpPow2(std::max<int64_t>(N, 1))),
              static_cast<long long>(roundUpPow2(std::max<int64_t>(K, 1))));
}

std::string gemm::formatPriorRecord(const PriorRecord &R) {
  std::ostringstream O;
  O << "version=" << R.Version << "\n"
    << "machine=" << strf("%016llx", static_cast<unsigned long long>(R.Machine))
    << "\n"
    << "m=" << R.M << "\nn=" << R.N << "\nk=" << R.K << "\n"
    << "class=" << R.Class << "\n";
  // Pre-dtype readers skip unknown keys, and f32 records omit the field
  // entirely, staying byte-identical to the v1 format.
  if (R.Dtype != DType::F32)
    O << "dtype=" << dtypeName(R.Dtype) << "\n";
  O << "isa=" << R.Isa << "\n"
    << "mr=" << R.MR << "\nnr=" << R.NR << "\n"
    << "mc=" << R.MC << "\nnc=" << R.NC << "\nkc=" << R.KC << "\n"
    << "unroll=" << (R.UnrollCompute ? 1 : 0) << "\n"
    << "prefetch=" << R.Prefetch << "\n"
    << "fma=" << R.Fma << "\n"
    << "threads=" << R.Threads << "\n"
    << strf("tuned_gflops=%.17g\n", R.TunedGflops)
    << "model_mr=" << R.ModelMR << "\nmodel_nr=" << R.ModelNR << "\n"
    << strf("model_gflops=%.17g\n", R.ModelGflops);
  return O.str();
}

Expected<PriorRecord> gemm::parsePriorRecord(const std::string &Text) {
  PriorRecord R;
  // Mandatory-field presence mask; a truncated record must fail, not
  // default.
  bool HasVersion = false, HasMachine = false, HasDims = false,
       HasTile = false, HasTuned = false, HasModel = false;
  int64_t DimSeen = 0, TileSeen = 0;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return errorf("prior record: malformed line '%s'", Line.c_str());
    std::string Key = Line.substr(0, Eq);
    std::string Val = Line.substr(Eq + 1);
    int64_t I;
    if (Key == "version") {
      if (!parseI64(Val, I) || I < 0)
        return errorf("prior record: bad version '%s'", Val.c_str());
      R.Version = static_cast<uint32_t>(I);
      HasVersion = true;
    } else if (Key == "machine") {
      if (!parseU64Hex(Val, R.Machine))
        return errorf("prior record: bad machine '%s'", Val.c_str());
      HasMachine = true;
    } else if (Key == "m" || Key == "n" || Key == "k") {
      if (!parseI64(Val, I) || I <= 0)
        return errorf("prior record: bad %s '%s'", Key.c_str(), Val.c_str());
      (Key == "m" ? R.M : Key == "n" ? R.N : R.K) = I;
      HasDims = ++DimSeen >= 3;
    } else if (Key == "class") {
      R.Class = Val;
    } else if (Key == "dtype") {
      if (!parseDType(Val, R.Dtype))
        return errorf("prior record: bad dtype '%s'", Val.c_str());
    } else if (Key == "isa") {
      R.Isa = Val;
    } else if (Key == "mr" || Key == "nr") {
      if (!parseI64(Val, I) || I <= 0)
        return errorf("prior record: bad %s '%s'", Key.c_str(), Val.c_str());
      (Key == "mr" ? R.MR : R.NR) = I;
      HasTile = ++TileSeen >= 2;
    } else if (Key == "mc" || Key == "nc" || Key == "kc") {
      if (!parseI64(Val, I) || I < 0)
        return errorf("prior record: bad %s '%s'", Key.c_str(), Val.c_str());
      (Key == "mc" ? R.MC : Key == "nc" ? R.NC : R.KC) = I;
    } else if (Key == "unroll") {
      if (!parseI64(Val, I))
        return errorf("prior record: bad unroll '%s'", Val.c_str());
      R.UnrollCompute = I != 0;
    } else if (Key == "prefetch") {
      if (!parseI64(Val, I) || I < 0)
        return errorf("prior record: bad prefetch '%s'", Val.c_str());
      R.Prefetch = I;
    } else if (Key == "fma") {
      R.Fma = Val;
    } else if (Key == "threads") {
      if (!parseI64(Val, I) || I < 1)
        return errorf("prior record: bad threads '%s'", Val.c_str());
      R.Threads = I;
    } else if (Key == "tuned_gflops") {
      if (!parseF64(Val, R.TunedGflops))
        return errorf("prior record: bad tuned_gflops '%s'", Val.c_str());
      HasTuned = true;
    } else if (Key == "model_mr" || Key == "model_nr") {
      if (!parseI64(Val, I) || I < 0)
        return errorf("prior record: bad %s '%s'", Key.c_str(), Val.c_str());
      (Key == "model_mr" ? R.ModelMR : R.ModelNR) = I;
    } else if (Key == "model_gflops") {
      if (!parseF64(Val, R.ModelGflops))
        return errorf("prior record: bad model_gflops '%s'", Val.c_str());
      HasModel = true;
    }
    // Unknown keys are skipped: minor-version additions stay readable.
  }
  if (!HasVersion || !HasMachine || !HasDims || !HasTile || !HasTuned ||
      !HasModel)
    return errorf("prior record: truncated (mandatory field missing)");
  if (R.Version != PriorDbVersion)
    return errorf("prior record: version %u (expected %u)", R.Version,
                  PriorDbVersion);
  return R;
}

ukr::UkrConfig gemm::priorRecordConfig(const PriorRecord &R) {
  // The record's ISA name is advisory (the measuring host's choice); the
  // one ISA-per-shape rule re-derives the library so the config is always
  // executable here. The dtype rides along: a non-f32 record materializes
  // the typed kernel config (dtypeScalarKind maps F32 to itself).
  return ukr::shapeConfig(R.MR, R.NR, /*Preferred=*/nullptr,
                          R.UnrollCompute, dtypeScalarKind(R.Dtype));
}

PriorDb::PriorDb(std::string RootDir) : Root(std::move(RootDir)) {
  RootUsable = !Root.empty() && makeDirs(Root);
}

PriorDb &PriorDb::global() {
  std::string CacheRoot = JitDiskCache::global().root();
  GlobalDb &G = globalDb();
  std::lock_guard<std::mutex> Lock(G.Mu);
  if (!G.Db || G.CacheRoot != CacheRoot) {
    // An empty cache root disables both stores (never "/priors").
    G.Db = std::make_unique<PriorDb>(CacheRoot.empty() ? CacheRoot
                                                       : CacheRoot + "/priors");
    G.CacheRoot = std::move(CacheRoot);
  }
  return *G.Db;
}

void PriorDb::setGlobalRoot(const std::string &RootDir) {
  std::string CacheRoot = JitDiskCache::global().root();
  GlobalDb &G = globalDb();
  std::lock_guard<std::mutex> Lock(G.Mu);
  G.Db = std::make_unique<PriorDb>(RootDir);
  G.CacheRoot = std::move(CacheRoot);
}

bool PriorDb::enabled() const { return RootUsable; }

std::string PriorDb::entryPath(uint64_t Key, bool ClassEntry) const {
  return strf("%s/%c%016llx.prior", Root.c_str(), ClassEntry ? 'c' : 'p',
              static_cast<unsigned long long>(Key));
}

std::optional<PriorRecord> PriorDb::readChecked(const std::string &Path,
                                                bool &SawFile) {
  SawFile = false;
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  SawFile = true;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Expected<PriorRecord> R = parsePriorRecord(Buf.str());
  if (!R) {
    // Corrupt (truncated, garbage, or wrong version): quarantine in place
    // so the damaged file is never reparsed, and a later `priors prune`
    // can sweep it.
    GCorruptSeen.fetch_add(1, std::memory_order_relaxed);
    StoreLock Lock(Root);
    if (rename(Path.c_str(), (Path + ".bad").c_str()) == 0)
      GQuarantined.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  return R.take();
}

Error PriorDb::store(const PriorRecord &In) {
  if (!enabled())
    return errorf("prior db disabled (root: %s)", Root.c_str());
  PriorRecord R = In;
  if (R.M <= 0 || R.N <= 0 || R.K <= 0 || R.MR <= 0 || R.NR <= 0)
    return errorf("prior db: record needs positive m/n/k and mr/nr");
  R.Version = PriorDbVersion;
  if (R.Machine == 0)
    R.Machine = priorMachineKey();
  if (R.Class.empty())
    R.Class = priorShapeClass(R.M, R.N, R.K);
  std::string Text = formatPriorRecord(R);

  StoreLock Lock(Root);
  std::string Exact =
      entryPath(exactKey(R.Machine, R.M, R.N, R.K, R.Dtype), false);
  if (!writeAtomically(Exact, Text))
    return errorf("prior db: cannot publish %s", Exact.c_str());

  // Class representative: best tuned GFLOPS of the class wins. A corrupt
  // or unreadable incumbent is simply replaced. Classes are dtype-keyed
  // like exact records, so same-class shapes of different dtypes never
  // compete.
  std::string ClassPath =
      entryPath(classKey(R.Machine, R.Class, R.Dtype), true);
  bool Replace = true;
  {
    std::ifstream CIn(ClassPath);
    if (CIn) {
      std::ostringstream Buf;
      Buf << CIn.rdbuf();
      if (Expected<PriorRecord> Cur = parsePriorRecord(Buf.str()))
        Replace = R.TunedGflops > Cur->TunedGflops;
    }
  }
  if (Replace && !writeAtomically(ClassPath, Text))
    return errorf("prior db: cannot publish %s", ClassPath.c_str());
  return Error::success();
}

std::optional<PriorRecord> PriorDb::lookup(int64_t M, int64_t N, int64_t K,
                                           bool *ExactOut) {
  return lookup(M, N, K, DType::F32, ExactOut);
}

std::optional<PriorRecord> PriorDb::lookup(int64_t M, int64_t N, int64_t K,
                                           DType Ty, bool *ExactOut) {
  if (ExactOut)
    *ExactOut = false;
  if (!enabled())
    return std::nullopt;
  GLookups.fetch_add(1, std::memory_order_relaxed);
  const uint64_t Machine = priorMachineKey();

  bool Saw = false;
  if (std::optional<PriorRecord> R = readChecked(
          entryPath(exactKey(Machine, M, N, K, Ty), false), Saw)) {
    // The filename hash already pins machine, shape, and dtype, but the
    // content is re-verified: a hand-copied or tampered file must not slip
    // through.
    if (R->Machine == Machine && R->M == M && R->N == N && R->K == K &&
        R->Dtype == Ty) {
      GHits.fetch_add(1, std::memory_order_relaxed);
      if (ExactOut)
        *ExactOut = true;
      return R;
    }
    GMachineMismatch.fetch_add(1, std::memory_order_relaxed);
  }

  std::string Class = priorShapeClass(M, N, K);
  if (std::optional<PriorRecord> R = readChecked(
          entryPath(classKey(Machine, Class, Ty), true), Saw)) {
    if (R->Machine == Machine && R->Class == Class && R->Dtype == Ty) {
      GClassHits.fetch_add(1, std::memory_order_relaxed);
      return R;
    }
    GMachineMismatch.fetch_add(1, std::memory_order_relaxed);
  }
  return std::nullopt;
}

std::vector<PriorDb::Entry> PriorDb::list() {
  std::vector<Entry> Out;
  if (Root.empty())
    return Out;
  DIR *D = opendir(Root.c_str());
  if (!D)
    return Out;
  const uint64_t Machine = priorMachineKey();
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (!endsWith(Name, ".prior") ||
        (Name[0] != 'p' && Name[0] != 'c'))
      continue;
    Entry En;
    En.Path = Root + "/" + Name;
    En.ClassEntry = Name[0] == 'c';
    struct stat St;
    if (stat(En.Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    En.Bytes = static_cast<uint64_t>(St.st_size);
    En.Mtime = static_cast<int64_t>(St.st_mtime);
    std::ifstream In(En.Path);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    if (Expected<PriorRecord> R = parsePriorRecord(Buf.str())) {
      En.Rec = R.take();
      En.MachineMatch = En.Rec.Machine == Machine;
    } else {
      En.Corrupt = true;
      GCorruptSeen.fetch_add(1, std::memory_order_relaxed);
    }
    Out.push_back(std::move(En));
  }
  closedir(D);
  std::sort(Out.begin(), Out.end(), [](const Entry &A, const Entry &B) {
    return A.Mtime != B.Mtime ? A.Mtime < B.Mtime : A.Path < B.Path;
  });
  return Out;
}

size_t PriorDb::quarantine() {
  if (Root.empty())
    return 0;
  StoreLock Lock(Root);
  size_t N = 0;
  for (const Entry &E : list()) {
    if (!E.Corrupt)
      continue;
    if (rename(E.Path.c_str(), (E.Path + ".bad").c_str()) == 0) {
      ++N;
      GQuarantined.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return N;
}

size_t PriorDb::prune(bool DropForeign, int64_t MaxRecords) {
  if (Root.empty())
    return 0;
  StoreLock Lock(Root);
  size_t Removed = 0;
  // Quarantined files first: they hold no usable data by definition.
  if (DIR *D = opendir(Root.c_str())) {
    std::vector<std::string> Bad;
    while (struct dirent *E = readdir(D))
      if (endsWith(std::string(E->d_name), ".bad"))
        Bad.push_back(Root + "/" + E->d_name);
    closedir(D);
    for (const std::string &P : Bad)
      if (unlink(P.c_str()) == 0)
        ++Removed;
  }
  std::vector<Entry> Entries = list();
  // Corrupt entries (not yet quarantined) and, on request, records from
  // another machine go before any live local record.
  std::vector<Entry> Keep;
  for (const Entry &E : Entries) {
    if (E.Corrupt || (DropForeign && !E.MachineMatch)) {
      if (unlink(E.Path.c_str()) == 0)
        ++Removed;
      continue;
    }
    Keep.push_back(E);
  }
  if (MaxRecords > 0 &&
      static_cast<int64_t>(Keep.size()) > MaxRecords) {
    // list() is oldest-first; evict from the front.
    int64_t Excess = static_cast<int64_t>(Keep.size()) - MaxRecords;
    for (int64_t I = 0; I < Excess; ++I)
      if (unlink(Keep[static_cast<size_t>(I)].Path.c_str()) == 0)
        ++Removed;
  }
  return Removed;
}

PriorDb::Stats PriorDb::stats() {
  Stats S;
  S.Lookups = GLookups.load(std::memory_order_relaxed);
  S.Hits = GHits.load(std::memory_order_relaxed);
  S.ClassHits = GClassHits.load(std::memory_order_relaxed);
  S.MachineMismatch = GMachineMismatch.load(std::memory_order_relaxed);
  S.CorruptSeen = GCorruptSeen.load(std::memory_order_relaxed);
  S.Quarantined = GQuarantined.load(std::memory_order_relaxed);
  return S;
}
