//===- DiskCache.cpp ------------------------------------------------------===//

#include "exo/jit/DiskCache.h"

#include "exo/support/Env.h"
#include "exo/support/Str.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#include <utime.h>

using namespace exo;

uint64_t exo::fnv1a64(const void *Data, size_t N, uint64_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t exo::fnv1a64(std::string_view S, uint64_t Seed) {
  return fnv1a64(S.data(), S.size(), Seed);
}

std::string exo::jitCompilerCommand() {
  if (const char *CC = std::getenv("EXO_CC"))
    return CC;
  return "cc";
}

int exo::jitRunCommand(const std::string &Cmd, std::string &Output) {
  std::string Full = Cmd + " 2>&1";
  FILE *Pipe = popen(Full.c_str(), "r");
  if (!Pipe)
    return -1;
  char Buf[4096];
  Output.clear();
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Output.append(Buf, N);
  return pclose(Pipe);
}

const std::string &exo::jitCompilerIdentity() {
  static const std::string Id = [] {
    std::string Cmd = jitCompilerCommand();
    std::string Out;
    std::string Version = "unknown";
    if (jitRunCommand(Cmd + " --version", Out) == 0) {
      size_t Nl = Out.find('\n');
      Version = Out.substr(0, Nl == std::string::npos ? Out.size() : Nl);
    }
    return Cmd + "\x1f" + Version;
  }();
  return Id;
}

uint64_t exo::jitArtifactKey(std::string_view CSource, std::string_view Flags,
                             std::string_view SymbolName) {
  // 0x1f separators keep field boundaries from aliasing ("a"+"b" vs "ab").
  const unsigned char Sep = 0x1f;
  uint64_t H = fnv1a64(CSource);
  H = fnv1a64(&Sep, 1, H);
  H = fnv1a64(Flags, H);
  H = fnv1a64(&Sep, 1, H);
  H = fnv1a64(SymbolName, H);
  H = fnv1a64(&Sep, 1, H);
  H = fnv1a64(std::string_view(jitCompilerIdentity()), H);
  uint32_t Abi = JitCacheAbiVersion;
  H = fnv1a64(&Abi, sizeof(Abi), H);
  return H;
}

bool exo::makeDirs(const std::string &Path) {
  if (Path.empty())
    return false;
  std::string Cur = Path[0] == '/' ? "" : ".";
  for (const std::string &Part : split(Path, '/', /*KeepEmpty=*/false)) {
    Cur += "/" + Part;
    if (mkdir(Cur.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
  }
  struct stat St;
  return stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

StoreLock::StoreLock(const std::string &Root) {
  Fd = open((Root + "/.lock").c_str(), O_CREAT | O_RDWR, 0644);
  if (Fd >= 0 && flock(Fd, LOCK_EX) != 0) {
    close(Fd);
    Fd = -1;
  }
}

StoreLock::~StoreLock() {
  if (Fd >= 0) {
    flock(Fd, LOCK_UN);
    close(Fd);
  }
}

namespace {

/// EXO_JIT_CACHE_DIR (set but empty disables the cache), else the XDG or
/// home cache directory.
std::string defaultRoot() {
  if (const char *Dir = std::getenv("EXO_JIT_CACHE_DIR"))
    return Dir;
  if (const char *Xdg = std::getenv("XDG_CACHE_HOME"))
    return std::string(Xdg) + "/exo-ukr";
  if (const char *Home = std::getenv("HOME"))
    return std::string(Home) + "/.cache/exo-ukr";
  return {};
}

struct GlobalCache {
  std::mutex Mu;
  std::unique_ptr<JitDiskCache> C;
};

GlobalCache &globalCache() {
  static GlobalCache G;
  return G;
}

bool copyFile(const std::string &From, const std::string &To) {
  std::ifstream In(From, std::ios::binary);
  if (!In)
    return false;
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << In.rdbuf();
  return static_cast<bool>(Out.flush());
}

} // namespace

JitDiskCache::JitDiskCache(std::string RootDir) : Root(std::move(RootDir)) {
  RootUsable = !Root.empty() && makeDirs(Root);
}

JitDiskCache &JitDiskCache::global() {
  GlobalCache &G = globalCache();
  std::lock_guard<std::mutex> Lock(G.Mu);
  if (!G.C)
    G.C = std::make_unique<JitDiskCache>(defaultRoot());
  return *G.C;
}

void JitDiskCache::setGlobalRoot(const std::string &RootDir) {
  GlobalCache &G = globalCache();
  std::lock_guard<std::mutex> Lock(G.Mu);
  G.C = std::make_unique<JitDiskCache>(RootDir);
}

bool JitDiskCache::enabled() const { return RootUsable; }

uint64_t JitDiskCache::configuredMaxBytes() {
  return static_cast<uint64_t>(exo::envInt(
      "EXO_JIT_CACHE_MAX_BYTES", std::getenv("EXO_JIT_CACHE_MAX_BYTES"),
      256ll << 20, /*Min=*/1, std::numeric_limits<long long>::max()));
}

std::string JitDiskCache::entryPath(uint64_t Key, const char *Ext) const {
  return strf("%s/k%016llx%s", Root.c_str(),
              static_cast<unsigned long long>(Key), Ext);
}

std::string JitDiskCache::lookup(uint64_t Key) {
  if (!enabled())
    return {};
  std::string Path = entryPath(Key, ".so");
  struct stat St;
  if (stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
    return {};
  // Bump mtime so LRU pruning sees the entry as recently used.
  utime(Path.c_str(), nullptr);
  return Path;
}

Expected<std::string> JitDiskCache::store(uint64_t Key,
                                          const std::string &SoPath,
                                          const ArtifactMeta &Meta) {
  if (!enabled())
    return errorf("disk cache disabled");
  StoreLock Lock(Root);

  std::string Final = entryPath(Key, ".so");
  std::string Tmp = strf("%s.tmp.%d", Final.c_str(), getpid());
  if (!copyFile(SoPath, Tmp))
    return errorf("cannot stage artifact into %s", Tmp.c_str());
  if (rename(Tmp.c_str(), Final.c_str()) != 0) {
    unlink(Tmp.c_str());
    return errorf("cannot publish artifact %s", Final.c_str());
  }

  std::string MetaFinal = entryPath(Key, ".meta");
  std::string MetaTmp = strf("%s.tmp.%d", MetaFinal.c_str(), getpid());
  {
    std::ofstream OS(MetaTmp, std::ios::trunc);
    OS << "abi=" << Meta.Abi << "\n"
       << "symbol=" << Meta.Symbol << "\n"
       << "flags=" << Meta.Flags << "\n"
       << "compiler=" << Meta.Compiler << "\n";
  }
  if (rename(MetaTmp.c_str(), MetaFinal.c_str()) != 0)
    unlink(MetaTmp.c_str()); // Artifact stays usable without its sidecar.

  pruneLocked(configuredMaxBytes());
  return Final;
}

bool JitDiskCache::remove(uint64_t Key) {
  if (Root.empty())
    return false;
  StoreLock Lock(Root);
  bool Removed = unlink(entryPath(Key, ".so").c_str()) == 0;
  unlink(entryPath(Key, ".meta").c_str());
  return Removed;
}

namespace {

std::atomic<uint64_t> GCorruptMeta{0};

/// Checked parse of a numeric sidecar field: the whole value must be
/// base-10 digits in uint32_t range. atoi here let a truncated "abi=" line
/// silently read as ABI 0 — a value that can collide with a real (if never
/// current) ABI — so any malformed value now marks the entry corrupt
/// instead of inventing one.
bool parseMetaU32(const char *Value, uint32_t &Out) {
  if (!*Value)
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Value, &End, 10);
  if (End == Value || *End != '\0' || errno == ERANGE || V > UINT32_MAX)
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

} // namespace

uint64_t JitDiskCache::corruptMetaObserved() {
  return GCorruptMeta.load(std::memory_order_relaxed);
}

std::vector<JitDiskCache::Entry> JitDiskCache::list() {
  std::vector<Entry> Out;
  if (Root.empty())
    return Out;
  DIR *D = opendir(Root.c_str());
  if (!D)
    return Out;
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() != 1 + 16 + 3 || !startsWith(Name, "k") ||
        !endsWith(Name, ".so"))
      continue;
    Entry En;
    En.Key = std::strtoull(Name.substr(1, 16).c_str(), nullptr, 16);
    En.SoPath = Root + "/" + Name;
    struct stat St;
    if (stat(En.SoPath.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    En.Bytes = static_cast<uint64_t>(St.st_size);
    En.Mtime = static_cast<int64_t>(St.st_mtime);
    std::ifstream Meta(entryPath(En.Key, ".meta"));
    std::string Line;
    while (std::getline(Meta, Line)) {
      if (startsWith(Line, "abi=")) {
        if (!parseMetaU32(Line.c_str() + 4, En.Meta.Abi))
          En.MetaCorrupt = true;
      } else if (startsWith(Line, "symbol="))
        En.Meta.Symbol = Line.substr(7);
      else if (startsWith(Line, "flags="))
        En.Meta.Flags = Line.substr(6);
      else if (startsWith(Line, "compiler="))
        En.Meta.Compiler = Line.substr(9);
    }
    if (En.MetaCorrupt)
      GCorruptMeta.fetch_add(1, std::memory_order_relaxed);
    Out.push_back(std::move(En));
  }
  closedir(D);
  std::sort(Out.begin(), Out.end(), [](const Entry &A, const Entry &B) {
    return A.Mtime != B.Mtime ? A.Mtime < B.Mtime : A.Key < B.Key;
  });
  return Out;
}

size_t JitDiskCache::pruneLocked(uint64_t MaxBytes) {
  std::vector<Entry> Entries = list();
  // Corrupt-sidecar entries are the least trustworthy contents of the
  // cache; when space must be reclaimed they go before any healthy entry,
  // regardless of recency.
  std::stable_partition(Entries.begin(), Entries.end(),
                        [](const Entry &E) { return E.MetaCorrupt; });
  uint64_t Total = 0;
  for (const Entry &E : Entries)
    Total += E.Bytes;
  size_t Evicted = 0;
  for (const Entry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    unlink(E.SoPath.c_str());
    unlink(entryPath(E.Key, ".meta").c_str());
    Total -= E.Bytes;
    ++Evicted;
  }
  return Evicted;
}

size_t JitDiskCache::prune(uint64_t MaxBytes) {
  if (Root.empty())
    return 0;
  StoreLock Lock(Root);
  return pruneLocked(MaxBytes);
}
