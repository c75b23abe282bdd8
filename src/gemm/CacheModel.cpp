//===- CacheModel.cpp -----------------------------------------------------===//

#include "gemm/CacheModel.h"

#include "exo/support/Str.h"

#include <algorithm>
#include <fstream>

using namespace gemm;

namespace {

/// Reads one sysfs cache attribute; empty string when unreadable.
std::string readSysfs(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::string();
  std::string S;
  std::getline(In, S);
  return S;
}

/// Parses "32K" / "1024K" / "33792K".
int64_t parseSizeString(const std::string &S) {
  if (S.empty())
    return 0;
  int64_t V = std::atoll(S.c_str());
  if (S.back() == 'K')
    V *= 1024;
  else if (S.back() == 'M')
    V *= 1024 * 1024;
  return V;
}

/// Ways needed to hold \p Bytes in a cache of the given way size.
int64_t waysFor(int64_t Bytes, int64_t WaySize) {
  return (Bytes + WaySize - 1) / WaySize;
}

CacheConfig detectHostCaches() {
  CacheConfig Cfg;
  // Scan cpu0's cache indices for data/unified caches.
  for (int Index = 0; Index < 8; ++Index) {
    std::string Base =
        exo::strf("/sys/devices/system/cpu/cpu0/cache/index%d/", Index);
    std::string Type = readSysfs(Base + "type");
    if (Type.empty())
      break;
    if (Type != "Data" && Type != "Unified")
      continue;
    std::string LevelS = readSysfs(Base + "level");
    int Level = std::atoi(LevelS.c_str());
    CacheLevel L;
    L.SizeBytes = parseSizeString(readSysfs(Base + "size"));
    L.Assoc = std::atoi(readSysfs(Base + "ways_of_associativity").c_str());
    int Line = std::atoi(readSysfs(Base + "coherency_line_size").c_str());
    if (Line > 0)
      L.LineBytes = Line;
    if (!L.present())
      continue;
    if (Level == 1)
      Cfg.L1 = L;
    else if (Level == 2)
      Cfg.L2 = L;
    else if (Level == 3)
      Cfg.L3 = L;
  }
  // Fall back to a typical server part when detection failed.
  if (!Cfg.L1.present())
    Cfg.L1 = {32 * 1024, 8, 64};
  if (!Cfg.L2.present())
    Cfg.L2 = {1024 * 1024, 16, 64};
  return Cfg;
}

} // namespace

CacheConfig CacheConfig::host() {
  // The planner asks once per candidate tile; sysfs does not change under
  // a running process, so scan it once.
  static const CacheConfig Host = detectHostCaches();
  return Host;
}

CacheConfig CacheConfig::carmel() {
  CacheConfig Cfg;
  Cfg.L1 = {64 * 1024, 4, 64};
  Cfg.L2 = {2 * 1024 * 1024, 16, 64};
  Cfg.L3 = {4 * 1024 * 1024, 16, 64};
  return Cfg;
}

std::string CacheConfig::describe() const {
  auto One = [](const CacheLevel &L) {
    if (!L.present())
      return std::string("-");
    return exo::strf("%lldK/%d", static_cast<long long>(L.SizeBytes / 1024),
                     L.Assoc);
  };
  return "L1 " + One(L1) + ", L2 " + One(L2) + ", L3 " + One(L3);
}

std::string BlockSizes::describe() const {
  return exo::strf("mc=%lld kc=%lld nc=%lld", static_cast<long long>(MC),
                   static_cast<long long>(KC), static_cast<long long>(NC));
}

BlockSizes gemm::analyticalBlockSizes(const CacheConfig &Caches, int64_t Mr,
                                      int64_t Nr, unsigned ElemBytes) {
  BlockSizes B;
  const int64_t S = ElemBytes;

  // kc from L1: ways(mr*kc) + ways(kc*nr) + 1 <= W_L1.
  {
    const CacheLevel &L1 = Caches.L1;
    int64_t Way = L1.waySize();
    int64_t Best = 4;
    for (int64_t Kc = 4; Kc <= 8192; Kc += 4) {
      int64_t Ways = waysFor(Mr * Kc * S, Way) + waysFor(Kc * Nr * S, Way) + 1;
      if (Ways <= L1.Assoc)
        Best = Kc;
      else
        break;
    }
    B.KC = Best;
  }

  // mc from L2: ways(mc*kc) + 2 <= W_L2 (one way for the streaming B
  // micro-panel, one for the C tile).
  {
    const CacheLevel &L2 = Caches.L2;
    int64_t Way = L2.waySize();
    int64_t Best = Mr;
    for (int64_t Mc = Mr; Mc <= 65536; Mc += Mr) {
      int64_t Ways = waysFor(Mc * B.KC * S, Way) + 2;
      if (Ways <= L2.Assoc)
        Best = Mc;
      else
        break;
    }
    B.MC = Best;
  }

  // nc from L3 (generous default when absent). Large shared L3s are capped:
  // a single core's fair share is what matters, and past a few thousand
  // columns the packed-B working set only hurts (BLIS caps nc similarly).
  const int64_t NcCap = ((8192 + Nr - 1) / Nr) * Nr;
  if (Caches.L3.present()) {
    const CacheLevel &L3 = Caches.L3;
    int64_t Way = L3.waySize();
    int64_t Best = Nr;
    for (int64_t Nc = Nr; Nc <= NcCap; Nc += Nr) {
      int64_t Ways = waysFor(B.KC * Nc * S, Way) + 2;
      if (Ways <= L3.Assoc)
        Best = Nc;
      else
        break;
    }
    B.NC = Best;
  } else {
    B.NC = ((4096 + Nr - 1) / Nr) * Nr;
  }
  return B;
}

BlockSizes gemm::fixedBlockSizes(int64_t Mr, int64_t Nr) {
  BlockSizes B;
  B.MC = ((256 + Mr - 1) / Mr) * Mr;
  B.KC = 256;
  B.NC = ((4096 + Nr - 1) / Nr) * Nr;
  return B;
}
