//===- DiskCacheTest.cpp - Persistent JIT artifact cache ------------------===//

#include "exo/jit/DiskCache.h"

#include "JitCacheTestEnv.h"
#include "exo/jit/Jit.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unistd.h>
#include <utime.h>

using namespace exo;

namespace {

/// A private cache root for one test (on top of the binary-wide ephemeral
/// EXO_JIT_CACHE_DIR the shared environment installs).
std::string makeTempDir() { return exotest::makeTempDir("exo-dctest"); }

/// Simulates a torn write from another process: the artifact path is
/// replaced (new inode) with a short garbage prefix. Replacing rather than
/// truncating in place keeps any in-process mapping of the old file valid,
/// exactly like a concurrent writer would.
void corruptFile(const std::string &Path) {
  std::string Tmp = Path + ".corrupt";
  std::ofstream(Tmp) << "\x7f" "ELFnope";
  ASSERT_EQ(::rename(Tmp.c_str(), Path.c_str()), 0) << Path;
}

} // namespace

TEST(Fnv1aTest, KnownVectors) {
  // Reference values for the 64-bit FNV-1a function (offset basis
  // 0xcbf29ce484222325, prime 0x100000001b3).
  EXPECT_EQ(fnv1a64(std::string_view("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64(std::string_view("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64(std::string_view("foobar")), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, SeedChainsLikeConcatenation) {
  std::string_view S = "kernel source text";
  for (size_t Cut = 0; Cut <= S.size(); ++Cut)
    EXPECT_EQ(fnv1a64(S.substr(Cut), fnv1a64(S.substr(0, Cut))), fnv1a64(S))
        << Cut;
  // And the pointer overload agrees with the string_view one.
  EXPECT_EQ(fnv1a64(S.data(), S.size()), fnv1a64(S));
}

TEST(ArtifactKeyTest, SensitiveToEveryField) {
  uint64_t Base = jitArtifactKey("int f(void){return 1;}", "-O2", "f");
  EXPECT_NE(jitArtifactKey("int f(void){return 2;}", "-O2", "f"), Base);
  EXPECT_NE(jitArtifactKey("int f(void){return 1;}", "-O3", "f"), Base);
  EXPECT_NE(jitArtifactKey("int f(void){return 1;}", "-O2", "g"), Base);
  // Field boundaries must not alias: moving a byte across the
  // source/flags boundary changes the key.
  EXPECT_NE(jitArtifactKey("ab", "c", "s"), jitArtifactKey("a", "bc", "s"));
  EXPECT_NE(jitArtifactKey("a", "bc", "s"), jitArtifactKey("a", "b", "cs"));
}

TEST(ArtifactKeyTest, CompilerIdentityIsNonEmpty) {
  if (!jitAvailable())
    GTEST_SKIP();
  // The identity pins the resolved compiler plus its version banner; an
  // empty identity would silently share artifacts across toolchains.
  EXPECT_FALSE(jitCompilerIdentity().empty());
  EXPECT_NE(jitCompilerIdentity().find(jitCompilerCommand()),
            std::string::npos);
}

TEST(DiskCacheTest, StoreLookupRemove) {
  std::string Dir = makeTempDir();
  JitDiskCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());

  std::string Obj = Dir + "/fake.so";
  std::ofstream(Obj) << "not really an object, 32 bytes..";
  ArtifactMeta Meta;
  Meta.Symbol = "sym";
  Meta.Flags = "-O3";
  Meta.Compiler = "cc test";

  EXPECT_EQ(Cache.lookup(42), "");
  auto Stored = Cache.store(42, Obj, Meta);
  ASSERT_TRUE(static_cast<bool>(Stored)) << Stored.message();
  EXPECT_EQ(Cache.lookup(42), *Stored);

  std::vector<JitDiskCache::Entry> Entries = Cache.list();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Key, 42u);
  EXPECT_EQ(Entries[0].Meta.Symbol, "sym");
  EXPECT_EQ(Entries[0].Meta.Flags, "-O3");
  EXPECT_EQ(Entries[0].Meta.Abi, JitCacheAbiVersion);

  EXPECT_TRUE(Cache.remove(42));
  EXPECT_EQ(Cache.lookup(42), "");
  EXPECT_FALSE(Cache.remove(42));
}

TEST(DiskCacheTest, CorruptMetaIsFlaggedCountedAndEvictedFirst) {
  std::string Dir = makeTempDir();
  JitDiskCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());

  std::string Obj = Dir + "/fake.so";
  std::ofstream(Obj) << std::string(100, 'x');
  ArtifactMeta Meta;
  Meta.Symbol = "sym";
  for (uint64_t Key : {1u, 2u})
    ASSERT_TRUE(static_cast<bool>(Cache.store(Key, Obj, Meta)));

  // Scribble over key 1's sidecar the way the old std::atoi parse used to
  // accept silently: an abi field that is not a number at all. The entry
  // must come back flagged, not defaulted to abi 0.
  std::ofstream(Dir + "/k0000000000000001.meta")
      << "symbol=sym\nabi=banana\n";

  uint64_t Before = JitDiskCache::corruptMetaObserved();
  std::vector<JitDiskCache::Entry> Entries = Cache.list();
  ASSERT_EQ(Entries.size(), 2u);
  for (const JitDiskCache::Entry &E : Entries)
    EXPECT_EQ(E.MetaCorrupt, E.Key == 1u) << "key " << E.Key;
  EXPECT_EQ(JitDiskCache::corruptMetaObserved() - Before, 1u);

  // An out-of-range numeric abi is just as corrupt as a non-numeric one.
  std::ofstream(Dir + "/k0000000000000002.meta")
      << "symbol=sym\nabi=99999999999999999999\n";
  for (const JitDiskCache::Entry &E : Cache.list())
    EXPECT_TRUE(E.MetaCorrupt) << "key " << E.Key;

  // Restore key 2's sidecar; pruning under pressure must sacrifice the
  // corrupt entry first even when it is not the LRU victim.
  ASSERT_TRUE(Cache.remove(2));
  ASSERT_TRUE(static_cast<bool>(Cache.store(2, Obj, Meta)));
  time_t Now = time(nullptr);
  for (JitDiskCache::Entry &E : Cache.list()) {
    // Make the corrupt key 1 the *hottest* entry.
    struct utimbuf Times;
    Times.actime = Times.modtime = Now - (E.Key == 1 ? 0 : 1000);
    ASSERT_EQ(utime(E.SoPath.c_str(), &Times), 0);
  }
  EXPECT_EQ(Cache.prune(150), 1u);
  std::vector<JitDiskCache::Entry> Left = Cache.list();
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left[0].Key, 2u);
  EXPECT_FALSE(Left[0].MetaCorrupt);
}

TEST(DiskCacheTest, PruneEvictsOldestFirst) {
  std::string Dir = makeTempDir();
  JitDiskCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());

  std::string Obj = Dir + "/fake.so";
  std::ofstream(Obj) << std::string(100, 'x');
  ArtifactMeta Meta;
  Meta.Symbol = "sym";
  for (uint64_t Key : {1u, 2u, 3u})
    ASSERT_TRUE(static_cast<bool>(Cache.store(Key, Obj, Meta)));

  // Backdate the artifacts so key 1 is the coldest, key 3 the hottest.
  time_t Now = time(nullptr);
  for (JitDiskCache::Entry &E : Cache.list()) {
    struct utimbuf Times;
    Times.actime = Times.modtime = Now - 1000 + static_cast<long>(E.Key) * 100;
    ASSERT_EQ(utime(E.SoPath.c_str(), &Times), 0);
  }

  // Room for one 100-byte artifact: the two oldest go.
  EXPECT_EQ(Cache.prune(150), 2u);
  std::vector<JitDiskCache::Entry> Left = Cache.list();
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left[0].Key, 3u);

  EXPECT_EQ(Cache.prune(0), 1u);
  EXPECT_TRUE(Cache.list().empty());
}

TEST(DiskCacheTest, JitPersistsAcrossMemoryCacheClear) {
  if (!jitAvailable())
    GTEST_SKIP();
  JitDiskCache::setGlobalRoot(makeTempDir());
  jitClearMemoryCache();
  jitResetStats();

  const char *Src = "int exo_dc_persist(void) { return 31; }\n";
  auto K1 = jitCompile(Src, "exo_dc_persist", "");
  ASSERT_TRUE(static_cast<bool>(K1)) << K1.message();
  EXPECT_EQ(jitStats().Compiles, 1u);
  EXPECT_EQ(jitStats().DiskHits, 0u);
  EXPECT_GT(jitStats().CompileMs, 0.0);

  // With the in-process map dropped, the second compile must be served by
  // the disk artifact — no compiler invocation.
  jitClearMemoryCache();
  auto K2 = jitCompile(Src, "exo_dc_persist", "");
  ASSERT_TRUE(static_cast<bool>(K2)) << K2.message();
  EXPECT_EQ(jitStats().Compiles, 1u);
  EXPECT_EQ(jitStats().DiskHits, 1u);
  EXPECT_EQ((K2)->get()->as<int (*)(void)>()(), 31);
}

TEST(DiskCacheTest, CorruptedArtifactRecompiles) {
  if (!jitAvailable())
    GTEST_SKIP();
  JitDiskCache::setGlobalRoot(makeTempDir());
  jitClearMemoryCache();
  jitResetStats();

  const char *Src = "int exo_dc_corrupt(void) { return 9; }\n";
  ASSERT_TRUE(static_cast<bool>(jitCompile(Src, "exo_dc_corrupt", "")));
  std::vector<JitDiskCache::Entry> Entries = JitDiskCache::global().list();
  ASSERT_EQ(Entries.size(), 1u);
  corruptFile(Entries[0].SoPath);

  // The corrupt artifact must not crash the loader: the entry is evicted
  // and the kernel recompiled (then re-published intact).
  jitClearMemoryCache();
  auto K = jitCompile(Src, "exo_dc_corrupt", "");
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->get()->as<int (*)(void)>()(), 9);
  EXPECT_EQ(jitStats().Compiles, 2u);
  Entries = JitDiskCache::global().list();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_GT(Entries[0].Bytes, 0u);
}

TEST(DiskCacheTest, KillSwitchBypassesDisk) {
  // An empty root (EXO_JIT_CACHE_DIR="") is the kill switch: the JIT still
  // compiles, but nothing may be published.
  if (!jitAvailable())
    GTEST_SKIP();
  std::string Dir = makeTempDir();
  JitDiskCache::setGlobalRoot("");
  jitClearMemoryCache();

  EXPECT_FALSE(JitDiskCache::global().enabled());
  auto K = jitCompile("int exo_dc_killed(void) { return 3; }\n",
                      "exo_dc_killed", "");
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->get()->as<int (*)(void)>()(), 3);
  EXPECT_TRUE(JitDiskCache::global().list().empty());

  JitDiskCache::setGlobalRoot(Dir);
  EXPECT_TRUE(JitDiskCache::global().enabled());
  EXPECT_TRUE(JitDiskCache::global().list().empty());
}

TEST(DiskCacheTest, MaxBytesKnobRejectsNonPositiveAndGarbage) {
  // 0 would collide with `prune --max-bytes 0` (evict everything), -5 must
  // not wrap to 2^64 - 5, and "64MB" is not a byte count: each warns and
  // keeps the 256 MiB default.
  const char *Saved = std::getenv("EXO_JIT_CACHE_MAX_BYTES");
  const std::string Restore = Saved ? Saved : "";
  for (const char *Bad : {"0", "-5", "64MB"}) {
    ASSERT_EQ(setenv("EXO_JIT_CACHE_MAX_BYTES", Bad, 1), 0);
    EXPECT_EQ(JitDiskCache::configuredMaxBytes(), 256ull << 20) << Bad;
  }
  ASSERT_EQ(setenv("EXO_JIT_CACHE_MAX_BYTES", "1048576", 1), 0);
  EXPECT_EQ(JitDiskCache::configuredMaxBytes(), 1048576u);
  if (Saved)
    setenv("EXO_JIT_CACHE_MAX_BYTES", Restore.c_str(), 1);
  else
    unsetenv("EXO_JIT_CACHE_MAX_BYTES");
}
