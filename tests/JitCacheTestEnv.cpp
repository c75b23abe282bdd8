//===- JitCacheTestEnv.cpp - Ephemeral JIT-cache isolation for tests ------===//

#include "JitCacheTestEnv.h"

#include "exo/jit/DiskCache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace exotest {

std::string makeTempDir(const char *Prefix) {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Templ = std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/" + Prefix +
                      "-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr) << Templ;
  return Dir ? Dir : "";
}

namespace {

std::string &rootStorage() {
  static std::string Root;
  return Root;
}

/// Runs before any test: every JIT artifact this process (or a subprocess
/// it spawns) produces lands in a throwaway directory.
class JitCacheEnv : public ::testing::Environment {
public:
  void SetUp() override {
    std::string Dir = makeTempDir("exo-jit-cache");
    ASSERT_FALSE(Dir.empty());
    rootStorage() = Dir;
    // Both halves matter: setenv covers subprocesses and a global() that
    // has not been constructed yet; setGlobalRoot repoints one that has.
    ASSERT_EQ(setenv("EXO_JIT_CACHE_DIR", Dir.c_str(), 1), 0);
    // The planner's tuning-prior database lives under the same root, so a
    // stale developer DB under ~/.cache never steers test plans either.
    exo::JitDiskCache::setGlobalRoot(Dir);
  }
};

const ::testing::Environment *Registered =
    ::testing::AddGlobalTestEnvironment(new JitCacheEnv);

} // namespace

const std::string &jitCacheTestRoot() { return rootStorage(); }

} // namespace exotest
