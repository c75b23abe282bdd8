//===- Env.h - Checked environment-variable parsing -----------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One checked parser for every EXO_* knob, replacing the scattered
/// atoi/atof reads that silently turned "64MB" into 64 and "banana" into 0.
/// A malformed or out-of-range value is rejected with a one-line stderr
/// warning and the documented default — never silently misread.
///
/// Call-site convention: the caller passes BOTH the knob name and the raw
/// `std::getenv("EXO_...")` result. The redundancy is deliberate — the
/// docs_knobs_check gate (tests/KnobsCheck.cmake) greps for the literal
/// `getenv("EXO_...")` next to each knob use, so the lookup must stay at
/// the call site:
///
///   int W = exo::envInt("EXO_GEMMD_WORKERS",
///                       std::getenv("EXO_GEMMD_WORKERS"), 1, 1, 256);
///
/// Header-only so the lowest layers (obs) can use it without a new link
/// dependency.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SUPPORT_ENV_H
#define EXO_SUPPORT_ENV_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace exo {
namespace env_impl {

/// Once-per-knob guard for the malformed-value warning: a hot-path caller
/// (e.g. resolveGemmThreads, consulted per GEMM call) must not spam stderr
/// with the same line forever. Inline-function static, so every TU shares
/// one instance.
inline bool envAlreadyWarned(const char *Name) {
  static std::mutex M;
  static std::set<std::string> Seen;
  std::lock_guard<std::mutex> L(M);
  return !Seen.insert(Name).second;
}

} // namespace env_impl

/// Integer knob: \p Raw must be a whole base-10 integer within
/// [\p Min, \p Max]. Unset or empty returns \p Default silently; trailing
/// garbage, non-numeric text, or an out-of-range value warns once on
/// stderr and returns \p Default.
inline long long envInt(const char *Name, const char *Raw, long long Default,
                        long long Min, long long Max) {
  if (!Raw || !*Raw)
    return Default;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Raw, &End, 10);
  if (End == Raw || *End != '\0' || errno == ERANGE || V < Min || V > Max) {
    if (!env_impl::envAlreadyWarned(Name))
      std::fprintf(stderr,
                   "exo: ignoring %s='%s' (expected an integer in "
                   "[%lld, %lld]); using default %lld\n",
                   Name, Raw, Min, Max, Default);
    return Default;
  }
  return V;
}

/// Boolean knob, following the KNOBS.md convention that any integer is
/// accepted and non-zero means true. Unset or empty returns \p Default
/// silently; anything unparsable warns and returns \p Default.
inline bool envBool(const char *Name, const char *Raw, bool Default) {
  if (!Raw || !*Raw)
    return Default;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Raw, &End, 10);
  if (End == Raw || *End != '\0' || errno == ERANGE) {
    if (!env_impl::envAlreadyWarned(Name))
      std::fprintf(stderr,
                   "exo: ignoring %s='%s' (expected an integer, non-zero = "
                   "true); using default %d\n",
                   Name, Raw, Default ? 1 : 0);
    return Default;
  }
  return V != 0;
}

} // namespace exo

#endif // EXO_SUPPORT_ENV_H
