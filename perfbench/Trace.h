//===- Trace.h - Benchmark spans and per-layer self time ------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own spans around each public call it makes (the pass or
/// request root, im2row, the Engine/Client call). They record only while
/// the library's obs tracing is on, so one switch traces both layers. Each
/// span keeps name, start, end, parent and op id in memory and is also an
/// obs span; analyze() takes the whole obs trace, nests every
/// span under its innermost enclosing span on the same thread, and sums
/// self time (duration minus direct children) per span name.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "obs/Obs.h"

#include <cstdint>
#include <map>
#include <string>

namespace pb::trace {

/// RAII benchmark span: an obs span (so library spans nest under it on
/// one clock) plus the benchmark's own record. A root span (Op != 0)
/// starts a new op; nested spans inherit the op id of the root open on
/// their thread. \p Name must be a string literal.
class Span {
public:
  explicit Span(const char *Name, uint64_t Op = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  obs::Span Obs;
  int64_t Idx = -1;
};

/// Per-name aggregate over every recorded span (benchmark and library).
struct NameStat {
  double SelfNs = 0; ///< duration minus direct children on the same thread
  double DurNs = 0;  ///< inclusive duration
  uint64_t Count = 0;
};

struct Summary {
  std::map<std::string, NameStat> ByName;
  double RootSelfNs = 0, RootDurNs = 0; ///< over benchmark root spans

  const NameStat &operator[](const std::string &Name) const;
  /// Spans named \p Name whose nearest enclosing benchmark span is \p Anc
  /// (library spans under one dtype's Engine call, say).
  const NameStat &under(const std::string &Name, const std::string &Anc) const;
  /// Share of root-span time no child span accounts for.
  double unattributed() const {
    return RootDurNs > 0 ? RootSelfNs / RootDurNs : 0;
  }
};

/// Merges and nests everything recorded so far (all threads must be idle).
Summary analyze();

/// Writes a header line (workload, seed), the benchmark spans (one JSON
/// object per line: id, name, tid, start_ns, end_ns, parent, op) and the
/// per-name summary.
bool writeSpans(const std::string &Path, const std::string &Workload,
                uint64_t Seed, const Summary &S);

} // namespace pb::trace

#endif // PERFBENCH_TRACE_H
