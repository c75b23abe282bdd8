//===- Obs.h - Low-overhead tracing for the GEMM and JIT hot paths --------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped trace spans attributing wall time (and, when a counter backend
/// is live, hardware counters — see PerfCounters.h) to the phases of the
/// BLIS macro-kernel (packA / packB / micro-kernel / barrier), the JIT
/// build pipeline, and the kernel-cache service. Design rules:
///
///   1. Free when disabled. `Span`'s constructor is a single relaxed
///      atomic load and a branch when tracing is off — safe to leave in
///      the macro-kernel's block loops permanently. Results are bitwise
///      identical with tracing on or off; the spans only observe.
///   2. Thread-aware. Every OS thread appends to its own buffer and gets
///      a small stable id in registration order, so a threaded GEMM call
///      renders one lane per worker in the chrome trace.
///   3. Pull, don't push. Nothing is written anywhere until a caller
///      collects: `events()` snapshots, `stageTotals()` aggregates by
///      span name, `writeChromeTrace()` emits an `about:tracing` /
///      Perfetto JSON file.
///
/// Enabling: `EXO_OBS=1` in the environment, or `obs::setEnabled(true)`
/// (what the benches do under `--json`/`--trace`). `EXO_OBS_TRACE=<path>`
/// additionally enables tracing and dumps a chrome trace at process exit.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_OBS_H
#define OBS_OBS_H

#include "exo/support/Error.h"
#include "obs/PerfCounters.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace obs {

namespace detail {
extern std::atomic<bool> GEnabled;
/// Resolves EXO_OBS / EXO_OBS_TRACE once; returns the enabled state.
bool initFromEnv();
} // namespace detail

/// True when tracing is live. The relaxed load is the entire disabled-mode
/// cost of a Span.
inline bool enabled() {
  return detail::GEnabled.load(std::memory_order_relaxed);
}

/// Flips tracing at run time (benches, tests). Enabling mid-run is safe;
/// spans already in flight on other threads record normally.
void setEnabled(bool On);

/// One recorded span or mark.
struct Event {
  const char *Name;      ///< static string (span label)
  uint32_t Tid;          ///< stable small thread id (registration order)
  uint64_t StartNs;      ///< ns since the process trace epoch
  uint64_t DurNs;        ///< 0 for marks
  bool IsMark;           ///< instant event (cache hit, ...)
  CounterValues Delta;   ///< counters consumed inside the span (zeros
                         ///< when the backend is off, or for marks)
};

/// RAII span. \p Name must be a string literal (or otherwise outlive the
/// trace); spans nest freely and may cross none of their thread's other
/// spans' boundaries (strict nesting, as with any RAII scope).
class Span {
public:
  explicit Span(const char *Name) : Active(enabled()) {
    if (Active)
      begin(Name);
  }
  ~Span() {
    if (Active)
      end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  void begin(const char *Name);
  void end();
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  CounterValues Start;
  bool HaveCounters = false;
  bool Active;
};

/// Records an instant event (zero duration) when tracing is enabled.
void mark(const char *Name);

/// This thread's stable trace id (registers the thread on first use).
uint32_t threadId();

/// Snapshot of every event recorded so far, across all threads, in no
/// particular global order (per-thread order is chronological).
std::vector<Event> events();

/// Drops all recorded events (thread buffers stay registered, ids stable).
void clear();

/// Aggregate of one span name across the trace.
struct StageStat {
  double Seconds = 0;  ///< total span time (inclusive of nested spans)
  uint64_t Count = 0;  ///< spans + marks with this name
  CounterValues Counters;
};

/// Events aggregated by span name. Marks contribute Count only.
std::map<std::string, StageStat> stageTotals();

/// Writes every recorded event as a chrome://tracing / Perfetto JSON
/// trace ("traceEvents" array of complete events, one lane per thread,
/// with thread_name metadata). Open via about:tracing or ui.perfetto.dev.
exo::Error writeChromeTrace(const std::string &Path);

} // namespace obs

/// Convenience macro: `EXO_OBS_SPAN("gemm.packA");` — a uniquely named
/// local RAII span for the rest of the enclosing scope.
#define EXO_OBS_SPAN_CONCAT2(a, b) a##b
#define EXO_OBS_SPAN_CONCAT(a, b) EXO_OBS_SPAN_CONCAT2(a, b)
#define EXO_OBS_SPAN(name)                                                   \
  ::obs::Span EXO_OBS_SPAN_CONCAT(ObsSpan_, __LINE__)(name)

#endif // OBS_OBS_H
