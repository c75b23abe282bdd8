//===- Report.cpp ---------------------------------------------------------===//

#include "benchutil/Report.h"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

using namespace benchutil;
using exo::errorf;

Json benchutil::machineIdentity() {
  Json M = Json::object();
#if defined(__unix__) || defined(__APPLE__)
  struct utsname U;
  if (uname(&U) == 0) {
    M.set("os", U.sysname);
    M.set("kernel", U.release);
    M.set("arch", U.machine);
  }
#endif
  // First "model name" line of /proc/cpuinfo (Linux; absent elsewhere).
  std::ifstream Cpu("/proc/cpuinfo");
  std::string Line;
  while (std::getline(Cpu, Line)) {
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos) {
        size_t Start = Line.find_first_not_of(" \t", Colon + 1);
        if (Start != std::string::npos)
          M.set("cpu", Line.substr(Start));
      }
      break;
    }
  }
  M.set("hw_threads",
        static_cast<int64_t>(std::thread::hardware_concurrency()));
  return M;
}

Reporter::Reporter(std::string BenchName) : BenchName(std::move(BenchName)) {}

void Reporter::setOption(const std::string &Key, Json Value) {
  Options.set(Key, std::move(Value));
}

void Reporter::setField(const std::string &Key, Json Value) {
  Fields.set(Key, std::move(Value));
}

void Reporter::addRow(ReportRow Row) { Rows.push_back(std::move(Row)); }

Json Reporter::toJson() const {
  Json Root = Json::object();
  Root.set("schema_version", ReportSchemaVersion);
  Root.set("bench", BenchName);
  Root.set("generated_unix",
           static_cast<int64_t>(std::time(nullptr)));
  Root.set("machine", machineIdentity());
  Root.set("options", Options);
  Root.set("counter_backend", obs::counterBackendName());
  if (const char *R = obs::counterUnavailableReason(); R && *R)
    Root.set("counter_unavailable_reason", R);
  for (const auto &[Key, V] : Fields.items())
    Root.set(Key, V);

  Json RowsJ = Json::array();
  for (const ReportRow &R : Rows) {
    Json J = Json::object();
    J.set("label", R.Label);
    J.set("series", R.Series);
    J.set("metric", R.Metric);
    J.set("better", R.Better);
    J.set("value", R.Value);
    J.set("seconds_per_call", R.SecondsPerCall);
    J.set("reps", R.Reps);
    J.set("threads", R.Threads);
    J.set("m", R.M);
    J.set("n", R.N);
    J.set("k", R.K);
    if (!R.Stages.empty()) {
      Json Stages = Json::object();
      for (const auto &[Name, S] : R.Stages) {
        Json SJ = Json::object();
        SJ.set("seconds", S.Seconds);
        SJ.set("count", static_cast<int64_t>(S.Count));
        if (!S.Counters.isZero()) {
          SJ.set("cycles", static_cast<int64_t>(S.Counters.Cycles));
          SJ.set("instructions",
                 static_cast<int64_t>(S.Counters.Instructions));
          SJ.set("cache_misses",
                 static_cast<int64_t>(S.Counters.CacheMisses));
        }
        Stages.set(Name, std::move(SJ));
      }
      J.set("stages", std::move(Stages));
    }
    if (!R.Extra.empty()) {
      Json Extra = Json::object();
      for (const auto &[Name, V] : R.Extra)
        Extra.set(Name, V);
      J.set("counters", std::move(Extra));
    }
    RowsJ.push(std::move(J));
  }
  Root.set("rows", std::move(RowsJ));
  return Root;
}

exo::Error Reporter::write(const std::string &Path) const {
  return toJson().store(Path);
}

exo::Expected<CompareResult> benchutil::compareReports(
    const Json &Baseline, const Json &Fresh, const CompareOptions &Opts) {
  for (const Json *R : {&Baseline, &Fresh}) {
    if (!R->isObject() || !R->get("rows") || !R->get("rows")->isArray())
      return errorf("bench_check: not a bench report (no rows array)");
    int V = static_cast<int>(R->num("schema_version", -1));
    if (V != ReportSchemaVersion)
      return errorf("bench_check: schema_version %d, this tool handles %d",
                    V, ReportSchemaVersion);
  }
  if (Baseline.str("bench") != Fresh.str("bench"))
    return errorf("bench_check: comparing different benches ('%s' vs '%s')",
                  Baseline.str("bench").c_str(), Fresh.str("bench").c_str());

  auto RowKey = [](const Json &Row) {
    return Row.str("series") + " | " + Row.str("label") + " | " +
           Row.str("metric");
  };

  const Json &FreshRows = *Fresh.get("rows");
  const Json &BaseRows = *Baseline.get("rows");
  CompareResult Res;
  // A baseline from another machine still compares, but its deltas mean
  // less: say so up front, without gating.
  const Json *BM = Baseline.get("machine"), *FM = Fresh.get("machine");
  if (BM && FM) {
    std::string Diff;
    auto Text = [](const Json *V) {
      if (!V)
        return std::string("none");
      std::string S = V->dump(); // JSON text, newline-terminated
      S.pop_back();
      return S;
    };
    for (const char *Field : {"cpu", "arch", "hw_threads"}) {
      const std::string BV = Text(BM->get(Field)), FV = Text(FM->get(Field));
      if (BV != FV)
        Diff += std::string(Diff.empty() ? "" : ", ") + Field + " " + BV +
                " vs " + FV;
    }
    if (!Diff.empty())
      Res.Notes.push_back("machine differs: " + Diff);
  }
  for (size_t I = 0; I != BaseRows.size(); ++I) {
    const Json &B = BaseRows.at(I);
    const Json *F = nullptr;
    for (size_t J = 0; J != FreshRows.size(); ++J)
      if (RowKey(FreshRows.at(J)) == RowKey(B)) {
        F = &FreshRows.at(J);
        break;
      }
    std::string Key = RowKey(B);
    if (!F) {
      (Opts.RequireAllRows ? Res.Regressions : Res.Notes)
          .push_back("missing from fresh report: " + Key);
      continue;
    }
    std::string Better = B.str("better", "higher");
    double BV = B.num("value"), FV = F->num("value");
    ++Res.Compared;
    if (Better == "info")
      continue;
    if (BV == 0) {
      // A zero baseline carries no signal (the series was skipped or
      // failed when the baseline was recorded); note, don't gate.
      Res.Notes.push_back("zero baseline value, skipped: " + Key);
      continue;
    }
    // Relative change in the "good" direction: positive = improvement.
    double Rel = Better == "lower" ? (BV - FV) / BV : (FV - BV) / BV;
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf), "%s: %.4g -> %.4g (%+.1f%%)",
                  Key.c_str(), BV, FV, Rel * 100.0);
    if (Rel < -Opts.Tolerance)
      Res.Regressions.push_back(Buf);
    else if (Rel > Opts.Tolerance)
      Res.Improvements.push_back(Buf);
  }
  for (size_t J = 0; J != FreshRows.size(); ++J) {
    const Json &F = FreshRows.at(J);
    bool Found = false;
    for (size_t I = 0; I != BaseRows.size(); ++I)
      if (RowKey(BaseRows.at(I)) == RowKey(F)) {
        Found = true;
        break;
      }
    if (!Found)
      Res.Notes.push_back("new row (not in baseline): " + RowKey(F));
  }
  return Res;
}
