//===- ReportTest.cpp - BENCH_*.json schema and the bench_check gate ------===//

#include "benchutil/Report.h"

#include <gtest/gtest.h>

#include <string>

using namespace benchutil;

namespace {

ReportRow row(const char *Label, const char *Series, double Value,
              const char *Metric = "gflops", const char *Better = "higher") {
  ReportRow R;
  R.Label = Label;
  R.Series = Series;
  R.Metric = Metric;
  R.Better = Better;
  R.Value = Value;
  return R;
}

Json report(std::initializer_list<ReportRow> Rows) {
  Reporter Rep("unit");
  for (const ReportRow &R : Rows)
    Rep.addRow(R);
  return Rep.toJson();
}

TEST(ReportTest, SchemaFields) {
  Reporter Rep("unit");
  Rep.setOption("seconds", 0.25);
  Rep.setField("gemm_threads", 2);
  ReportRow R = row("256", "ALG+EXO", 40.0);
  R.SecondsPerCall = 1e-3;
  R.Reps = 7;
  R.Threads = 2;
  R.M = R.N = R.K = 256;
  obs::StageStat S;
  S.Seconds = 5e-4;
  S.Count = 7;
  S.Counters = {1000, 500, 10};
  R.Stages["gemm.ukr"] = S;
  R.Extra["speedup"] = 1.5;
  Rep.addRow(std::move(R));

  Json J = Rep.toJson();
  EXPECT_EQ(J.num("schema_version"), ReportSchemaVersion);
  EXPECT_EQ(J.str("bench"), "unit");
  ASSERT_NE(J.get("machine"), nullptr);
  EXPECT_FALSE(J.get("machine")->str("arch").empty());
  EXPECT_GE(J.get("machine")->num("hw_threads"), 1);
  EXPECT_EQ(J.get("options")->num("seconds"), 0.25);
  EXPECT_EQ(J.num("gemm_threads"), 2);
  ASSERT_EQ(J.get("rows")->size(), 1u);
  const Json &Row = J.get("rows")->at(0);
  EXPECT_EQ(Row.str("label"), "256");
  EXPECT_EQ(Row.str("series"), "ALG+EXO");
  EXPECT_EQ(Row.str("metric"), "gflops");
  EXPECT_EQ(Row.str("better"), "higher");
  EXPECT_EQ(Row.num("value"), 40.0);
  EXPECT_EQ(Row.num("reps"), 7);
  const Json *Stages = Row.get("stages");
  ASSERT_NE(Stages, nullptr);
  const Json *Ukr = Stages->get("gemm.ukr");
  ASSERT_NE(Ukr, nullptr);
  EXPECT_EQ(Ukr->num("seconds"), 5e-4);
  EXPECT_EQ(Ukr->num("cycles"), 1000);
  EXPECT_EQ(Row.get("counters")->num("speedup"), 1.5);
}

TEST(ReportTest, RoundTripThroughText) {
  Json J = report({row("a", "s", 1.0), row("b", "s", 2.0)});
  auto Back = Json::parse(J.dump());
  ASSERT_TRUE(bool(Back));
  EXPECT_EQ(Back->dump(), J.dump());
}

TEST(ReportTest, IdenticalReportsPass) {
  Json A = report({row("a", "s", 10.0), row("b", "s", 0.5, "seconds",
                                            "lower")});
  auto R = compareReports(A, A, {});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->pass());
  EXPECT_EQ(R->Compared, 2);
  EXPECT_TRUE(R->Improvements.empty());
}

TEST(ReportTest, RegressionBeyondToleranceFails) {
  Json Base = report({row("a", "s", 100.0)});
  Json Fresh = report({row("a", "s", 85.0)});
  auto R = compareReports(Base, Fresh, {});
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->pass());
  ASSERT_EQ(R->Regressions.size(), 1u);
}

TEST(ReportTest, RegressionWithinTolerancePasses) {
  Json Base = report({row("a", "s", 100.0)});
  Json Fresh = report({row("a", "s", 95.0)});
  auto R = compareReports(Base, Fresh, {});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->pass());

  CompareOptions Loose;
  Loose.Tolerance = 0.5;
  Json Worse = report({row("a", "s", 60.0)});
  auto R2 = compareReports(Base, Worse, Loose);
  ASSERT_TRUE(bool(R2));
  EXPECT_TRUE(R2->pass());
}

TEST(ReportTest, LowerIsBetterDirection) {
  Json Base = report({row("pass", "s", 0.010, "seconds", "lower")});
  Json Slower = report({row("pass", "s", 0.013, "seconds", "lower")});
  Json Faster = report({row("pass", "s", 0.007, "seconds", "lower")});
  auto R1 = compareReports(Base, Slower, {});
  ASSERT_TRUE(bool(R1));
  EXPECT_FALSE(R1->pass());
  auto R2 = compareReports(Base, Faster, {});
  ASSERT_TRUE(bool(R2));
  EXPECT_TRUE(R2->pass());
  EXPECT_EQ(R2->Improvements.size(), 1u);
}

TEST(ReportTest, InfoRowsNeverGate) {
  Json Base = report({row("audit", "s", 96.0, "fma_ops", "info")});
  Json Fresh = report({row("audit", "s", 1.0, "fma_ops", "info")});
  auto R = compareReports(Base, Fresh, {});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->pass());
}

TEST(ReportTest, MissingRowsNoteOrFail) {
  Json Base = report({row("a", "s", 10.0), row("b", "s", 10.0)});
  Json Fresh = report({row("a", "s", 10.0), row("c", "s", 10.0)});
  auto R = compareReports(Base, Fresh, {});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->pass());
  EXPECT_FALSE(R->Notes.empty());

  CompareOptions Strict;
  Strict.RequireAllRows = true;
  auto R2 = compareReports(Base, Fresh, Strict);
  ASSERT_TRUE(bool(R2));
  EXPECT_FALSE(R2->pass());
}

TEST(ReportTest, MachineMismatchIsNotedNotGated) {
  Json Base = report({row("a", "s", 10.0)});
  Json Fresh = Base;
  auto Same = compareReports(Base, Fresh, {});
  ASSERT_TRUE(bool(Same));
  EXPECT_TRUE(Same->Notes.empty());

  Json Machine = *Base.get("machine");
  Machine.set("cpu", "Other CPU @ 2.70GHz");
  Machine.set("hw_threads", static_cast<int64_t>(1024));
  Fresh.set("machine", Machine);
  auto R = compareReports(Base, Fresh, {});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->pass());
  ASSERT_EQ(R->Notes.size(), 1u);
  EXPECT_EQ(R->Notes[0].rfind("machine differs: cpu ", 0), 0u) << R->Notes[0];
  EXPECT_NE(R->Notes[0].find("Other CPU @ 2.70GHz"), std::string::npos);
  EXPECT_NE(R->Notes[0].find("hw_threads"), std::string::npos);
  EXPECT_EQ(R->Notes[0].find("arch"), std::string::npos);
  EXPECT_EQ(R->Notes[0].find('\n'), std::string::npos);
}

TEST(ReportTest, SchemaOrBenchMismatchIsAnError) {
  Json A = report({row("a", "s", 1.0)});
  Json B = report({row("a", "s", 1.0)});
  B.set("schema_version", ReportSchemaVersion + 1);
  EXPECT_FALSE(bool(compareReports(A, B, {})));

  Json C = report({row("a", "s", 1.0)});
  C.set("bench", "other");
  EXPECT_FALSE(bool(compareReports(A, C, {})));
}

} // namespace
