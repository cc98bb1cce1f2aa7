// The benchmark's own tests: on tiny traces the traced recomposition reproduces the
// library's StreamingEstimator::Run and ShardedStreamingEstimator::Run (K = 2) estimate
// for estimate, the layers' span self times cover at least kMinCoverage of the traced
// wall, and the metric names the benchmark prints are exactly the ones BENCHMARK.json
// declares.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench.h"
#include "report.h"
#include "system.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {
namespace {

Workload TinyWorkload(SystemKind system) {
  Workload workload;
  workload.name = "tiny";
  workload.arrival_rate = system == SystemKind::kFleet ? 20.0 : 4.0;
  workload.lap_windows = 5;
  workload.pass_laps = 2;
  workload.warmup_windows = 2;
  workload.system = system;
  workload.forecaster = system == SystemKind::kPlain;
  return workload;
}

// Names listed under `section` ("end_to_end" or "per_layer") of BENCHMARK.json.
std::vector<std::string> DeclaredNames(const std::string& json, const std::string& section) {
  const std::size_t start = json.find('[', json.find("\"" + section + "\""));
  const std::size_t end = json.find(']', start);
  std::vector<std::string> names;
  const std::string key = "\"name\"";
  for (std::size_t at = json.find(key, start); at < end; at = json.find(key, at + 1)) {
    const std::size_t open = json.find('"', json.find(':', at)) + 1;
    names.push_back(json.substr(open, json.find('"', open) - open));
  }
  return names;
}

std::vector<std::string> Names(const std::vector<Metric>& metrics) {
  std::vector<std::string> names;
  for (const Metric& metric : metrics) {
    names.push_back(metric.name);
  }
  return names;
}

class RecompositionTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(RecompositionTest, EqualsTheLibraryRunEstimateForEstimate) {
  const Workload workload = TinyWorkload(GetParam());
  const Trace trace = GenerateTrace(workload, 7);
  const PassResult system = RunPass(workload, trace, 7);
  ASSERT_EQ(system.estimates.size(), workload.PassWindows());
  EXPECT_EQ(CountBadWindows(workload, trace, system.estimates), 0u);
  EXPECT_EQ(system.unstamped_windows, 0u);

  Tracer off(false);
  Tracer on(true);
  const RecomposedPass untraced = RecomposePass(workload, trace, 7, off);
  const RecomposedPass traced = RecomposePass(workload, trace, 7, on);
  EXPECT_EQ(CountMismatches(system.estimates, untraced.estimates), 0u);
  EXPECT_EQ(CountMismatches(system.estimates, traced.estimates), 0u);
  EXPECT_EQ(traced.alerts, system.alerts);
  EXPECT_EQ(traced.tasks, system.tasks);
  if (GetParam() == SystemKind::kPlain) {
    EXPECT_EQ(traced.peak_buffered_tasks, system.peak_buffered_tasks);
  }
}

TEST_P(RecompositionTest, LayerSelfTimesCoverTheTracedWall) {
  const Workload workload = TinyWorkload(GetParam());
  const Trace trace = GenerateTrace(workload, 3);
  Tracer tracer(true);
  RecomposePass(workload, trace, 3, tracer);
  std::uint64_t layers = 0;
  for (std::size_t s = 1; s < kStages; ++s) {  // every stage but the root pass
    layers += tracer.SelfNs(static_cast<Stage>(s));
  }
  const double pass_ns = static_cast<double>(tracer.TotalNs(Stage::kPass));
  EXPECT_GE(static_cast<double>(layers) / pass_ns, kMinCoverage);
  EXPECT_DOUBLE_EQ(tracer.Coverage(), static_cast<double>(layers) / pass_ns);
  EXPECT_GT(tracer.SelfNs(Stage::kReplay), 0u);
  EXPECT_GT(tracer.SelfNs(Stage::kBuild), 0u);
  EXPECT_GT(tracer.SelfNs(Stage::kMeanField), 0u);
}

INSTANTIATE_TEST_SUITE_P(Systems, RecompositionTest,
                         ::testing::Values(SystemKind::kPlain, SystemKind::kFleet));

TEST(BenchmarkJson, PrintedMetricNamesMatchTheDeclaredOnes) {
  std::ifstream in(PERFBENCH_JSON_PATH);
  ASSERT_TRUE(in) << "cannot read " << PERFBENCH_JSON_PATH;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  const std::vector<std::string> end_to_end = DeclaredNames(json, "end_to_end");
  const std::vector<std::string> per_layer = DeclaredNames(json, "per_layer");
  ASSERT_FALSE(end_to_end.empty());
  ASSERT_FALSE(per_layer.empty());

  for (const SystemKind system : {SystemKind::kPlain, SystemKind::kFleet}) {
    const Workload workload = TinyWorkload(system);
    const Trace trace = GenerateTrace(workload, 5);
    const RunResult plain = RunEndToEnd(workload, trace, 5, 0.0);
    EXPECT_TRUE(plain.correct);
    EXPECT_EQ(Names(plain.metrics), end_to_end);
    const RunResult traced = RunTraced(workload, trace, 5, 0.0, "");
    EXPECT_TRUE(traced.correct);
    EXPECT_EQ(Names(traced.metrics), per_layer);
  }
}

TEST(BenchmarkJson, EveryDeclaredWorkloadExists) {
  std::ifstream in(PERFBENCH_JSON_PATH);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> declared = DeclaredNames(buffer.str(), "workloads");
  EXPECT_GE(declared.size(), 2u);
  for (const std::string& name : declared) {
    EXPECT_NE(FindWorkload(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace perfbench
