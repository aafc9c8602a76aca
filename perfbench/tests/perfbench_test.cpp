//===- perfbench/tests/perfbench_test.cpp - The benchmark's own tests -----===//
///
/// \file
/// Shows that every correctness check of the workloads fails on a
/// corrupted input, that the percentile helper and self-time computation
/// give the textbook values, and that the benchmark prints exactly the
/// metrics BENCHMARK.json names. Exit status 0 when all pass.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Stats.h"
#include "Trace.h"
#include "Workload.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

using namespace perfbench;

namespace {

unsigned Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What);
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void testPercentile() {
  expect(near(percentile({1, 2, 3, 4}, 50), 2.5), "median of 1..4 is 2.5");
  expect(near(percentile({4, 1, 3, 2}, 0), 1), "p0 is the minimum");
  expect(near(percentile({4, 1, 3, 2}, 100), 4), "p100 is the maximum");
  std::vector<double> Hundred;
  for (int I = 1; I <= 100; ++I)
    Hundred.push_back(I);
  expect(near(percentile(Hundred, 99), 99.01), "p99 of 1..100 is 99.01");
  expect(near(percentile(Hundred, 25), 25.75), "p25 of 1..100 is 25.75");
  expect(near(percentile({7}, 99), 7), "percentile of one sample");
  expect(percentile({}, 50) == 0, "percentile of no samples is 0");
  expect(near(median({3, 1, 2}), 2), "median of three");
  expect(near(geomean({1, 4}), 2), "geomean of 1 and 4");
  expect(geomean({1, 0}) == 0, "geomean with a zero is 0");
}

void testReferenceCheck() {
  std::vector<float> Ref = {0.1f, 0.5f, 0.9f, 2.0f};
  expect(compareToReference(Ref, Ref).empty(), "identical outputs pass");
  std::vector<float> Close = Ref;
  Close[3] += 1e-5f;
  expect(compareToReference(Ref, Close).empty(), "float noise passes");
  std::vector<float> Changed = Ref;
  Changed[1] = 0.5f + 1.0f / 255.0f;
  expect(!compareToReference(Ref, Changed).empty(),
         "a changed pixel in an accurate response fails");
  std::vector<float> Nan = Ref;
  Nan[0] = std::nanf("");
  expect(!compareToReference(Ref, Nan).empty(), "a NaN pixel fails");
  expect(!compareToReference(Ref, {0.1f}).empty(), "a short output fails");
}

const char *TuneReport = R"(tuning over 140 configurations on 128x128 input (4 jobs)...

3/140 configurations feasible

Pareto front:
  Baseline@16x16           speedup  1.00x  MRE 0.00000

per-variant pass statistics:
  Baseline@16x16           speedup  1.00x  MRE 0.00000
  Rows2:LI@16x16           speedup  1.80x  MRE 0.01000  [mem2reg:4 (2 rounds, 0.90 ms)]
  Rows4:LI@16x16/L2        speedup  2.50x  MRE 0.04000  [mem2reg:4 (2 rounds, 0.90 ms)]

chosen for budget 0.050: Rows4:LI@16x16/L2 (speedup 2.50x, MRE 0.04000)
re-validated from cache: speedup 2.50x, MRE 0.04000
session: source compiles: 1
)";

void testTuneChecks() {
  std::string Problem;
  TuneOutput T = parseTuneOutput(TuneReport, Problem);
  expect(Problem.empty(), "sample report parses");
  expect(T.Feasible == 3 && T.Total == 140, "feasible count parsed");
  expect(T.Results.size() == 3 && T.Results[1].Label == "Rows2:LI@16x16" &&
             near(T.Results[1].Speedup, 1.8) && near(T.Results[1].Error, 0.01),
         "results list parsed");
  expect(T.HasChoice && T.Choice.Label == "Rows4:LI@16x16/L2" &&
             near(T.Choice.Speedup, 2.5),
         "choice parsed");
  expect(dominatorsOf(T.Results, T.Choice).empty(),
         "the fastest config within budget is not dominated");

  std::vector<TunePoint> Corrupted = T.Results;
  Corrupted.push_back({"Grid2:LI@16x16", 2.6, 0.03});
  expect(dominatorsOf(Corrupted, T.Choice).size() == 1,
         "a chosen config dominated by another feasible result fails");
  expect(dominatorsOf(T.Results, {"Rows2:NN@16x16", 1.5, 0.02}).size() == 1,
         "a slower, less accurate choice is dominated");

  // Equal at print precision: a candidate for exact re-measurement, but
  // no dominator by the printed numbers alone.
  std::vector<TunePoint> Tie = {{"A", 2.5, 0.04}};
  expect(possibleDominatorsOf(Tie, T.Choice).size() == 1,
         "a print-precision tie is re-measured");
  expect(dominatorsOf(Tie, T.Choice).empty(), "an exact tie dominates not");

  // Of a three-config space, "C" faulted.
  std::vector<std::string> Gone;
  const std::vector<std::string> Space = {"A", "B", "C"};
  const std::vector<TunePoint> AB = {{"A", 1, 0}, {"B", 2, 0.01}};
  expect(checkFaults(Space, AB, {"C"}, Gone).empty() && Gone.empty(),
         "exactly the expected faults pass");
  expect(!checkFaults(Space, AB, {"B"}, Gone).empty(),
         "a fault other than the expected ones fails");
  expect(checkFaults(Space, AB, {"B", "C"}, Gone).empty() && Gone.size() == 1,
         "an expected fault that went away passes as a fix");

  TuneOutput Short = parseTuneOutput("2/140 configurations feasible\n",
                                     Problem);
  expect(!Problem.empty(), "a report listing fewer results than feasible fails");
}

void testRestartChecks() {
  expect(checkWarmPhase({1170, 0, 1170}).empty(), "a clean warm phase passes");
  expect(!checkWarmPhase({1170, 1, 1169}).empty(),
         "a warm phase that compiled fails");
  expect(!checkWarmPhase({1170, 0, 1000}).empty(),
         "a warm phase that missed the disk fails");
  expect(checkColdPhase({1170, 1170, 0}, 1170).empty(),
         "a clean cold phase passes");
  expect(!checkColdPhase({1170, 1170, 0}, 1169).empty(),
         "a cold phase that stored too few fails");
  expect(!checkColdPhase({1170, 1169, 1}, 1170).empty(),
         "a cold phase that hit the disk fails");
}

void testServeChecks() {
  expect(checkMeasuredError(0.0312345, 0.0312346).empty(),
         "agreeing errors pass");
  expect(!checkMeasuredError(0.0312, 0.0412).empty(),
         "a misreported error fails");
}

void testSelfTime() {
  std::vector<Tracer::Span> Spans(4);
  Spans[0] = {"perforation.sweep", 0, Tracer::NoParent, 0, 100, 1};
  Spans[1] = {"perforation.evaluate", 1, 0, 10, 40, 2};
  Spans[2] = {"perforation.evaluate", 2, 0, 30, 60, 3};
  Spans[3] = {"runtime.perforate", 1, 1, 15, 20, 2};
  std::vector<double> Self = selfTimesUs(Spans);
  expect(near(Self[0], 50), "overlapping children are counted once");
  expect(near(Self[1], 25), "a child's own child is subtracted");
  expect(near(Self[3], 5), "a leaf's self time is its duration");

  Tracer T;
  {
    Tracer::Scope Outer = T.begin("a.outer", 7);
    Tracer::Scope Inner = T.begin("b.inner", 7);
  }
  std::vector<Tracer::Span> Recorded = T.spans();
  expect(Recorded.size() == 2 && Recorded[1].Parent == 0 &&
             Recorded[0].EndUs >= Recorded[1].EndUs,
         "nested scopes record their parent");
  expect(T.totalMs().count("a.outer") == 1 && T.totalMs()["a.outer"] >= 0,
         "totals cover closed spans");
}

void testMetricNames() {
  std::ifstream In(PERFBENCH_JSON);
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Json = Buf.str();
  auto names = [&](const std::string &Section) {
    std::vector<std::string> Out;
    size_t At = Json.find("\"" + Section + "\"");
    size_t End = Json.find(']', At);
    std::regex Name("\"name\": \"([^\"]+)\"");
    std::string Body = Json.substr(At, End - At);
    for (std::sregex_iterator It(Body.begin(), Body.end(), Name), E;
         It != E; ++It)
      Out.push_back((*It)[1]);
    return Out;
  };
  Result E2E;
  addEndToEnd(E2E, EndToEnd());
  std::vector<std::string> Printed;
  for (const Metric &M : E2E.Metrics)
    Printed.push_back(M.Name);
  expect(Printed == names("end_to_end"),
         "untraced runs print the end_to_end metrics of BENCHMARK.json");
  Result Layers;
  addPerLayer(Layers, {});
  Printed.clear();
  for (const Metric &M : Layers.Metrics)
    Printed.push_back(M.Name);
  expect(Printed == names("per_layer"),
         "traced runs print the per_layer metrics of BENCHMARK.json");
  std::vector<std::string> Workloads = names("workloads");
  expect((Workloads == std::vector<std::string>{"tune", "serve", "restart"}),
         "BENCHMARK.json names the three workloads");
}

} // namespace

int main() {
  testPercentile();
  testReferenceCheck();
  testTuneChecks();
  testRestartChecks();
  testServeChecks();
  testSelfTime();
  testMetricNames();
  if (Failures == 0)
    std::printf("perfbench_test: all checks passed\n");
  return Failures == 0 ? 0 : 1;
}
