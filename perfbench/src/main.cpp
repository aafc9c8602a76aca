//===- perfbench/src/main.cpp - Benchmark program entry point -------------===//
///
/// \file
///   perfbench --workload tune|serve|restart --seed N --seconds S
///             --trace 0|1
///
/// Runs one workload from the current directory (the checkout root),
/// prints its figures, and ends with one JSON line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
/// a run with spans recorded (--trace 1). Exit status 0 when the outputs
/// checked correct, 1 when a check failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tune|serve|restart "
               "--seed N --seconds S --trace 0|1\n",
               Why);
  return 2;
}

void printJson(const Result &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(),
                std::isfinite(M.Value) ? M.Value : 0.0, M.Unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0;
    } else if (Flag == "--trace") {
      O.Trace = Value == "1";
      HaveTrace = Value == "0" || Value == "1";
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (Argc % 2 != 1 || !HaveWorkload || !HaveSeed || !HaveSeconds ||
      !HaveTrace)
    return usage("missing or malformed arguments");
  Result (*Run)(const Options &, Tracer *) =
      O.Workload == "tune"      ? runTune
      : O.Workload == "serve"   ? runServe
      : O.Workload == "restart" ? runRestart
                                : nullptr;
  if (!Run)
    return usage(("unknown workload " + O.Workload).c_str());

  namespace fs = std::filesystem;
  std::error_code EC;
  O.ToolDir = fs::read_symlink("/proc/self/exe", EC).parent_path().string();
  const fs::path Out = fs::current_path() / ".bench_build";
  O.WorkDir = (Out / "work" / (O.Workload + "-" + std::to_string(getpid())))
                  .string();
  fs::create_directories(O.WorkDir, EC);
  if (EC)
    return usage(("cannot create " + O.WorkDir).c_str());

  Tracer Spans;
  Result R = Run(O, O.Trace ? &Spans : nullptr);
  fs::remove_all(O.WorkDir, EC);

  for (const std::string &Line : R.Notes)
    std::printf("%s: %s\n", O.Workload.c_str(), Line.c_str());
  if (O.Trace) {
    fs::create_directories(Out / "traces", EC);
    const std::string Path =
        (Out / "traces" /
         (O.Workload + "-seed" + std::to_string(O.Seed) + ".json"))
            .string();
    if (!Spans.writeChromeJson(Path))
      R.problem("cannot write " + Path);
    else
      std::printf("%s: spans written to %s\n", O.Workload.c_str(),
                  Path.c_str());
  }
  for (const Metric &M : R.Metrics)
    std::printf("%s: %s = %.6g %s\n", O.Workload.c_str(), M.Name.c_str(),
                M.Value, M.Unit.c_str());
  printJson(R);
  return R.Correct ? 0 : 1;
}
