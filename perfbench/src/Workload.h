//===- perfbench/src/Workload.h - Shared benchmark state and helpers ------===//
///
/// \file
/// What the three workloads share: the run options, the result they fill
/// in (operations attempted and failed, correctness, metrics), the
/// standard-signature kernels with their native references, and the
/// list of per-layer metrics every traced run prints.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Trace.h"
#include "img/Image.h"
#include "ir/Function.h"
#include "perforation/Tuner.h"
#include "runtime/Session.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p T.
inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// When the process started (taken during static initialization).
Clock::time_point processStart();

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< Scratch directory of this run (inside the
                       ///< checkout; removed at exit).
  std::string ToolDir; ///< Directory holding the built kperfc.
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Lines printed before the JSON result: the figures under the names
  /// of the workload's own phases (tune_s, serve_rps, ...).
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Records a failed correctness check.
  void problem(const std::string &What);
  void note(const std::string &Line) { Notes.push_back(Line); }
};

/// End-to-end metrics every untraced run reports, in BENCHMARK.json order.
/// Each workload defines them over its own operations and rounds (see
/// README.md). Times are medians over the run's rounds, so a burst of
/// load from outside the process that spans less than half the run does
/// not move them.
struct EndToEnd {
  double SetupS = 0;
  std::vector<double> RoundS; ///< Wall time of each measured round.
  /// Latency of each operation, by round; each percentile is taken
  /// within a round, then the median over rounds is reported.
  std::vector<std::vector<double>> RoundOpMs;
  double ModeledSpeedup = 0;
  double PeakRssMb = 0;
};
void addEndToEnd(Result &R, const EndToEnd &E);

/// Fills every per-layer metric of BENCHMARK.json from \p Values; a layer
/// the workload does not reach reports 0.
void addPerLayer(Result &R, const std::map<std::string, double> &Values);

/// Names and units of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Peak resident set of this process, in MB.
double selfPeakRssMb();

/// One standard-signature image kernel (in, out, w, h) of the library's
/// apps with the native C++ implementation it must match.
struct KernelDef {
  std::string Name;
  const char *Source;
  kperf::img::Image (*Reference)(const kperf::img::Image &);
};

/// The nine standard-signature kernels, in the serving mix's rank order.
const std::vector<KernelDef> &standardKernels();
const KernelDef &kernelDef(const std::string &Name);

/// Instructions in \p F.
size_t instructionCount(const kperf::ir::Function &F);

/// A 64-bit hash of \p Size bytes at \p Data.
uint64_t hashBytes(const void *Data, size_t Size);

/// Per-layer accounting shared by the workloads: launches seen from
/// outside, and the compile statistics of the variants they built.
struct LayerAccount {
  unsigned Launches = 0;
  double LaunchMs = 0;
  double WorkItems = 0;
  double ModeledMs = 0;
  unsigned Variants = 0; ///< Compiled variants whose PassStats were read.
  double PipelineMs = 0;
  std::map<std::string, double> PassMs;
  double Instructions = 0;

  void addLaunch(double Ms, const kperf::sim::SimReport &R);
  void addVariant(const kperf::rt::Variant &V);
  /// gpusim.* and ir.* metrics, counts divided by \p Rounds.
  void report(std::map<std::string, double> &Out, double Rounds) const;
};

/// Adds the counters of \p From that the per-layer metrics read to \p Into.
void addSessionStats(kperf::rt::SessionStats &Into,
                     const kperf::rt::SessionStats &From);

/// Adds SessionStats-derived runtime.* and gpusim.bytecode_* metrics,
/// counts divided by \p Rounds.
void reportSessionStats(std::map<std::string, double> &Out,
                        const kperf::rt::SessionStats &St, double Rounds);

/// The perforation plan kperfc tune builds for \p C: its scheme and tile,
/// with the loop-stride axis spliced into the default pipeline.
kperf::perf::PerforationPlan planFor(const kperf::perf::TunerConfig &C);

/// Launches variant \p V (or kernel \p K at local shape \p Local) over
/// image \p In through \p S, with one input and one output buffer
/// checked out for the launch. Fills the output, the report and the host
/// time of the launch call; returns the error text, "" on success.
std::string launchImage(kperf::rt::Session &S, const kperf::rt::Variant &V,
                        const kperf::img::Image &In, std::vector<float> &Out,
                        kperf::sim::SimReport &Report, double &HostMs,
                        Tracer *T);
std::string launchRaw(kperf::rt::Session &S, const kperf::rt::Kernel &K,
                      const kperf::img::Image &In, kperf::sim::Range2 Local,
                      std::vector<float> &Out, kperf::sim::SimReport &Report,
                      double &HostMs, Tracer *T);

Result runTune(const Options &O, Tracer *T);
Result runServe(const Options &O, Tracer *T);
Result runRestart(const Options &O, Tracer *T);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
