//===- perfbench/src/Workload.cpp -----------------------------------------===//

#include "Workload.h"

#include "Stats.h"
#include "apps/Kernels.h"
#include "apps/References.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <sys/resource.h>

using namespace kperf;
using namespace perfbench;

namespace {
const Clock::time_point ProcessStart = Clock::now();
} // namespace

Clock::time_point perfbench::processStart() { return ProcessStart; }

void Result::problem(const std::string &What) {
  Correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

void perfbench::addEndToEnd(Result &R, const EndToEnd &E) {
  std::string Rounds = "round_s by round:";
  for (double S : E.RoundS)
    Rounds += " " + std::to_string(S);
  R.note(Rounds);
  R.add("setup_s", E.SetupS, "s");
  R.add("round_s", median(E.RoundS), "s");
  std::vector<double> P50, P99;
  for (const std::vector<double> &Ops : E.RoundOpMs) {
    P50.push_back(percentile(Ops, 50));
    P99.push_back(percentile(Ops, 99));
  }
  R.add("op_p50_ms", median(P50), "ms");
  R.add("op_p99_ms", median(P99), "ms");
  R.add("modeled_speedup", E.ModeledSpeedup, "x");
  R.add("peak_rss_mb", E.PeakRssMb, "MB");
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = [] {
    std::vector<std::pair<std::string, std::string>> N = {
        {"pcl.compile_ms", "ms"},
        {"runtime.perforate_compile_ms", "ms"},
        {"runtime.perforate_disk_ms", "ms"},
        {"runtime.variant_compiles", "count"},
        {"runtime.variant_hit_rate", "ratio"},
        {"runtime.evictions", "count"},
        {"runtime.disk_hits", "count"},
        {"runtime.disk_stores", "count"},
        {"ir.pipeline_ms", "ms"}};
    // The passes PassRegistry::instance() registers.
    for (const char *Pass :
         {"cse", "dce", "gvn", "licm", "mem2reg", "memopt-dse",
          "memopt-forward", "perforate-loop", "simplify", "sroa", "unroll"})
      N.push_back({std::string("ir.pass.") + Pass + "_ms", "ms"});
    std::vector<std::pair<std::string, std::string>> Rest = {
        {"ir.instrs_per_variant", "count"},
        {"gpusim.launch_ms", "ms"},
        {"gpusim.launches", "count"},
        {"gpusim.host_ns_per_item", "ns"},
        {"gpusim.modeled_ms", "ms"},
        {"gpusim.bytecode_compiles", "count"},
        {"gpusim.bytecode_hit_rate", "ratio"},
        {"img.score_ms", "ms"},
        {"perforation.baseline_ms", "ms"},
        {"perforation.sweep_ms", "ms"},
        {"perforation.configs_evaluated", "count"},
        {"perforation.configs_feasible", "count"},
        {"perforation.pareto_points", "count"},
        {"runtime.add_service_ms", "ms"},
        {"runtime.serve_approx_ms", "ms"},
        {"runtime.serve_checked_ms", "ms"},
        {"runtime.serve_retune_ms", "ms"},
        {"runtime.serve_accurate_ms", "ms"},
        {"runtime.checks", "count"},
        {"runtime.retunes", "count"},
        {"runtime.degraded_services", "count"},
        {"runtime.approx_share", "ratio"},
        {"runtime.quality_miss_share", "ratio"}};
    N.insert(N.end(), Rest.begin(), Rest.end());
    return N;
  }();
  return Names;
}

void perfbench::addPerLayer(Result &R,
                            const std::map<std::string, double> &Values) {
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = Values.find(Name);
    R.add(Name, It == Values.end() ? 0.0 : It->second, Unit);
  }
  for (const auto &[Name, Value] : Values) {
    bool Known = false;
    for (const auto &Entry : perLayerMetrics())
      Known |= Entry.first == Name;
    if (!Known)
      throw std::logic_error("per-layer metric '" + Name +
                             "' is not in the list");
  }
}

double perfbench::selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

const std::vector<KernelDef> &perfbench::standardKernels() {
  static const std::vector<KernelDef> Defs = {
      {"gaussian", apps::gaussianSource(), apps::referenceGaussian},
      {"inversion", apps::inversionSource(), apps::referenceInversion},
      {"median", apps::medianSource(), apps::referenceMedian},
      {"sobel3", apps::sobel3Source(), apps::referenceSobel3},
      {"sobel5", apps::sobel5Source(), apps::referenceSobel5},
      {"mean", apps::meanSource(), apps::referenceMean},
      {"sharpen", apps::sharpenSource(), apps::referenceSharpen},
      {"convsep_row", apps::convSepRowSource(), apps::referenceConvSepRow},
      {"convsep_col", apps::convSepColSource(), apps::referenceConvSepCol}};
  return Defs;
}

const KernelDef &perfbench::kernelDef(const std::string &Name) {
  for (const KernelDef &D : standardKernels())
    if (D.Name == Name)
      return D;
  throw std::logic_error("unknown kernel " + Name);
}

size_t perfbench::instructionCount(const ir::Function &F) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    N += BB->size();
  return N;
}

uint64_t perfbench::hashBytes(const void *Data, size_t Size) {
  // FNV-1a over 64-bit words (then the tail bytes): outputs are hashed
  // on the serving clients' threads, so this stays cheap.
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL;
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    H = (H ^ W) * 0x100000001b3ULL;
  }
  for (; I < Size; ++I)
    H = (H ^ P[I]) * 0x100000001b3ULL;
  return H ^ (H >> 29);
}

namespace {

/// Shared body of the two launch helpers: one input and one output
/// buffer checked out of \p S around \p Launch.
template <typename LaunchFn>
std::string launchWith(rt::Session &S, const img::Image &In,
                       std::vector<float> &Out, sim::SimReport &Report,
                       double &HostMs, Tracer *T, LaunchFn Launch) {
  unsigned InBuf = S.createBufferFrom(In.pixels());
  unsigned OutBuf = S.createBuffer(In.size());
  std::vector<sim::KernelArg> Args = {
      rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
      rt::arg::i32(static_cast<int32_t>(In.width())),
      rt::arg::i32(static_cast<int32_t>(In.height()))};
  const Clock::time_point Start = Clock::now();
  Expected<sim::SimReport> R = [&] {
    Tracer::Scope Span = span(T, "gpusim.launch");
    return Launch(Args);
  }();
  HostMs = secondsSince(Start) * 1000.0;
  std::string Problem;
  if (R) {
    Report = *R;
    Out = S.buffer(OutBuf).downloadFloats();
  } else {
    Problem = R.error().message();
  }
  S.releaseBuffer(InBuf);
  S.releaseBuffer(OutBuf);
  return Problem;
}

} // namespace

std::string perfbench::launchImage(rt::Session &S, const rt::Variant &V,
                                   const img::Image &In,
                                   std::vector<float> &Out,
                                   sim::SimReport &Report, double &HostMs,
                                   Tracer *T) {
  return launchWith(S, In, Out, Report, HostMs, T,
                    [&](const std::vector<sim::KernelArg> &Args) {
                      return S.launch(V, {In.width(), In.height()}, Args);
                    });
}

std::string perfbench::launchRaw(rt::Session &S, const rt::Kernel &K,
                                 const img::Image &In, sim::Range2 Local,
                                 std::vector<float> &Out,
                                 sim::SimReport &Report, double &HostMs,
                                 Tracer *T) {
  return launchWith(S, In, Out, Report, HostMs, T,
                    [&](const std::vector<sim::KernelArg> &Args) {
                      return S.launch(K, {In.width(), In.height()}, Local,
                                      Args);
                    });
}

perf::PerforationPlan perfbench::planFor(const perf::TunerConfig &C) {
  perf::PerforationPlan Plan;
  Plan.Scheme = C.Scheme;
  Plan.TileX = C.TileX;
  Plan.TileY = C.TileY;
  Plan.PipelineSpec = perf::jointPipelineSpec(Plan.PipelineSpec, C.LoopStride);
  return Plan;
}

void LayerAccount::addLaunch(double Ms, const sim::SimReport &R) {
  ++Launches;
  LaunchMs += Ms;
  WorkItems += static_cast<double>(R.Totals.WorkItems);
  ModeledMs += R.TimeMs;
}

void LayerAccount::addVariant(const rt::Variant &V) {
  ++Variants;
  PipelineMs += V.PassStats.totalMillis();
  for (const ir::PassExecution &P : V.PassStats.Passes)
    PassMs[P.Name] += P.Millis;
  Instructions += static_cast<double>(instructionCount(*V.K.F));
}

void LayerAccount::report(std::map<std::string, double> &Out,
                          double Rounds) const {
  if (Launches != 0) {
    Out["gpusim.launch_ms"] = LaunchMs / Rounds;
    Out["gpusim.launches"] = Launches / Rounds;
    Out["gpusim.host_ns_per_item"] = LaunchMs * 1e6 / WorkItems;
    Out["gpusim.modeled_ms"] = ModeledMs / Rounds;
  }
  if (Variants != 0) {
    Out["ir.pipeline_ms"] = PipelineMs / Variants;
    for (const auto &[Name, Ms] : PassMs)
      Out["ir.pass." + Name + "_ms"] = Ms / Variants;
    Out["ir.instrs_per_variant"] = Instructions / Variants;
  }
}

void perfbench::addSessionStats(rt::SessionStats &Into,
                                const rt::SessionStats &From) {
  Into.VariantCompiles += From.VariantCompiles.load();
  Into.VariantCacheHits += From.VariantCacheHits.load();
  Into.VariantEvictions += From.VariantEvictions.load();
  Into.DiskVariantHits += From.DiskVariantHits.load();
  Into.DiskVariantStores += From.DiskVariantStores.load();
  Into.BytecodeCompiles += From.BytecodeCompiles.load();
  Into.BytecodeCacheHits += From.BytecodeCacheHits.load();
}

void perfbench::reportSessionStats(std::map<std::string, double> &Out,
                                   const rt::SessionStats &St,
                                   double Rounds) {
  Out["runtime.variant_compiles"] = St.VariantCompiles / Rounds;
  Out["runtime.variant_hit_rate"] = St.variantHitRate();
  Out["runtime.evictions"] = St.VariantEvictions / Rounds;
  Out["runtime.disk_hits"] = St.DiskVariantHits / Rounds;
  Out["runtime.disk_stores"] = St.DiskVariantStores / Rounds;
  Out["gpusim.bytecode_compiles"] = St.BytecodeCompiles / Rounds;
  const double Lookups = St.BytecodeCompiles + St.BytecodeCacheHits;
  Out["gpusim.bytecode_hit_rate"] =
      Lookups > 0 ? St.BytecodeCacheHits / Lookups : 0;
}
