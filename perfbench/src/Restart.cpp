//===- perfbench/src/Restart.cpp - The `restart` workload -----------------===//
///
/// \file
/// Warm restart of a long-lived process: build the variants of the joint
/// tuning space (the default 140-configuration space less the ten
/// untransformed baselines, so 130 per kernel) for the nine
/// standard-signature kernels into an empty on-disk variant cache, then
/// build them again from fresh rt::Sessions over the same directory. Each
/// phase runs four shard Sessions on four threads that take the next
/// build from a shared queue, as rt::Server stripes a long-lived
/// process's services over shard Sessions. Their variant caches are
/// capped below the 1170 variants, so eviction and kernel retirement do
/// work.
///
/// Only a fixed sample of two configurations per kernel is launched, to
/// compare cold and warm outputs, so an executor change should leave
/// this workload alone.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Stats.h"
#include "Workload.h"

#include "img/Generators.h"
#include "ir/Printer.h"
#include "support/Rng.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

using namespace kperf;
using namespace perfbench;

namespace {

/// Shard Sessions, one thread each, as rt::Server stripes its services.
constexpr unsigned Shards = 4;
/// Variant cache capacity of each shard, 512 in all, below the 1170
/// variants built.
constexpr unsigned Capacity = 128;
/// Warm rebuilds per cold build in one round.
constexpr unsigned WarmPasses = 3;
/// Side of the sample's images: one tile of the sample configurations,
/// so the sample's launches stay below 1% of a round.
constexpr unsigned SampleSize = 16;
/// Launched in both phases, for every kernel; none of them faults.
const char *const SampleConfigs[] = {"Rows2:LI@16x16", "Grid2:LI@16x16/L2"};

struct Build {
  unsigned Kernel = 0;
  perf::PerforationPlan Plan;
  bool Sample = false;
};

struct SampleRun {
  std::vector<float> Out;
  double Speedup = 0;
};

/// One phase: every build once, spread over the shards.
struct Phase {
  double Seconds = 0; ///< Wall time: shard set-up, builds and the sample.
  PhaseCounts Counts;
  unsigned Stores = 0;
  std::vector<uint64_t> IRHash;                ///< Per build.
  std::map<size_t, SampleRun> Samples;         ///< By build index.
};

/// Durations of the perforate() calls, by how they were served.
struct CallLog {
  std::vector<double> CompiledMs, DiskMs, AllMs;
  rt::SessionStats Stats;
  LayerAccount Layers;
};

/// What a shard thread shares with the others; Mu guards all but Next.
struct PhaseState {
  std::mutex Mu;
  std::atomic<size_t> Next{0};
  Phase &P;
  CallLog &Log;
  Result &R;
};

/// One shard of a phase: a fresh capped Session over disk cache \p Dir
/// that takes the next build of \p Order until none is left, launching
/// the sample builds. With \p First (the first cold and the first warm
/// phase of a run) it also hashes each variant's printed IR and measures
/// the sample's modeled speedups.
void runShard(const std::string &Dir, const std::vector<Build> &Builds,
              const std::vector<size_t> &Order,
              const std::vector<img::Image> &Images, bool First, Tracer *T,
              long Parent, unsigned Shard, PhaseState &St) {
  Tracer::Scope Whole =
      T ? T->beginUnder("runtime.shard", Shard, Parent) : Tracer::Scope();
  auto fail = [&](const std::string &What) {
    std::lock_guard<std::mutex> Lock(St.Mu);
    ++St.R.Failed;
    St.R.note(What);
  };
  const std::vector<KernelDef> &Defs = standardKernels();
  rt::Session S;
  S.setVariantCapacity(Capacity);
  if (Error E = S.setDiskCache(Dir)) {
    std::lock_guard<std::mutex> Lock(St.Mu);
    St.R.problem(E.message());
    return;
  }
  std::vector<rt::Kernel> Kernels;
  for (const KernelDef &D : Defs) {
    Tracer::Scope Sp = span(T, "pcl.compile");
    Expected<rt::Kernel> K = S.compile(D.Source, D.Name);
    if (!K) {
      std::lock_guard<std::mutex> Lock(St.Mu);
      St.R.problem(D.Name + ": " + K.error().message());
      return;
    }
    Kernels.push_back(*K);
  }

  for (size_t At; (At = St.Next++) < Order.size();) {
    const size_t I = Order[At];
    const Build &B = Builds[I];
    const unsigned CompilesBefore = S.stats().VariantCompiles;
    const unsigned DiskBefore = S.stats().DiskVariantHits;
    const Clock::time_point T0 = Clock::now();
    Expected<rt::Variant> V = [&] {
      Tracer::Scope Sp = span(T, "runtime.perforate", I);
      return S.perforate(Kernels[B.Kernel], B.Plan);
    }();
    const double Ms = secondsSince(T0) * 1000.0;
    if (!V) {
      fail("perforate failed: " + V.error().message());
      continue;
    }
    {
      std::lock_guard<std::mutex> Lock(St.Mu);
      St.Log.AllMs.push_back(Ms);
      if (S.stats().VariantCompiles != CompilesBefore) {
        St.Log.CompiledMs.push_back(Ms);
        St.Log.Layers.addVariant(*V);
      } else if (S.stats().DiskVariantHits != DiskBefore) {
        St.Log.DiskMs.push_back(Ms);
      }
    }
    if (First) {
      // Compared without the function's name, which each Session mints
      // from its own counter.
      std::string IR = ir::printFunction(*V->K.F);
      const std::string Header = "kernel " + V->K.F->name() + "(";
      if (IR.compare(0, Header.size(), Header) == 0)
        IR.replace(0, Header.size(), "kernel (");
      St.P.IRHash[I] = hashBytes(IR.data(), IR.size());
    }
    if (!B.Sample)
      continue;
    SampleRun Run;
    sim::SimReport Rep;
    double LaunchMs = 0;
    std::string Problem = launchImage(S, *V, Images[B.Kernel], Run.Out, Rep,
                                      LaunchMs, T);
    if (!Problem.empty()) {
      fail("sample launch failed: " + Problem);
      continue;
    }
    sim::SimReport AccRep;
    double AccMs = 0;
    if (First) {
      // The kernel as written at the same tile is the speedup denominator.
      std::vector<float> Unused;
      Problem = launchRaw(S, Kernels[B.Kernel], Images[B.Kernel],
                          {B.Plan.TileX, B.Plan.TileY}, Unused, AccRep, AccMs,
                          T);
      if (!Problem.empty()) {
        fail("accurate sample launch failed: " + Problem);
        continue;
      }
      Run.Speedup = AccRep.TimeMs / Rep.TimeMs;
    }
    std::lock_guard<std::mutex> Lock(St.Mu);
    St.Log.Layers.addLaunch(LaunchMs, Rep);
    if (First)
      St.Log.Layers.addLaunch(AccMs, AccRep);
    St.P.Samples[I] = std::move(Run);
  }
  std::lock_guard<std::mutex> Lock(St.Mu);
  St.P.Counts.Compiles += S.stats().VariantCompiles;
  St.P.Counts.DiskHits += S.stats().DiskVariantHits;
  St.P.Stores += S.stats().DiskVariantStores;
  addSessionStats(St.Log.Stats, S.stats());
}

/// Builds every variant of \p Builds once, over \p Shards fresh Sessions
/// sharing disk cache \p Dir (empty when \p Cold).
Phase runPhase(const std::string &Dir, const std::vector<Build> &Builds,
               const std::vector<size_t> &Order,
               const std::vector<img::Image> &Images, bool Cold, bool First,
               Tracer *T, CallLog &Log, Result &R) {
  Tracer::Scope Whole =
      span(T, Cold ? "runtime.cold_build" : "runtime.warm_load");
  Phase P;
  P.IRHash.assign(Builds.size(), 0);
  P.Counts.Variants = static_cast<unsigned>(Order.size());
  PhaseState St{{}, {0}, P, Log, R};
  const Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned Shard = 0; Shard < Shards; ++Shard)
    Threads.emplace_back([&, Shard] {
      runShard(Dir, Builds, Order, Images, First, T, Whole.index(), Shard,
               St);
    });
  for (std::thread &Th : Threads)
    Th.join();
  P.Seconds = secondsSince(T0);
  // Every build, and each sample launch, is one operation.
  size_t SampleLaunches = 0;
  for (const Build &B : Builds)
    SampleLaunches += B.Sample ? (First ? 2 : 1) : 0;
  R.Attempted += Order.size() + SampleLaunches;
  return P;
}

} // namespace

Result perfbench::runRestart(const Options &O, Tracer *T) {
  Result R;
  const std::vector<KernelDef> &Defs = standardKernels();
  std::vector<Build> Builds;
  std::vector<img::Image> Images;
  for (unsigned K = 0; K < Defs.size(); ++K) {
    Images.push_back(img::generateImage(img::ImageClass::Natural, SampleSize,
                                        SampleSize, O.Seed * 16 + K));
    for (const perf::TunerConfig &C : perf::defaultTuningSpace()) {
      if (C.Scheme.Kind == perf::SchemeKind::None && C.LoopStride <= 1)
        continue;
      Build B;
      B.Kernel = K;
      B.Plan = planFor(C);
      for (const char *Label : SampleConfigs)
        B.Sample |= C.str() == Label;
      Builds.push_back(std::move(B));
    }
  }
  // Seeded build order: which variants the capped cache evicts, and when.
  std::vector<size_t> Order(Builds.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng Shuffle(O.Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffle.below(I)]);
  EndToEnd E;
  E.SetupS = secondsSince(processStart());

  CallLog Log;
  std::vector<double> Speedups;
  const Clock::time_point Start = Clock::now();
  unsigned Rounds = 0;
  do {
    const std::string Dir =
        O.WorkDir + "/variant-cache-" + std::to_string(Rounds);
    const size_t FirstCall = Log.AllMs.size();
    Phase Cold = runPhase(Dir, Builds, Order, Images, /*Cold=*/true,
                          Rounds == 0, T, Log, R);
    if (std::string P = checkColdPhase(Cold.Counts, Cold.Stores); !P.empty())
      R.problem(P);
    double RoundS = Cold.Seconds;
    for (unsigned W = 0; W < WarmPasses; ++W) {
      const bool FirstWarm = Rounds == 0 && W == 0;
      Phase Warm = runPhase(Dir, Builds, Order, Images, /*Cold=*/false,
                            FirstWarm, T, Log, R);
      RoundS += Warm.Seconds;
      if (std::string P = checkWarmPhase(Warm.Counts); !P.empty())
        R.problem(P);
      if (FirstWarm)
        for (size_t I = 0; I < Builds.size(); ++I)
          if (Warm.IRHash[I] != Cold.IRHash[I]) {
            R.problem("variant " + std::to_string(I) +
                      " reloaded from disk prints different IR");
            break;
          }
      for (const auto &[I, Run] : Cold.Samples) {
        auto It = Warm.Samples.find(I);
        if (It == Warm.Samples.end() || It->second.Out.size() != Run.Out.size() ||
            std::memcmp(It->second.Out.data(), Run.Out.data(),
                        Run.Out.size() * sizeof(float)) != 0)
          R.problem(Defs[Builds[I].Kernel].Name +
                    ": warm sample output differs from the cold build");
      }
    }
    if (Rounds == 0)
      for (const auto &[I, Run] : Cold.Samples)
        Speedups.push_back(Run.Speedup);
    std::error_code Ignored;
    std::filesystem::remove_all(Dir, Ignored);
    E.RoundS.push_back(RoundS);
    E.RoundOpMs.emplace_back(Log.AllMs.begin() + FirstCall, Log.AllMs.end());
    ++Rounds;
  } while (secondsSince(Start) < O.Seconds);

  E.ModeledSpeedup = geomean(Speedups);
  E.PeakRssMb = selfPeakRssMb();
  R.note("cold_build_ms " + std::to_string(mean(Log.CompiledMs)) +
         " per variant; warm_load_ms " + std::to_string(mean(Log.DiskMs)) +
         " per variant; round_s " + std::to_string(median(E.RoundS)) +
         " over " + std::to_string(Rounds) + " rounds");
  if (!T) {
    addEndToEnd(R, E);
    return R;
  }

  auto Totals = T->totalMs();
  std::map<std::string, double> L;
  const double N = Rounds;
  L["pcl.compile_ms"] = Totals["pcl.compile"] / N;
  L["runtime.perforate_compile_ms"] = mean(Log.CompiledMs);
  L["runtime.perforate_disk_ms"] = mean(Log.DiskMs);
  reportSessionStats(L, Log.Stats, N);
  Log.Layers.report(L, N);
  addPerLayer(R, L);
  return R;
}
