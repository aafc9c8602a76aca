//===- perfbench/src/Tune.cpp - The `tune` workload -----------------------===//
///
/// \file
/// The paper's offline workflow: `kperfc tune --jobs 4` over the default
/// 140-configuration space, for four apps chosen for their loops (mean is
/// accepted by perforate-loop, median is refused by it, sobel5 has the
/// heaviest window, inversion has no halo and faults on four configs), at
/// kperfc's default error budget, each on a seeded image passed with
/// --image. End-to-end figures come from the kperfc processes.
///
/// The traced run cannot see inside kperfc, so it performs the same tune
/// in-process through the library, with spans around each call.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Stats.h"
#include "Workload.h"

#include "img/Generators.h"
#include "img/Metrics.h"
#include "img/PGM.h"
#include "perforation/Pareto.h"
#include "perforation/Tuner.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fcntl.h>
#include <fstream>
#include <mutex>
#include <set>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace kperf;
using namespace perfbench;

namespace {

const char *const TuneApps[] = {"mean", "sobel5", "median", "inversion"};
constexpr unsigned ImageSize = 128;
constexpr unsigned Jobs = 4;
/// kperfc tune's default --budget, which the runs leave unset.
constexpr double Budget = 0.05;

struct AppInput {
  std::string Name;
  std::string PclPath;
  std::string PgmPath;
  img::Image Image; ///< The image as kperfc reads it back (8-bit).
};

struct ChildRun {
  std::string Out;
  double WallS = 0;
  double MaxRssMb = 0;
  std::string Problem;
};

/// Runs \p Argv to completion with its standard output captured.
ChildRun runChild(const std::vector<std::string> &Argv) {
  ChildRun R;
  int Pipe[2];
  if (pipe2(Pipe, O_CLOEXEC) != 0) {
    R.Problem = "pipe failed";
    return R;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], 1);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  const Clock::time_point Start = Clock::now();
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  if (Err != 0) {
    close(Pipe[0]);
    R.Problem = "cannot start " + Argv[0];
    return R;
  }
  char Buf[8192];
  for (;;) {
    ssize_t N = read(Pipe[0], Buf, sizeof(Buf));
    if (N > 0)
      R.Out.append(Buf, static_cast<size_t>(N));
    else if (N == 0 || errno != EINTR)
      break;
  }
  close(Pipe[0]);
  int Status = 0;
  struct rusage Usage = {};
  while (wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  R.WallS = secondsSince(Start);
  R.MaxRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    R.Problem = Argv[0] + " " + Argv[1] + " " + Argv[2] + " ended with " +
                (WIFSIGNALED(Status)
                     ? "signal " + std::to_string(WTERMSIG(Status))
                     : "status " + std::to_string(WEXITSTATUS(Status)));
  return R;
}

/// The configs of the default space that fault today (see README.md).
std::set<std::string> expectedFaults(const std::string &App) {
  if (App != "inversion")
    return {};
  return {"Rows4:NN@128x2", "Rows4:NN@128x2/L2", "Rows4:LI@128x2",
          "Rows4:LI@128x2/L2"};
}

/// One configuration measured as kperfc tune measures it: the variant's
/// output, its modeled speedup over \p AccurateMs (the kernel as written,
/// modeled at the same tile) and its error against \p Reference (the
/// kernel as written at 16x16).
struct Evaluation {
  std::string Problem;
  perf::Measurement M;
  std::vector<float> Out;
  rt::Variant V; ///< Unset for the untransformed configuration.
  double PerforateMs = 0;
  double LaunchMs = 0;
  sim::SimReport Rep;
};

Evaluation evaluateConfig(rt::Session &S, const rt::Kernel &K,
                          const img::Image &Image,
                          const std::vector<float> &Reference,
                          double AccurateMs, const perf::TunerConfig &C,
                          Tracer *T, uint64_t Id) {
  Evaluation E;
  if (C.Scheme.Kind == perf::SchemeKind::None && C.LoopStride <= 1) {
    E.M = perf::Measurement{1.0, 0.0, {}};
    E.Out = Reference;
    return E;
  }
  const perf::PerforationPlan Plan = planFor(C);
  const Clock::time_point P0 = Clock::now();
  Expected<rt::Variant> V = [&] {
    Tracer::Scope Sp = span(T, "runtime.perforate", Id);
    return S.perforate(K, Plan);
  }();
  E.PerforateMs = secondsSince(P0) * 1000.0;
  if (!V) {
    E.Problem = V.error().message();
    return E;
  }
  E.V = *V;
  E.Problem = launchImage(S, E.V, Image, E.Out, E.Rep, E.LaunchMs, T);
  if (!E.Problem.empty())
    return E;
  E.M.Speedup = AccurateMs / E.Rep.TimeMs;
  {
    Tracer::Scope Sp = span(T, "img.score", Id);
    E.M.Error = img::meanRelativeError(Reference, E.Out);
  }
  E.M.PassStats = E.V.PassStats;
  return E;
}

/// Exact measurement of one configuration through the library, plus its
/// error against the native reference.
struct Exact {
  TunePoint P;
  double NativeError = 0;
  std::string Problem;
};

class AppChecker {
public:
  explicit AppChecker(const AppInput &A)
      : A(A), Native(kernelDef(A.Name).Reference(A.Image).pixels()) {
    Expected<rt::Kernel> KOr = S.compile(kernelDef(A.Name).Source, A.Name);
    if (!KOr) {
      Problem = KOr.error().message();
      return;
    }
    K = *KOr;
    sim::SimReport Rep;
    double Ms = 0;
    Problem = launchRaw(S, K, A.Image, {16, 16}, Accurate, Rep, Ms, nullptr);
  }

  Exact measure(const std::string &Label) {
    Exact E;
    E.P.Label = Label;
    const perf::TunerConfig *C = nullptr;
    for (const perf::TunerConfig &Cand : Space)
      if (Cand.str() == Label)
        C = &Cand;
    if (!C) {
      E.Problem = "unknown configuration " + Label;
      return E;
    }
    std::vector<float> Unused;
    sim::SimReport AccRep;
    double Ms = 0;
    E.Problem = launchRaw(S, K, A.Image, {C->TileX, C->TileY}, Unused, AccRep,
                          Ms, nullptr);
    if (!E.Problem.empty())
      return E;
    Evaluation V = evaluateConfig(S, K, A.Image, Accurate, AccRep.TimeMs, *C,
                                  nullptr, 0);
    E.Problem = V.Problem;
    if (!E.Problem.empty())
      return E;
    E.P.Speedup = V.M.Speedup;
    E.P.Error = V.M.Error;
    E.NativeError = img::meanRelativeError(Native, V.Out);
    return E;
  }

  /// Checks one app's tune report; returns the chosen config's exact
  /// modeled speedup.
  double check(const TuneOutput &T, Result &R) {
    const std::string &N = A.Name;
    if (!Problem.empty()) {
      R.problem(N + ": accurate launch: " + Problem);
      return 0;
    }
    if (std::string P = compareToReference(Native, Accurate); !P.empty())
      R.problem(N + ": accurate output against the native reference: " + P);

    Exact C = measure(T.Choice.Label);
    if (!C.Problem.empty()) {
      R.problem(N + ": relaunching the chosen " + T.Choice.Label + ": " +
                C.Problem);
      return 0;
    }
    if (!(C.NativeError <= Budget))
      R.problem(N + ": chosen " + C.P.Label + " has error " +
                std::to_string(C.NativeError) +
                " against the native reference, over the budget");
    if (!(C.P.Speedup >= 1))
      R.problem(N + ": chosen " + C.P.Label + " has modeled speedup " +
                std::to_string(C.P.Speedup));
    if (std::fabs(C.P.Speedup - T.Choice.Speedup) > 0.0051 ||
        std::fabs(C.P.Error - T.Choice.Error) > 0.0000051)
      R.problem(N + ": chosen " + C.P.Label +
                " does not reproduce the reported speedup and error");
    // The report rounds speedup and error, so every result that could
    // dominate the choice at print precision is re-measured exactly.
    std::vector<TunePoint> Candidates;
    for (const TunePoint &D : possibleDominatorsOf(T.Results, T.Choice)) {
      Exact E = measure(D.Label);
      if (!E.Problem.empty())
        R.problem(N + ": relaunching " + D.Label + ": " + E.Problem);
      Candidates.push_back(E.P);
    }
    for (const TunePoint &D : dominatorsOf(Candidates, C.P))
      R.problem(N + ": chosen " + C.P.Label + " is dominated by " +
                D.Label);

    std::vector<std::string> Labels, Gone;
    for (const perf::TunerConfig &Cand : Space)
      Labels.push_back(Cand.str());
    if (std::string P = checkFaults(Labels, T.Results, expectedFaults(N), Gone);
        !P.empty())
      R.problem(N + ": " + P);
    for (const std::string &L : Gone)
      R.note(N + ": " + L + " no longer faults");
    return C.P.Speedup;
  }

private:
  const AppInput &A;
  const std::vector<float> Native;
  const std::vector<perf::TunerConfig> Space = perf::defaultTuningSpace();
  rt::Session S;
  rt::Kernel K;
  std::vector<float> Accurate;
  std::string Problem;
};

std::vector<AppInput> makeInputs(const Options &O, Result &R) {
  std::vector<AppInput> Inputs;
  uint64_t Index = 0;
  for (const char *Name : TuneApps) {
    AppInput A;
    A.Name = Name;
    A.PclPath = O.WorkDir + "/" + A.Name + ".pcl";
    A.PgmPath = O.WorkDir + "/" + A.Name + ".pgm";
    if (!(std::ofstream(A.PclPath) << kernelDef(A.Name).Source))
      R.problem("cannot write " + A.PclPath);
    img::Image Generated =
        img::generateImage(img::ImageClass::Natural, ImageSize, ImageSize,
                           O.Seed * 16 + Index++);
    if (Error E = img::writePGM(Generated, A.PgmPath))
      R.problem(E.message());
    Expected<img::Image> Back = img::readPGM(A.PgmPath);
    if (!Back) {
      R.problem(Back.error().message());
      return {};
    }
    A.Image = *Back;
    Inputs.push_back(std::move(A));
  }
  return Inputs;
}

/// What the traced in-process tune accumulates across apps and rounds.
struct TraceAccount {
  std::mutex Mu;
  LayerAccount Layers;
  std::vector<double> PerforateCompileMs;
  rt::SessionStats Stats;
  double Configs = 0, Feasible = 0, Pareto = 0;
};

/// kperfc's cmdTune, step for step, with spans around each library call.
TuneOutput tuneTraced(const AppInput &A, uint64_t AppId, Tracer &T,
                      TraceAccount &Acc, std::string &Problem) {
  TuneOutput Out;
  Tracer::Scope Whole = T.begin("perforation.tune", AppId);
  rt::Session S;
  Expected<rt::Kernel> K = [&] {
    Tracer::Scope Sp = T.begin("pcl.compile", AppId);
    return S.compile(kernelDef(A.Name).Source, A.Name);
  }();
  if (!K) {
    Problem = K.error().message();
    return Out;
  }
  const std::vector<perf::TunerConfig> Space = perf::defaultTuningSpace();
  const unsigned W = A.Image.width(), H = A.Image.height();

  std::vector<float> Reference;
  std::map<std::pair<unsigned, unsigned>, double> AccurateMs;
  {
    Tracer::Scope Sp = T.begin("perforation.baseline", AppId);
    sim::SimReport Rep;
    double Ms = 0;
    Problem = launchRaw(S, *K, A.Image, {16, 16}, Reference, Rep, Ms, &T);
    Acc.Layers.addLaunch(Ms, Rep);
    for (const perf::TunerConfig &C : Space) {
      auto Key = std::make_pair(C.TileX, C.TileY);
      if (!Problem.empty() || AccurateMs.count(Key) || W % C.TileX != 0 ||
          H % C.TileY != 0)
        continue;
      std::vector<float> Unused;
      Problem = launchRaw(S, *K, A.Image, {C.TileX, C.TileY}, Unused, Rep,
                          Ms, &T);
      Acc.Layers.addLaunch(Ms, Rep);
      AccurateMs.emplace(Key, Rep.TimeMs);
    }
  }
  if (!Problem.empty())
    return Out;

  std::set<std::string> Seen;
  Tracer::Scope Sweep = T.begin("perforation.sweep", AppId);
  const long SweepIdx = Sweep.index();
  perf::EvaluateFn Evaluate =
      [&](const perf::TunerConfig &C) -> Expected<perf::Measurement> {
    const uint64_t Id = AppId * 1000 + static_cast<uint64_t>(&C - &Space[0]);
    Tracer::Scope Eval = T.beginUnder("perforation.evaluate", Id, SweepIdx);
    if (W % C.TileX != 0 || H % C.TileY != 0)
      return makeError("image not divisible by the tile");
    auto AccIt = AccurateMs.find({C.TileX, C.TileY});
    if (AccIt == AccurateMs.end())
      return makeError("no accurate baseline");
    Evaluation E = evaluateConfig(S, *K, A.Image, Reference, AccIt->second,
                                  C, &T, Id);
    if (!E.Problem.empty())
      return makeError("%s", E.Problem.c_str());
    if (!E.V.K.F)
      return E.M;
    std::lock_guard<std::mutex> Lock(Acc.Mu);
    // Every configuration is its own variant key, so the first request of
    // a key is the one that compiled it.
    if (Seen.insert(rt::VariantKey::forPerforation(*K->F, planFor(C)).str())
            .second) {
      Acc.PerforateCompileMs.push_back(E.PerforateMs);
      Acc.Layers.addVariant(E.V);
    }
    Acc.Layers.addLaunch(E.LaunchMs, E.Rep);
    return E.M;
  };
  std::vector<perf::TunerResult> Results =
      perf::tuneParallel(Space, Evaluate, Jobs);
  Sweep.end();

  size_t Best = perf::bestWithinErrorBudget(Results, Budget);
  std::vector<perf::TradeoffPoint> Points = perf::toTradeoffPoints(Results);
  Out.Total = static_cast<unsigned>(Results.size());
  for (const perf::TunerResult &R : Results)
    if (R.Feasible) {
      ++Out.Feasible;
      Out.Results.push_back({R.Config.str(), R.M.Speedup, R.M.Error});
    }
  if (Best != ~size_t(0)) {
    Out.HasChoice = true;
    Out.Choice = {Results[Best].Config.str(), Results[Best].M.Speedup,
                  Results[Best].M.Error};
  }
  std::lock_guard<std::mutex> Lock(Acc.Mu);
  Acc.Configs += Out.Total;
  Acc.Feasible += Out.Feasible;
  Acc.Pareto += static_cast<double>(perf::paretoFront(Points).size());
  addSessionStats(Acc.Stats, S.stats());
  return Out;
}

} // namespace

Result perfbench::runTune(const Options &O, Tracer *T) {
  Result R;
  std::vector<AppInput> Inputs = makeInputs(O, R);
  if (Inputs.empty())
    return R;
  const double SetupS = secondsSince(processStart());

  EndToEnd E;
  E.SetupS = SetupS;
  TraceAccount Acc;
  std::vector<TuneOutput> Reports(Inputs.size());
  const Clock::time_point Start = Clock::now();
  unsigned Rounds = 0;
  do {
    double RoundS = 0;
    E.RoundOpMs.emplace_back();
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const AppInput &A = Inputs[I];
      TuneOutput Out;
      std::string Problem;
      const Clock::time_point T0 = Clock::now();
      if (T) {
        Out = tuneTraced(A, I + 1, *T, Acc, Problem);
      } else {
        ChildRun C = runChild({O.ToolDir + "/kperfc", "tune", A.PclPath,
                               "--image", A.PgmPath, "--jobs",
                               std::to_string(Jobs), "--time-passes"});
        E.PeakRssMb = std::max(E.PeakRssMb, C.MaxRssMb);
        Problem = C.Problem;
        if (Problem.empty())
          Out = parseTuneOutput(C.Out, Problem);
      }
      const double AppS = secondsSince(T0);
      if (!Problem.empty()) {
        R.problem(A.Name + ": " + Problem);
        return R;
      }
      RoundS += AppS;
      E.RoundOpMs.back().push_back(AppS * 1000.0);
      R.Attempted += Out.Total;
      R.Failed += Out.Total - Out.Feasible;
      if (Rounds == 0)
        Reports[I] = Out;
      else if (Out.Choice.Label != Reports[I].Choice.Label ||
               Out.Feasible != Reports[I].Feasible)
        R.problem(A.Name + ": round " + std::to_string(Rounds + 1) +
                  " chose " + Out.Choice.Label + ", round 1 chose " +
                  Reports[I].Choice.Label);
    }
    E.RoundS.push_back(RoundS);
    ++Rounds;
  } while (secondsSince(Start) < O.Seconds);

  std::vector<double> Speedups;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    AppChecker Checker(Inputs[I]);
    Speedups.push_back(Checker.check(Reports[I], R));
    R.note(Inputs[I].Name + ": chose " + Reports[I].Choice.Label + ", " +
           std::to_string(Reports[I].Feasible) + "/" +
           std::to_string(Reports[I].Total) + " feasible");
  }
  E.ModeledSpeedup = geomean(Speedups);
  R.note("tune_s (median round) " + std::to_string(median(E.RoundS)) +
         " s over " + std::to_string(Rounds) + " rounds; tuned_speedup " +
         std::to_string(E.ModeledSpeedup));
  if (!T) {
    addEndToEnd(R, E);
    return R;
  }

  auto Totals = T->totalMs();
  std::map<std::string, double> L;
  const double N = Rounds;
  L["pcl.compile_ms"] = Totals["pcl.compile"] / N;
  L["runtime.perforate_compile_ms"] = mean(Acc.PerforateCompileMs);
  reportSessionStats(L, Acc.Stats, N);
  Acc.Layers.report(L, N);
  L["img.score_ms"] = Totals["img.score"] / N;
  L["perforation.baseline_ms"] = Totals["perforation.baseline"] / N;
  L["perforation.sweep_ms"] = Totals["perforation.sweep"] / N;
  L["perforation.configs_evaluated"] = Acc.Configs / N;
  L["perforation.configs_feasible"] = Acc.Feasible / N;
  L["perforation.pareto_points"] = Acc.Pareto / N;
  addPerLayer(R, L);
  return R;
}
