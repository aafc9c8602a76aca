//===- perfbench/src/Serve.cpp - The `serve` workload ---------------------===//
///
/// \file
/// Closed-loop multi-tenant serving through rt::Server, the daemon's
/// library: four clients, each waiting for its reply, send a seeded
/// zipfian mix over the nine standard-signature services at the server's
/// defaults (Rows2:NN at 16x16, budget 0.05, a quality check every 8th
/// request, online re-tune on a violated budget).
///
/// The seed draws the request mix. Each service is sent one frame, the
/// same for every seed. Which request of a service the server checks
/// depends on how the clients interleave on it, so with several frames
/// per service the frame a check sees, and with it the failed checks,
/// the re-tunes and the variants they compile, could change from run to
/// run; with one frame a check's outcome depends only on the service's
/// current variant. The frames are not seeded because the frame content
/// sets the quality loop's path: with seeded frames five seeds gave 4 to
/// 7 re-tunes and 45 to 72 variant compiles (see README.md).
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Stats.h"
#include "Workload.h"

#include "img/Generators.h"
#include "img/Metrics.h"
#include "runtime/Server.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

using namespace kperf;
using namespace perfbench;

namespace {

constexpr unsigned FrameSize = 64;
constexpr unsigned Clients = 4;
/// Requests one client sends between looks at the clock.
constexpr unsigned ClientRound = 64;
/// Requests per reported round, in completion order: round_s is the time
/// they take, and a round's p99 has ten samples beyond it.
constexpr unsigned RoundRequests = 1024;
/// rt::ServiceConfig's default budget.
constexpr double Budget = 0.05;

/// Zipf(1) over the nine services in standardKernels() order.
struct Zipf {
  std::vector<double> Cdf;
  explicit Zipf(size_t N) {
    double Total = 0;
    for (size_t I = 0; I < N; ++I)
      Total += 1.0 / static_cast<double>(I + 1);
    double Acc = 0;
    for (size_t I = 0; I < N; ++I) {
      Acc += 1.0 / static_cast<double>(I + 1) / Total;
      Cdf.push_back(Acc);
    }
  }
  size_t sample(Rng &R) const {
    double U = R.uniform();
    for (size_t I = 0; I < Cdf.size(); ++I)
      if (U < Cdf[I])
        return I;
    return Cdf.size() - 1;
  }
};

enum class Kind { Approx, Checked, ReTune, Accurate };

struct Record {
  unsigned Svc = 0;
  Kind K = Kind::Approx;
  double Ms = 0;
  double DoneS = 0; ///< Completion, in seconds since the load started.
  double ModeledMs = 0;
  bool Approximate = false;
};

/// One distinct response body a client received for a service.
struct Response {
  std::vector<float> Output;
  unsigned Served = 0;
  /// Distinct errors the server measured on checked requests that
  /// returned this (approximate) output.
  std::vector<double> CheckedErrors;
};

/// What one client saw. Every response is hashed on arrival and its body
/// kept once per distinct output, so the checks afterwards cover every
/// response without storing each one.
struct ClientLog {
  std::vector<Record> Records;
  unsigned Failed = 0;
  std::vector<std::string> Errors;
  /// Keyed by (service, approximate?, output hash).
  std::map<std::tuple<unsigned, bool, uint64_t>, Response> Responses;
};

Kind kindOf(const rt::ServeResult &S) {
  if (S.ReTuned)
    return Kind::ReTune;
  if (S.Checked)
    return Kind::Checked;
  return S.UsedApproximate ? Kind::Approx : Kind::Accurate;
}

} // namespace

Result perfbench::runServe(const Options &O, Tracer *T) {
  Result R;
  const std::vector<KernelDef> &Defs = standardKernels();
  std::vector<img::Image> Frames;
  for (size_t I = 0; I < Defs.size(); ++I)
    Frames.push_back(img::generateImage(img::ImageClass::Smooth, FrameSize,
                                        FrameSize, 100 + I));

  rt::Server Server;
  std::vector<double> AddServiceMs;
  for (const KernelDef &D : Defs) {
    rt::ServiceConfig SC;
    SC.Name = D.Name;
    SC.Source = D.Source;
    SC.Kernel = D.Name;
    SC.Width = FrameSize;
    SC.Height = FrameSize;
    SC.Scheme = perf::PerforationScheme::rows(
        2, perf::ReconstructionKind::NearestNeighbor);
    const Clock::time_point T0 = Clock::now();
    Error E = [&] {
      Tracer::Scope Sp = span(T, "runtime.add_service");
      return Server.addService(SC);
    }();
    AddServiceMs.push_back(secondsSince(T0) * 1000.0);
    if (E) {
      R.problem("registering " + D.Name + ": " + E.message());
      return R;
    }
  }
  EndToEnd E2E;
  E2E.SetupS = secondsSince(processStart());

  std::vector<ClientLog> Logs(Clients);
  std::atomic<uint64_t> NextId{0};
  const Zipf Mix(Defs.size());
  const Clock::time_point Start = Clock::now();
  auto Client = [&](unsigned C) {
    ClientLog &Log = Logs[C];
    Rng Schedule(O.Seed * 1000 + C + 1);
    do {
      for (unsigned I = 0; I < ClientRound; ++I) {
        const unsigned Svc = static_cast<unsigned>(Mix.sample(Schedule));
        const Clock::time_point T0 = Clock::now();
        Expected<rt::ServeResult> Res = [&] {
          Tracer::Scope Sp = span(T, "runtime.serve", NextId++);
          return Server.serve(Defs[Svc].Name, Frames[Svc].pixels());
        }();
        Record Rec;
        Rec.Svc = Svc;
        Rec.Ms = secondsSince(T0) * 1000.0;
        Rec.DoneS = secondsSince(Start);
        if (!Res) {
          ++Log.Failed;
          if (Log.Errors.size() < 4)
            Log.Errors.push_back(Res.error().message());
          continue;
        }
        Rec.K = kindOf(*Res);
        Rec.ModeledMs = Res->Report.TimeMs;
        Rec.Approximate = Res->UsedApproximate;
        Log.Records.push_back(Rec);
        const uint64_t Hash = hashBytes(
            Res->Output.data(), Res->Output.size() * sizeof(float));
        Response &Body =
            Log.Responses[{Svc, Res->UsedApproximate, Hash}];
        if (Body.Served++ == 0)
          Body.Output = std::move(Res->Output);
        if (Res->Checked && Res->UsedApproximate &&
            std::find(Body.CheckedErrors.begin(), Body.CheckedErrors.end(),
                      Res->MeasuredError) == Body.CheckedErrors.end())
          Body.CheckedErrors.push_back(Res->MeasuredError);
      }
    } while (secondsSince(Start) < O.Seconds);
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &Th : Threads)
    Th.join();
  const double TotalS = secondsSince(Start);
  E2E.PeakRssMb = selfPeakRssMb();

  // Checks against the native references, and each service's accurate
  // modeled time on its frame.
  std::vector<std::vector<float>> Native;
  std::vector<double> AccurateMs;
  {
    rt::Session S;
    for (size_t I = 0; I < Defs.size(); ++I) {
      Native.push_back(Defs[I].Reference(Frames[I]).pixels());
      Expected<rt::Kernel> K = S.compile(Defs[I].Source, Defs[I].Name);
      std::vector<float> Out;
      sim::SimReport Rep;
      double Ms = 0;
      std::string P = K ? launchRaw(S, *K, Frames[I], {16, 16}, Out, Rep, Ms,
                                    nullptr)
                        : K.error().message();
      if (!P.empty())
        R.problem(Defs[I].Name + ": accurate launch: " + P);
      AccurateMs.push_back(Rep.TimeMs);
    }
  }
  uint64_t Sent = 0, Served = 0, Failed = 0, Approx = 0, Misses = 0;
  double AccurateSum = 0, ServedSum = 0;
  std::map<Kind, std::vector<double>> ByKind;
  std::vector<std::pair<double, double>> Completions; // (done, latency)
  for (ClientLog &Log : Logs) {
    Sent += Log.Records.size() + Log.Failed;
    Served += Log.Records.size();
    Failed += Log.Failed;
    for (const std::string &Err : Log.Errors)
      R.note("failed request: " + Err);
    for (const Record &Rec : Log.Records) {
      Completions.push_back({Rec.DoneS, Rec.Ms});
      ByKind[Rec.K].push_back(Rec.Ms);
      AccurateSum += AccurateMs[Rec.Svc];
      ServedSum += Rec.ModeledMs;
      Approx += Rec.Approximate;
    }
    for (const auto &[Key, Body] : Log.Responses) {
      const auto &[Svc, Approximate, Hash] = Key;
      (void)Hash;
      if (!Approximate) {
        if (std::string P = compareToReference(Native[Svc], Body.Output);
            !P.empty())
          R.problem(Defs[Svc].Name + ": accurate response: " + P);
        continue;
      }
      const double Own = img::meanRelativeError(Native[Svc], Body.Output);
      for (double Measured : Body.CheckedErrors)
        if (std::string P = checkMeasuredError(Measured, Own); !P.empty())
          R.problem(Defs[Svc].Name + ": checked response: " + P);
      if (Own > Budget)
        Misses += Body.Served;
    }
  }
  const rt::ServerStats St = Server.stats();
  if (St.Requests != Sent || Sent != Served + Failed)
    R.problem("server counted " + std::to_string(St.Requests) +
              " requests; sent " + std::to_string(Sent) + ", served " +
              std::to_string(Served) + ", failed " + std::to_string(Failed));
  R.Attempted = Sent;
  R.Failed = Failed;

  std::sort(Completions.begin(), Completions.end());
  std::vector<double> AllMs;
  double RoundStart = 0;
  for (size_t I = 0; I < Completions.size(); ++I) {
    AllMs.push_back(Completions[I].second);
    if (I % RoundRequests == 0)
      E2E.RoundOpMs.emplace_back();
    E2E.RoundOpMs.back().push_back(Completions[I].second);
    if ((I + 1) % RoundRequests == 0) {
      E2E.RoundS.push_back(Completions[I].first - RoundStart);
      RoundStart = Completions[I].first;
    }
  }
  if (E2E.RoundOpMs.size() > E2E.RoundS.size())
    E2E.RoundOpMs.pop_back(); // the last, partial round
  if (E2E.RoundS.empty())
    R.problem("fewer than " + std::to_string(RoundRequests) +
              " requests served");
  const double Rounds = static_cast<double>(Served) / RoundRequests;
  E2E.ModeledSpeedup = ServedSum > 0 ? AccurateSum / ServedSum : 0;
  R.note("serve_rps " + std::to_string(Served / TotalS) + " req/s; p50 " +
         std::to_string(percentile(AllMs, 50)) + " ms, p99 " +
         std::to_string(percentile(AllMs, 99)) + " ms over " +
         std::to_string(Served) + " requests");
  R.note("server: " + St.str());
  if (!T) {
    addEndToEnd(R, E2E);
    return R;
  }

  std::map<std::string, double> L;
  L["runtime.add_service_ms"] = mean(AddServiceMs) * Defs.size();
  L["runtime.serve_approx_ms"] = mean(ByKind[Kind::Approx]);
  L["runtime.serve_checked_ms"] = mean(ByKind[Kind::Checked]);
  L["runtime.serve_retune_ms"] = mean(ByKind[Kind::ReTune]);
  L["runtime.serve_accurate_ms"] = mean(ByKind[Kind::Accurate]);
  L["runtime.checks"] = St.Checks;
  L["runtime.retunes"] = St.ReTunes;
  L["runtime.degraded_services"] = St.DegradedServices;
  L["runtime.approx_share"] =
      Served ? static_cast<double>(Approx) / Served : 0;
  L["runtime.quality_miss_share"] =
      Approx ? static_cast<double>(Misses) / Approx : 0;
  reportSessionStats(L, St.Sessions, 1);
  L["gpusim.modeled_ms"] = ServedSum / Rounds;
  addPerLayer(R, L);
  return R;
}
