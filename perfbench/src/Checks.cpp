//===- perfbench/src/Checks.cpp -------------------------------------------===//

#include "Checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace perfbench;

std::string perfbench::compareToReference(const std::vector<float> &Ref,
                                          const std::vector<float> &Got,
                                          double Tol) {
  if (Ref.size() != Got.size())
    return "output has " + std::to_string(Got.size()) + " samples, " +
           "reference " + std::to_string(Ref.size());
  for (size_t I = 0; I < Ref.size(); ++I) {
    const double R = Ref[I], G = Got[I];
    if (!(std::fabs(G - R) <= Tol * std::max(1.0, std::fabs(R)))) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf), "sample %zu is %.7g, reference %.7g",
                    I, G, R);
      return Buf;
    }
  }
  return "";
}

TuneOutput perfbench::parseTuneOutput(const std::string &Text,
                                      std::string &Problem) {
  TuneOutput Out;
  Problem.clear();
  std::istringstream In(Text);
  std::string Line;
  bool InList = false, SawCount = false;
  while (std::getline(In, Line)) {
    unsigned F = 0, T = 0;
    if (std::sscanf(Line.c_str(), "%u/%u configurations feasible", &F,
                    &T) == 2) {
      Out.Feasible = F;
      Out.Total = T;
      SawCount = true;
      continue;
    }
    if (Line == "per-variant pass statistics:") {
      InList = true;
      continue;
    }
    char Label[128];
    double S = 0, E = 0;
    if (InList) {
      if (Line.rfind("  ", 0) != 0) {
        InList = false;
      } else if (std::sscanf(Line.c_str(), " %127s speedup %lfx MRE %lf",
                             Label, &S, &E) == 3) {
        Out.Results.push_back({Label, S, E});
        continue;
      }
    }
    if (std::sscanf(Line.c_str(),
                    "chosen for budget %*f: %127s (speedup %lfx, MRE %lf)",
                    Label, &S, &E) == 3) {
      Out.HasChoice = true;
      Out.Choice = {Label, S, E};
    }
  }
  if (!SawCount)
    Problem = "no \"configurations feasible\" line";
  else if (Out.Results.size() != Out.Feasible)
    Problem = "listed " + std::to_string(Out.Results.size()) +
              " results for " + std::to_string(Out.Feasible) +
              " feasible configurations";
  else if (!Out.HasChoice)
    Problem = "no configuration chosen";
  return Out;
}

bool perfbench::dominates(const TunePoint &A, const TunePoint &B) {
  return A.Speedup >= B.Speedup && A.Error <= B.Error &&
         (A.Speedup > B.Speedup || A.Error < B.Error);
}

std::vector<TunePoint>
perfbench::dominatorsOf(const std::vector<TunePoint> &Results,
                        const TunePoint &Choice) {
  std::vector<TunePoint> Out;
  for (const TunePoint &R : Results)
    if (R.Label != Choice.Label && dominates(R, Choice))
      Out.push_back(R);
  return Out;
}

std::vector<TunePoint>
perfbench::possibleDominatorsOf(const std::vector<TunePoint> &Results,
                                const TunePoint &Choice) {
  std::vector<TunePoint> Out;
  for (const TunePoint &R : Results)
    if (R.Label != Choice.Label && R.Speedup >= Choice.Speedup &&
        R.Error <= Choice.Error)
      Out.push_back(R);
  return Out;
}

std::string perfbench::checkFaults(const std::vector<std::string> &Space,
                                   const std::vector<TunePoint> &Results,
                                   const std::set<std::string> &Expected,
                                   std::vector<std::string> &Gone) {
  std::set<std::string> Faulted(Space.begin(), Space.end());
  for (const TunePoint &P : Results)
    Faulted.erase(P.Label);
  std::string Unexpected;
  for (const std::string &L : Faulted)
    if (!Expected.count(L))
      Unexpected += " " + L;
  Gone.clear();
  for (const std::string &L : Expected)
    if (!Faulted.count(L))
      Gone.push_back(L);
  return Unexpected.empty() ? "" : "unexpected faults:" + Unexpected;
}

std::string perfbench::checkWarmPhase(const PhaseCounts &P) {
  if (P.Compiles != 0)
    return "warm phase compiled " + std::to_string(P.Compiles) +
           " variants";
  if (P.DiskHits != P.Variants)
    return "warm phase served " + std::to_string(P.DiskHits) +
           " of " + std::to_string(P.Variants) + " variants from disk";
  return "";
}

std::string perfbench::checkColdPhase(const PhaseCounts &P,
                                      unsigned DiskStores) {
  if (P.DiskHits != 0)
    return "cold phase hit an empty disk cache " +
           std::to_string(P.DiskHits) + " times";
  if (P.Compiles != P.Variants || DiskStores != P.Variants)
    return "cold phase compiled " + std::to_string(P.Compiles) +
           " and stored " + std::to_string(DiskStores) + " of " +
           std::to_string(P.Variants) + " variants";
  return "";
}

std::string perfbench::checkMeasuredError(double Measured, double Own) {
  if (std::fabs(Measured - Own) <= 1e-4 * std::max(1.0, std::fabs(Own)))
    return "";
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "server measured error %.7g, benchmark %.7g", Measured, Own);
  return Buf;
}
