//===- perfbench/src/Trace.cpp --------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace perfbench;

namespace {

/// Spans each thread has open, innermost last, tagged with their tracer.
thread_local std::vector<std::pair<const Tracer *, long>> OpenSpans;

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

void Tracer::Scope::end() {
  if (!T)
    return;
  T->close(Index);
  T = nullptr;
}

Tracer::Tracer() : Origin(std::chrono::steady_clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

unsigned Tracer::threadNumber() {
  auto It = Threads.find(std::this_thread::get_id());
  if (It != Threads.end())
    return It->second;
  unsigned N = static_cast<unsigned>(Threads.size()) + 1;
  Threads.emplace(std::this_thread::get_id(), N);
  return N;
}

Tracer::Scope Tracer::begin(const std::string &Name, uint64_t Id) {
  long Parent = NoParent;
  for (auto It = OpenSpans.rbegin(); It != OpenSpans.rend(); ++It)
    if (It->first == this) {
      Parent = It->second;
      break;
    }
  return beginUnder(Name, Id, Parent);
}

Tracer::Scope Tracer::beginUnder(const std::string &Name, uint64_t Id,
                                 long Parent) {
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = Parent;
  long Index;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S.Tid = threadNumber();
    S.StartUs = nowUs();
    Index = static_cast<long>(Spans.size());
    Spans.push_back(std::move(S));
  }
  OpenSpans.emplace_back(this, Index);
  return Scope(this, Index);
}

void Tracer::close(long Index) {
  const double End = nowUs();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[static_cast<size_t>(Index)].EndUs = End;
  }
  for (auto It = OpenSpans.rbegin(); It != OpenSpans.rend(); ++It)
    if (It->first == this && It->second == Index) {
      OpenSpans.erase(std::next(It).base());
      break;
    }
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

std::vector<double>
perfbench::selfTimesUs(const std::vector<Tracer::Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Tracer::Span &S : Spans)
    if (S.Parent != Tracer::NoParent && S.EndUs >= 0)
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.StartUs,
                                                            S.EndUs);
  std::vector<double> Self(Spans.size(), 0.0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Tracer::Span &S = Spans[I];
    if (S.EndUs < 0)
      continue;
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    // Union of the child intervals, clipped to the parent's: children
    // that run concurrently on worker threads overlap each other.
    double Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : Kids) {
      Lo = std::max(Lo, S.StartUs);
      Hi = std::min(Hi, S.EndUs);
      if (Hi <= Lo)
        continue;
      if (Lo > CurHi) {
        if (CurHi > CurLo)
          Covered += CurHi - CurLo;
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    if (CurHi > CurLo)
      Covered += CurHi - CurLo;
    Self[I] = std::max(0.0, (S.EndUs - S.StartUs) - Covered);
  }
  return Self;
}

std::map<std::string, double> Tracer::totalMs() const {
  std::map<std::string, double> Out;
  for (const Span &S : spans())
    if (S.EndUs >= 0)
      Out[S.Name] += (S.EndUs - S.StartUs) / 1000.0;
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::vector<double> Self = selfTimesUs(All);
  std::unique_ptr<FILE, int (*)(FILE *)> F(std::fopen(Path.c_str(), "w"),
                                           &std::fclose);
  if (!F)
    return false;
  std::fprintf(F.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const char *Separator = "";
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    if (S.EndUs < 0)
      continue;
    const std::string Layer = S.Name.substr(0, S.Name.find('.'));
    std::fprintf(F.get(),
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"span\":%zu,\"id\":%llu,\"parent\":%ld,"
                 "\"self_us\":%.3f}}",
                 Separator, jsonEscape(S.Name).c_str(),
                 jsonEscape(Layer).c_str(), S.StartUs, S.EndUs - S.StartUs,
                 S.Tid, I, static_cast<unsigned long long>(S.Id), S.Parent,
                 Self[I]);
    Separator = ",";
  }
  std::fprintf(F.get(), "\n]}\n");
  return std::ferror(F.get()) == 0;
}
