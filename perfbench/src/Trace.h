//===- perfbench/src/Trace.h - In-memory spans around library calls -------===//
///
/// \file
/// The traced run's recorder. The benchmark opens a span around each call
/// it makes into a layer of the library ("pcl.compile", "gpusim.launch",
/// ...); spans are kept in memory and written at the end as Chrome
/// trace-event JSON, which chrome://tracing and Perfetto open.
///
/// A span has a name, start, end, the span that caused it and an id that
/// the spans of one request or one tuning configuration share. The parent
/// is the innermost span the same thread has open, or one named
/// explicitly when work crosses threads (a sweep's worker evaluations).
/// Self time is a span's duration minus the part of it that its children
/// cover.
///
/// Untraced runs pass a null Tracer: span() then records nothing and the
/// measured code path is otherwise the same.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
public:
  static constexpr long NoParent = -1;

  struct Span {
    std::string Name;
    uint64_t Id = 0;
    long Parent = NoParent; ///< Index into spans(), or NoParent.
    double StartUs = 0;     ///< Since the tracer was created.
    double EndUs = -1;      ///< Negative while the span is open.
    unsigned Tid = 0;       ///< Small per-thread number.
  };

  /// Closes its span when destroyed (or at end()). A default-constructed
  /// scope records nothing.
  class Scope {
  public:
    Scope() = default;
    Scope(Tracer *T, long Index) : T(T), Index(Index) {}
    Scope(Scope &&O) noexcept : T(O.T), Index(O.Index) { O.T = nullptr; }
    Scope &operator=(Scope &&) = delete;
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { end(); }

    /// Closes the span now; later calls do nothing.
    void end();
    /// Index of the span, or NoParent for an inactive scope.
    long index() const { return T ? Index : NoParent; }

  private:
    Tracer *T = nullptr;
    long Index = NoParent;
  };

  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span whose parent is the innermost span this thread has open
  /// on this tracer.
  Scope begin(const std::string &Name, uint64_t Id);
  /// Opens a span under an explicit \p Parent (a span of another thread).
  Scope beginUnder(const std::string &Name, uint64_t Id, long Parent);

  /// A copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Summed duration, in ms, of the closed spans of each name.
  std::map<std::string, double> totalMs() const;

  /// Writes the spans as Chrome trace-event JSON; false on an I/O error.
  bool writeChromeJson(const std::string &Path) const;

private:
  void close(long Index);
  double nowUs() const;
  unsigned threadNumber();

  const std::chrono::steady_clock::time_point Origin;
  mutable std::mutex Mu; ///< Guards Spans and Threads.
  std::vector<Span> Spans;
  std::map<std::thread::id, unsigned> Threads;
};

/// Opens a span on \p T, or nothing when \p T is null (untraced run).
inline Tracer::Scope span(Tracer *T, const std::string &Name,
                          uint64_t Id = 0) {
  return T ? T->begin(Name, Id) : Tracer::Scope();
}

/// Self time of every span in \p Spans: its duration minus the union of
/// its children's intervals, clipped to its own. Open spans get 0.
std::vector<double> selfTimesUs(const std::vector<Tracer::Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
