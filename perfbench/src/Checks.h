//===- perfbench/src/Checks.h - Correctness checks of the workloads -------===//
///
/// \file
/// The checks each workload applies to the program's outputs, as pure
/// functions so the benchmark's tests can feed them corrupted inputs.
/// Every check returns "" when the outputs pass and a one-line reason
/// otherwise.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Float tolerance of kernel outputs against the native C++ references:
/// |got - ref| <= Tol * max(1, |ref|) at every sample.
constexpr double OutputTolerance = 1e-4;

/// Checks \p Got against \p Ref sample by sample (sizes must match).
std::string compareToReference(const std::vector<float> &Ref,
                               const std::vector<float> &Got,
                               double Tol = OutputTolerance);

/// One configuration as `kperfc tune` reports it.
struct TunePoint {
  std::string Label; ///< TunerConfig::str(), e.g. "Rows2:LI@16x16/L2".
  double Speedup = 0;
  double Error = 0;
};

/// What one `kperfc tune --time-passes` run printed.
struct TuneOutput {
  unsigned Feasible = 0; ///< From "N/M configurations feasible".
  unsigned Total = 0;
  std::vector<TunePoint> Results; ///< The feasible results, in space order.
  bool HasChoice = false;
  TunePoint Choice; ///< The "chosen for budget" line.
};

/// Parses the report of `kperfc tune --time-passes`; "" in \p Problem on
/// success.
TuneOutput parseTuneOutput(const std::string &Text, std::string &Problem);

/// True when \p A dominates \p B: no slower and no less accurate, and
/// strictly better in one of the two.
bool dominates(const TunePoint &A, const TunePoint &B);

/// The results of \p Results, other than \p Choice itself, that dominate
/// \p Choice.
std::vector<TunePoint> dominatorsOf(const std::vector<TunePoint> &Results,
                                    const TunePoint &Choice);

/// The printed speedup and error are rounded (2 and 5 decimals), so a
/// result whose printed point ties the choice's might dominate it in
/// full precision or not. Returns the results that could dominate \p
/// Choice at print precision; the caller re-measures these exactly.
std::vector<TunePoint> possibleDominatorsOf(
    const std::vector<TunePoint> &Results, const TunePoint &Choice);

/// The labels of \p Space that \p Results does not list, i.e. the
/// configurations that faulted, must all be in \p Expected. Expected
/// faults that did not happen (a fix) pass and are returned in \p Gone.
std::string checkFaults(const std::vector<std::string> &Space,
                        const std::vector<TunePoint> &Results,
                        const std::set<std::string> &Expected,
                        std::vector<std::string> &Gone);

/// Counters of one variant-building phase of the restart workload.
struct PhaseCounts {
  unsigned Variants = 0; ///< perforate() requests made.
  unsigned Compiles = 0; ///< SessionStats::VariantCompiles.
  unsigned DiskHits = 0; ///< SessionStats::DiskVariantHits.
};

/// A warm phase (fresh Session over a filled disk cache) must compile
/// nothing and serve every variant from disk.
std::string checkWarmPhase(const PhaseCounts &P);

/// A cold phase (empty disk cache) must compile and store every variant.
std::string checkColdPhase(const PhaseCounts &P, unsigned DiskStores);

/// The error the server measured on a checked response must agree with
/// the benchmark's own error of the same output against the native
/// reference: both compare one output to two references that agree
/// within OutputTolerance.
std::string checkMeasuredError(double Measured, double Own);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
