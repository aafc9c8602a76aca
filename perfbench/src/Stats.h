//===- perfbench/src/Stats.h - Order statistics of measured samples -------===//
///
/// \file
/// The few statistics the benchmark reports: percentiles by linear
/// interpolation between closest ranks (the rule of numpy's default and
/// of Python's statistics.quantiles(method="inclusive")), means and
/// geometric means.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <vector>

namespace perfbench {

/// The \p P-th percentile (0 <= P <= 100) of \p Samples: the value at rank
/// P/100 * (N-1) of the sorted samples, interpolated linearly between the
/// two closest ranks. 0 for an empty sample.
double percentile(std::vector<double> Samples, double P);

/// percentile(Samples, 50).
double median(std::vector<double> Samples);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double> &Samples);

/// Geometric mean of positive values; 0 for an empty sample or when any
/// value is not positive.
double geomean(const std::vector<double> &Samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
