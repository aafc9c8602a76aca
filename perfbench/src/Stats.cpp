//===- perfbench/src/Stats.cpp --------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  P = std::min(100.0, std::max(0.0, P));
  const double Rank = P / 100.0 * static_cast<double>(Samples.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Rank));
  const size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

double perfbench::median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 50);
}

double perfbench::mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  double Sum = 0;
  for (double V : Samples)
    Sum += V;
  return Sum / static_cast<double>(Samples.size());
}

double perfbench::geomean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  double LogSum = 0;
  for (double V : Samples) {
    if (!(V > 0))
      return 0;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Samples.size()));
}
