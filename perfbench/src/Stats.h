//===- Stats.h - Percentile arithmetic of the benchmark --------*- C++ -*-===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact (sort-based) order statistics over the benchmark's samples. The
/// library's Histogram is bucketed; the benchmark keeps every sample so
/// the reported percentiles are exact and comparable across commits.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// The \p Q-quantile (Q in [0, 1]) of \p Samples, linearly interpolated
/// between the two closest ranks (Hyndman-Fan type 7, the rule of
/// numpy's default `percentile`). 0 when empty.
inline double quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  Q = std::clamp(Q, 0.0, 1.0);
  double Pos = Q * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  // No interpolation at an exact rank or between equal neighbours, so
  // +inf (a failed request) never turns into NaN.
  if (Frac == 0.0 || Samples[Hi] == Samples[Lo])
    return Samples[Lo];
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

inline double median(std::vector<double> Samples) {
  return quantile(std::move(Samples), 0.5);
}

/// A tail statistic together with the evidence it rests on.
struct Tail {
  /// Percentile reported (e.g. 99 for p99); 0 when no tail percentile
  /// has enough samples beyond it.
  double Percentile = 0.0;
  double Value = 0.0;
  size_t Count = 0;
};

/// Samples strictly needed beyond a reported tail percentile.
inline constexpr size_t kTailSamplesBeyond = 10;

/// True when \p Count samples leave at least kTailSamplesBeyond samples
/// beyond percentile \p Percentile.
inline bool tailSupported(size_t Count, double Percentile) {
  double Beyond =
      static_cast<double>(Count) * (1.0 - Percentile / 100.0);
  // Rounded so that e.g. 1000 samples support p99 despite 1000 * 0.01
  // being 9.999... in binary floating point.
  return std::floor(Beyond + 1e-9) >= static_cast<double>(kTailSamplesBeyond);
}

/// The highest percentile of the ladder {50, 90, 95, 99, 99.9, 99.99}
/// that has at least ten samples beyond it, with its value and the
/// sample count. Percentile is 0 when even the median is unsupported.
inline Tail highestSupportedTail(const std::vector<double> &Samples) {
  static constexpr double Ladder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  Tail Result;
  Result.Count = Samples.size();
  for (double P : Ladder)
    if (tailSupported(Samples.size(), P)) {
      Result.Percentile = P;
      Result.Value = quantile(Samples, P / 100.0);
      break;
    }
  return Result;
}

/// The \p Q-quantile of \p Samples (in arrival order) taken separately
/// over consecutive chunks and summarized by the median over the chunks.
/// Every chunk holds enough samples to support the percentile (ten beyond
/// it); there are as many chunks as that allows, at most \p MaxChunks and
/// at least one. A stall of the shared machine that spans less than half
/// the chunks then does not move the result, while a slower program moves
/// every chunk.
inline double chunkedQuantile(const std::vector<double> &Samples, double Q,
                              size_t MaxChunks = 8) {
  double MinChunk =
      std::ceil(static_cast<double>(kTailSamplesBeyond) / (1.0 - Q) - 1e-9);
  size_t K = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(Samples.size()) / MinChunk), 1,
      MaxChunks);
  std::vector<double> PerChunk;
  for (size_t C = 0; C < K; ++C) {
    size_t Lo = C * Samples.size() / K, Hi = (C + 1) * Samples.size() / K;
    PerChunk.push_back(quantile(
        std::vector<double>(Samples.begin() + Lo, Samples.begin() + Hi), Q));
  }
  return median(PerChunk);
}

/// Completion rate (items per second) of a closed loop, taken over
/// \p Chunks consecutive intervals and summarized by the median over the
/// intervals. \p Done holds (completion time in ns, items completed) in
/// completion order; the intervals split the completions after the first
/// evenly, and each runs from the completion before its first to its
/// last. Like chunkedQuantile, a stall spanning less than half the
/// intervals does not move the result, while a slower program moves
/// every interval. 0 with fewer than two completions per interval.
inline double
chunkedRate(const std::vector<std::pair<uint64_t, uint64_t>> &Done,
            size_t Chunks = 8) {
  if (Done.size() < 2 * Chunks + 1)
    return 0.0;
  size_t N = Done.size() - 1;
  std::vector<double> Rates;
  for (size_t C = 0; C < Chunks; ++C) {
    size_t Lo = C * N / Chunks, Hi = (C + 1) * N / Chunks;
    uint64_t Items = 0;
    for (size_t I = Lo + 1; I <= Hi; ++I)
      Items += Done[I].second;
    double Seconds = static_cast<double>(Done[Hi].first - Done[Lo].first) / 1e9;
    if (Seconds > 0)
      Rates.push_back(static_cast<double>(Items) / Seconds);
  }
  return median(Rates);
}

/// Mean of the largest \p Share of \p Samples (at least one sample); 0
/// when empty. Averages a tail instead of picking one order statistic.
inline double meanOfTop(std::vector<double> Samples, double Share) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(Share * Samples.size() - 1e-9)));
  N = std::min(N, Samples.size());
  double Sum = 0.0;
  for (size_t I = Samples.size() - N; I < Samples.size(); ++I)
    Sum += Samples[I];
  return Sum / static_cast<double>(N);
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive.
inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    if (!(V > 0.0))
      return 0.0;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
