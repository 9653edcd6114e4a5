//===- Schedule.h - Seeded open-loop arrival schedules ---------*- C++ -*-===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving workloads are open loops: independent users arrive as a
/// Poisson process at a fixed offered rate, whether or not the server
/// keeps up. The whole schedule (due times, model, class, rows) is drawn
/// up front from the seed, so the server receives identical traffic on
/// every commit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SCHEDULE_H
#define PERFBENCH_SCHEDULE_H

#include "support/Random.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One request of the schedule.
struct Arrival {
  /// Due time relative to the start of the schedule.
  uint64_t DueNs = 0;
  uint32_t Model = 0;
  uint32_t Rows = 1;
  /// First row in the model's input pool (rows wrap around the pool).
  uint32_t PoolOffset = 0;
  bool Interactive = false;
};

/// The traffic mix the schedule draws from.
struct TrafficMix {
  /// Relative popularity of each model (need not sum to 1).
  std::vector<double> ModelWeights;
  /// Share of single-row Interactive requests; the rest are Bulk.
  double InteractiveFraction = 0.0;
  uint32_t BulkMinRows = 1;
  uint32_t BulkMaxRows = 1;
  /// Rows in each model's input pool.
  uint32_t PoolRows = 1;
};

/// Zipf weights 1/k^S for ranks k = 1..N, rank k going to model k - 1.
/// The ranking is fixed rather than seeded: which model is hot sets the
/// mean cost of a request, and that must not change with the seed.
inline std::vector<double> zipfWeights(size_t N, double S) {
  std::vector<double> Weights(N);
  for (size_t Rank = 0; Rank < N; ++Rank)
    Weights[Rank] = 1.0 / std::pow(static_cast<double>(Rank + 1), S);
  return Weights;
}

/// Poisson arrivals at \p RatePerSec over \p Seconds, deterministic in
/// \p Seed.
inline std::vector<Arrival> poissonSchedule(uint64_t Seed, double RatePerSec,
                                            double Seconds,
                                            const TrafficMix &Mix) {
  spnc::Rng R(Seed);
  double Total = 0.0;
  for (double W : Mix.ModelWeights)
    Total += W;
  std::vector<Arrival> Schedule;
  double T = 0.0;
  while (true) {
    T += -std::log(1.0 - R.uniform()) / RatePerSec;
    if (T >= Seconds)
      break;
    Arrival A;
    A.DueNs = static_cast<uint64_t>(T * 1e9);
    double Pick = R.uniform() * Total;
    A.Model = static_cast<uint32_t>(Mix.ModelWeights.size() - 1);
    for (size_t M = 0; M < Mix.ModelWeights.size(); ++M) {
      if (Pick < Mix.ModelWeights[M]) {
        A.Model = static_cast<uint32_t>(M);
        break;
      }
      Pick -= Mix.ModelWeights[M];
    }
    A.Interactive = R.uniform() < Mix.InteractiveFraction;
    A.Rows = A.Interactive
                 ? 1
                 : Mix.BulkMinRows +
                       static_cast<uint32_t>(R.uniformInt(
                           Mix.BulkMaxRows - Mix.BulkMinRows + 1));
    A.PoolOffset = static_cast<uint32_t>(R.uniformInt(Mix.PoolRows));
    Schedule.push_back(A);
  }
  return Schedule;
}

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_H
