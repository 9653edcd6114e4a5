//===- selftest.cpp - Tests of the benchmark's own arithmetic -------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Percentile rule, chunked quantile and rate, self-time derivation,
/// Chrome trace export and the seeded Poisson schedule. Exits non-zero on the first failure:
///
///   .bench_build/perfbench/perfbench_selftest
///
//===----------------------------------------------------------------------===//

#include "Schedule.h"
#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Condition, const char *What, int Line) {
  if (Condition)
    return;
  std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", Line, What);
  ++Failures;
}
#define EXPECT(C) expect((C), #C, __LINE__)

bool near(double A, double B) { return std::abs(A - B) <= 1e-9; }

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = static_cast<double>(I + 1);
  return V;
}

void testQuantile() {
  EXPECT(quantile({}, 0.5) == 0.0);
  EXPECT(near(median({3, 1, 2}), 2.0));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  // Type-7 interpolation: position q * (n - 1).
  EXPECT(near(quantile(iota(11), 0.95), 10.5));
  EXPECT(near(quantile(iota(101), 0.99), 100.0));
  EXPECT(near(quantile({5}, 0.99), 5.0));
  // A failed request (+inf) stays +inf and never becomes NaN.
  double Inf = std::numeric_limits<double>::infinity();
  EXPECT(quantile({1, 2, Inf, Inf}, 1.0) == Inf);
  EXPECT(near(quantile({1, 2, 3, Inf}, 0.0), 1.0));
  EXPECT(!std::isnan(quantile({1, Inf, Inf}, 0.75)));
  EXPECT(near(meanOfTop(iota(100), 0.05), 98.0));
  EXPECT(near(meanOfTop({3, 1, 2}, 0.05), 3.0));
  EXPECT(meanOfTop({}, 0.05) == 0.0);
  EXPECT(near(geomean({1, 100}), 10.0));
  EXPECT(geomean({}) == 0.0);
  EXPECT(geomean({1, 0}) == 0.0);
}

void testTailRule() {
  // Ten samples beyond the percentile are required.
  EXPECT(tailSupported(1000, 99.0));
  EXPECT(!tailSupported(999, 99.0));
  EXPECT(tailSupported(200, 95.0));
  EXPECT(!tailSupported(199, 95.0));
  EXPECT(tailSupported(20, 50.0));
  EXPECT(!tailSupported(19, 50.0));

  Tail T = highestSupportedTail(iota(1000));
  EXPECT(T.Percentile == 99.0);
  EXPECT(T.Count == 1000);
  EXPECT(near(T.Value, quantile(iota(1000), 0.99)));
  EXPECT(highestSupportedTail(iota(10000)).Percentile == 99.9);
  EXPECT(highestSupportedTail(iota(100000)).Percentile == 99.99);
  EXPECT(highestSupportedTail(iota(500)).Percentile == 95.0);
  EXPECT(highestSupportedTail(iota(150)).Percentile == 90.0);
  EXPECT(highestSupportedTail(iota(99)).Percentile == 50.0);
  Tail None = highestSupportedTail(iota(12));
  EXPECT(None.Percentile == 0.0);
  EXPECT(None.Count == 12);
}

void testChunkedQuantile() {
  // Fewer samples than one chunk: the plain quantile.
  EXPECT(near(chunkedQuantile(iota(500), 0.99), quantile(iota(500), 0.99)));
  // 8000 samples make 8 chunks of 1000; a stall that ruins three chunks
  // (every sample 100x slower) leaves the median over chunks at a clean
  // chunk's p99.
  std::vector<double> Samples(8000, 1.0);
  for (size_t I = 0; I < 8000; I += 100)
    Samples[I] = 2.0; // 1 % of each chunk
  for (size_t I = 0; I < 3000; ++I)
    Samples[I] *= 100.0;
  double Clean = quantile(std::vector<double>(Samples.begin() + 7000,
                                              Samples.end()),
                          0.99);
  EXPECT(near(chunkedQuantile(Samples, 0.99), Clean));
  EXPECT(quantile(Samples, 0.99) >= 100.0);
  // At most eight chunks however many samples there are.
  std::vector<double> Many(100000, 1.0);
  for (size_t I = 0; I < 5 * 12500; ++I)
    Many[I] = 7.0; // five of eight chunks
  EXPECT(near(chunkedQuantile(Many, 0.5), 7.0));
}

void testChunkedRate() {
  // 801 completions 1 ms apart, 2 items each: 2000 items/s.
  std::vector<std::pair<uint64_t, uint64_t>> Done;
  for (uint64_t I = 0; I <= 800; ++I)
    Done.push_back({I * 1'000'000, 2});
  EXPECT(std::abs(chunkedRate(Done) - 2000.0) < 1e-6);
  // A 1 s stall before the 50th completion slows one interval of eight;
  // the median over the intervals stays at the steady rate, while the
  // rate over the whole loop drops by more than half.
  std::vector<std::pair<uint64_t, uint64_t>> Stalled = Done;
  for (size_t I = 50; I < Stalled.size(); ++I)
    Stalled[I].first += 1'000'000'000;
  EXPECT(std::abs(chunkedRate(Stalled) - 2000.0) < 1e-6);
  // A program twice as slow moves every interval.
  std::vector<std::pair<uint64_t, uint64_t>> Slow = Done;
  for (auto &[Ns, Items] : Slow)
    Ns *= 2;
  EXPECT(std::abs(chunkedRate(Slow) - 1000.0) < 1e-6);
  // Too few completions for eight intervals.
  EXPECT(chunkedRate({Done.begin(), Done.begin() + 16}) == 0.0);
}

Span span(const char *Name, uint64_t Start, uint64_t End, uint64_t Id,
          uint64_t Parent) {
  Span S;
  S.Name = Name;
  S.StartNs = Start;
  S.EndNs = End;
  S.Id = Id;
  S.Parent = Parent;
  return S;
}

void testSelfTime() {
  // root [0, 100) with children [10, 30), [20, 50) (overlapping) and
  // [90, 120) (clipped to the parent): covered = [10, 50) + [90, 100).
  std::vector<Span> Spans = {
      span("root", 0, 100, 1, 0),     span("a", 10, 30, 2, 1),
      span("b", 20, 50, 3, 1),        span("c", 90, 120, 4, 1),
      span("grandchild", 12, 18, 5, 2), span("other", 0, 40, 6, 0)};
  auto Self = selfTimesNs(Spans);
  EXPECT(Self["root"].size() == 1 && Self["root"][0] == 50);
  EXPECT(Self["a"][0] == 14);
  EXPECT(Self["b"][0] == 30);
  EXPECT(Self["c"][0] == 30);
  EXPECT(Self["grandchild"][0] == 6);
  // A span that is nobody's parent keeps its full duration.
  EXPECT(Self["other"][0] == 40);
  // Two instances of one name are kept apart.
  Spans.push_back(span("root", 200, 260, 7, 0));
  Spans.push_back(span("a", 250, 300, 8, 7));
  Self = selfTimesNs(Spans);
  EXPECT(Self["root"].size() == 2 && Self["root"][1] == 50);
}

void testTracer() {
  Tracer Off(false);
  EXPECT(Off.newId() == 0);
  {
    ScopedSpan S(Off, "ignored");
    EXPECT(S.id() == 0);
  }
  EXPECT(Off.spans().empty());

  Tracer On(true);
  uint64_t Parent = 0;
  {
    ScopedSpan Outer(On, "outer", 0, 42);
    Parent = Outer.id();
    On.recordNew("inner", nowNs(), nowNs() + 10, Parent, 42);
  }
  std::vector<Span> Spans = On.spans();
  EXPECT(Spans.size() == 2);
  EXPECT(Spans[0].Name == "inner" && Spans[0].Parent == Parent);
  EXPECT(Spans[1].Name == "outer" && Spans[1].Id == Parent &&
         Spans[1].RequestId == 42);

  std::string Path = "perfbench_selftest_trace.json";
  EXPECT(writeChromeTrace(Spans, Path));
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Json = Text.str();
  EXPECT(Json.find("\"traceEvents\"") != std::string::npos);
  EXPECT(Json.find("\"name\": \"outer\"") != std::string::npos);
  EXPECT(Json.find("\"ph\": \"X\"") != std::string::npos);
  std::remove(Path.c_str());
}

void testSchedule() {
  TrafficMix Mix;
  Mix.ModelWeights = zipfWeights(4, 1.0);
  Mix.InteractiveFraction = 0.2;
  Mix.BulkMinRows = 16;
  Mix.BulkMaxRows = 64;
  Mix.PoolRows = 512;
  std::vector<Arrival> A = poissonSchedule(7, 1000.0, 2.0, Mix);
  std::vector<Arrival> B = poissonSchedule(7, 1000.0, 2.0, Mix);
  std::vector<Arrival> C = poissonSchedule(8, 1000.0, 2.0, Mix);
  EXPECT(A.size() == B.size());
  bool Same = A.size() == B.size();
  for (size_t I = 0; Same && I < A.size(); ++I)
    Same = A[I].DueNs == B[I].DueNs && A[I].Model == B[I].Model &&
           A[I].Rows == B[I].Rows && A[I].PoolOffset == B[I].PoolOffset &&
           A[I].Interactive == B[I].Interactive;
  EXPECT(Same);
  bool Differs = A.size() != C.size();
  for (size_t I = 0; !Differs && I < A.size(); ++I)
    Differs = A[I].DueNs != C[I].DueNs;
  EXPECT(Differs);

  // Poisson at 1000/s over 2 s: ~2000 arrivals, sorted, inside [0, 2 s).
  EXPECT(A.size() > 1800 && A.size() < 2200);
  size_t Interactive = 0, ModelZero = 0;
  bool Sorted = true, RowsOk = true;
  for (size_t I = 0; I < A.size(); ++I) {
    Sorted &= I == 0 || A[I - 1].DueNs <= A[I].DueNs;
    Sorted &= A[I].DueNs < 2'000'000'000ULL;
    Interactive += A[I].Interactive;
    ModelZero += A[I].Model == 0;
    RowsOk &= A[I].Interactive ? A[I].Rows == 1
                               : A[I].Rows >= 16 && A[I].Rows <= 64;
    RowsOk &= A[I].PoolOffset < 512 && A[I].Model < 4;
  }
  EXPECT(Sorted);
  EXPECT(RowsOk);
  double InteractiveShare = static_cast<double>(Interactive) / A.size();
  EXPECT(InteractiveShare > 0.15 && InteractiveShare < 0.25);
  // Zipf(1) over 4 ranks gives rank 1 a share of 1 / (1 + 1/2 + 1/3 + 1/4).
  double ModelZeroShare = static_cast<double>(ModelZero) / A.size();
  EXPECT(ModelZeroShare > 0.43 && ModelZeroShare < 0.53);
  EXPECT(near(zipfWeights(3, 1.0)[2], 1.0 / 3.0));
}

} // namespace

int main() {
  testQuantile();
  testTailRule();
  testChunkedQuantile();
  testChunkedRate();
  testSelfTime();
  testTracer();
  testSchedule();
  if (Failures) {
    std::fprintf(stderr, "%d expectation(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
