//===- ServeWorkload.cpp - Open-loop serving: serve and tenants -----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `serve`: one InferenceServer (shipped ServerConfig defaults, two
/// shards) over the three shipped models plus five generated speaker
/// models with Zipf popularity; 80 % Bulk requests of 16-64 rows and
/// 20 % single-row Interactive requests. Admission, the per-shard
/// batcher and WFQ, the worker pools and future completion do the work,
/// and the engine sees small, ragged batches.
///
/// `tenants`: ten structurally isomorphic RAT-SPN class models served
/// with MergeModels on; single-row requests spread uniformly over the
/// tenants. It runs src/merge's one parameterized kernel, executeIndexed
/// and cross-model batches, which `serve` bypasses.
///
/// Both are open loops: one generator thread submits a seeded Poisson
/// schedule at each of three fixed offered rates, one collector thread
/// completes the futures. Latency is timed from each request's due time,
/// so a stalled generator or server shows in it.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Schedule.h"
#include "Stats.h"

#include "frontend/Serializer.h"
#include "serving/InferenceServer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <thread>

using namespace perfbench;
using namespace spnc;
namespace fs = std::filesystem;

namespace {

constexpr uint32_t kPoolRows = 512;
constexpr unsigned kNumShards = 2;
constexpr unsigned kNumTenants = 10;
/// The served fleets are fixed; the seed draws the traffic (arrival
/// times, models, rows). A seeded fleet would move the consistent-hash
/// shard placement, and with it the capacity, from seed to seed.
/// Target operations of the five generated speaker models of `serve`.
constexpr unsigned kServeSpeakerOps[] = {600, 1000, 1500, 2200, 3000};
constexpr uint64_t kServeSpeakerSeed = 1001;
constexpr uint64_t kTenantStructureSeed = 101;
constexpr double kZipfExponent = 1.1;
/// Offered request rates (requests/s) of the low, mid and high windows
/// and the p99 latency limit slo_rate_sps is judged by. Set once from the
/// capacity measured when the benchmark was defined (README.md) and the
/// same on every commit, so a slower server shows as higher latency, not
/// as a moved target.
constexpr double kServeRates[3] = {500, 1000, 1500};
constexpr double kTenantsRates[3] = {2000, 4000, 8000};
constexpr double kLatencyLimitMs = 25.0;
/// The capacity bursts around the windows: closed loops that keep up to
/// kCapacityInFlightSamples samples outstanding (half of one shard's
/// admission bound, so nothing is rejected) and submit the next request
/// as soon as one completes. Together they run as many requests as the
/// capacity rate (requests/s, about the quiet-period capacity) offers in
/// a quarter of the run.
constexpr unsigned kCapacityBursts = 4;
constexpr size_t kCapacityInFlightSamples = 2048;
constexpr double kServeCapacityRate = 6000;
constexpr double kTenantsCapacityRate = 30000;
/// Unrecorded warm-up traffic at the low rate before the first window.
constexpr double kWarmupSeconds = 0.3;

struct ServedModel {
  std::string Name;
  unsigned NumFeatures = 0;
  /// Input rows requests draw from (row-major, kPoolRows rows).
  std::vector<double> Pool;
  /// Interpreter log-likelihood of every pool row.
  std::vector<double> Oracle;
  /// tenants only: the per-tenant unmerged kernel's output of every pool
  /// row; merged serving must reproduce it bit for bit.
  std::vector<double> Unmerged;
};

/// Per-request outcome, filled by the collector.
struct Outcome {
  double LatencyMs = std::numeric_limits<double>::infinity();
  uint64_t DoneNs = 0;
  bool Ok = false;
};

/// What one rate window measured.
struct Window {
  double Seconds = 0.0;
  std::vector<double> LatencyMs, InteractiveMs, LagMs, SubmitUs;
  uint64_t Attempted = 0, Failed = 0;
  /// Completed requests per second over the window (due of the first
  /// request to completion of the last).
  double AchievedRate = 0.0;
  /// Completed samples per second, median over intervals (chunkedRate).
  double SampleRate = 0.0;
  /// Median latency of the last tenth of the schedule.
  double TailEndLatencyMs = 0.0;
  size_t PeakOutstandingSamples = 0;
  serving::ServerStats Before, After;
  std::vector<serving::ServerStats> ShardsBefore, ShardsAfter;
};

class ServingWorkload : public Workload {
public:
  ServingWorkload(const BenchOptions &O, bool Tenants)
      : O(O), Tenants(Tenants), Rates(Tenants ? kTenantsRates : kServeRates) {
    Options.TheTarget = runtime::Target::CPU;
    Options.OptLevel = 2;
    Options.Execution.VectorWidth = 8;
    Query.LogSpace = true;
    Query.Kind = spn::QueryKind::Joint;
    // Merged kernels read their weights from tables while an unmerged
    // kernel folds them as constants. In f64 both agree bit for bit (the
    // property docs/merging.md states and the merge tests check); in f32
    // they differ by an ulp on some rows, so the tenants gate runs f64.
    if (Tenants)
      Query.DataType = spn::ComputeType::F64;
  }

  void setup(Tracer &T) override {
    Server.reset();
    Cache = std::make_unique<runtime::KernelCache>();
    Models.clear();
    serving::ServerConfig Config;
    Config.NumShards = kNumShards;
    Config.MergeModels = Tenants;
    Server = std::make_unique<serving::InferenceServer>(Config, Cache.get());

    std::vector<std::pair<std::string, spn::Model>> Loaded;
    if (Tenants) {
      // Tenants upload their models as `.spnb` files.
      std::string Dir = O.WorkDir + "/tenant-models";
      fs::remove_all(Dir);
      fs::create_directories(Dir);
      workloads::RatSpnOptions Rat = ratShape(kTenantStructureSeed);
      for (unsigned C = 0; C < kNumTenants; ++C) {
        std::string Name = "tenant" + std::to_string(C);
        std::string Path = Dir + "/" + Name + ".spnb";
        if (failed(spn::saveModel(workloads::generateRatSpn(Rat, C), Path)))
          throw std::runtime_error("cannot write " + Path);
        Loaded.emplace_back(Name, loadModelTraced(Path, T));
      }
    } else {
      for (const ShippedModel &S : shippedModels())
        Loaded.emplace_back(
            S.Name, loadModelTraced(O.ModelsDir + "/" + S.Name + ".spnb", T));
      for (size_t I = 0; I < std::size(kServeSpeakerOps); ++I) {
        workloads::SpeakerModelOptions S;
        S.TargetOperations = kServeSpeakerOps[I];
        S.Seed = kServeSpeakerSeed + I;
        Loaded.emplace_back("speaker_gen" + std::to_string(I),
                            workloads::generateSpeakerModel(S));
        GeneratedSpeakers.push_back(S);
      }
    }

    for (size_t I = 0; I < Loaded.size(); ++I) {
      auto &[Name, Model] = Loaded[I];
      uint64_t Begin = nowNs();
      if (std::optional<Error> Err =
              Server->addModel(Name, Model, Query, Options))
        throw std::runtime_error("addModel " + Name + ": " + Err->message());
      T.recordNew("serving.addModel", Begin, nowNs(), 0, 0);
      ServedModel M;
      M.Name = Name;
      M.NumFeatures = Model.getNumFeatures();
      uint64_t RowSeed = O.Seed * 104729 + I;
      if (Tenants)
        M.Pool = ratRows(M.NumFeatures, kPoolRows, RowSeed);
      else if (I < shippedModels().size())
        M.Pool = shippedRows(shippedModels()[I], M.NumFeatures, kPoolRows,
                             RowSeed, /*Noisy=*/false);
      else
        M.Pool = workloads::generateSpeechData(
            GeneratedSpeakers[I - shippedModels().size()], kPoolRows,
            RowSeed);
      M.Oracle = interpret(Model, M.Pool);
      if (Tenants) {
        Expected<runtime::CompiledKernel> Unmerged =
            runtime::compileModel(Model, Query, Options);
        if (!Unmerged)
          throw std::runtime_error("unmerged compile of " + Name + ": " +
                                   Unmerged.getError().message());
        M.Unmerged.resize(kPoolRows);
        Unmerged->execute(M.Pool.data(), M.Unmerged.data(), kPoolRows);
      }
      Models.push_back(std::move(M));
    }
    GeneratedSpeakers.clear();

    Mix = TrafficMix();
    Mix.PoolRows = kPoolRows;
    if (Tenants) {
      Mix.ModelWeights.assign(Models.size(), 1.0);
    } else {
      Mix.ModelWeights = zipfWeights(Models.size(), kZipfExponent);
      Mix.InteractiveFraction = 0.2;
      Mix.BulkMinRows = 16;
      Mix.BulkMaxRows = 64;
    }
  }

  double measure(double Seconds, Tracer &T, Report &R) override {
    Tracer Off(false);
    Report Scratch;
    runWindow(Rates[0], kWarmupSeconds, O.Seed ^ 0x77, Off, Scratch);
    if (!Scratch.correct())
      R.mismatch("wrong output during warm-up traffic");
    // The ten isomorphic tenants must share one parameterized kernel.
    if (Tenants && Cache->size() != 1)
      R.mismatch("tenants: " + std::to_string(Cache->size()) +
                 " kernels for one merge group");
    Windows.clear();
    // A capacity burst before the first window and after each window,
    // so the bursts sample the whole run; each is rescaled by the
    // reference work timed around it (five times on each side, so that
    // one blip does not decide it), while the server is idle.
    std::vector<double> RefMs, Capacity, CapacityAtRef;
    auto TimeReference = [&] {
      for (int K = 0; K < 5; ++K)
        RefMs.push_back(referenceWorkMs());
    };
    TimeReference();
    auto CapacityBurst = [&](unsigned I) {
      Window B = runWindow(
          Tenants ? kTenantsCapacityRate : kServeCapacityRate,
          Seconds / (4 * kCapacityBursts),
          O.Seed * 1315423911ULL + 0x100 + I, T, R, kCapacityInFlightSamples);
      TimeReference();
      double Ref = median(std::vector<double>(RefMs.end() - 10, RefMs.end()));
      Capacity.push_back(B.SampleRate);
      CapacityAtRef.push_back(B.SampleRate * Ref / kNominalReferenceMs);
    };
    CapacityBurst(0);
    double PerRate = Seconds / 3.0;
    for (unsigned I = 0; I < 3; ++I) {
      Windows.push_back(runWindow(Rates[I], PerRate,
                                  O.Seed * 1315423911ULL + I, T, R));
      TimeReference();
      CapacityBurst(I + 1);
    }
    double SloRate = 0.0;
    for (unsigned I = 0; I < 3; ++I) {
      const Window &W = Windows[I];
      std::string Rate = kRateNames[I];
      R.e2e("latency_ms.p50." + Rate, chunkedQuantile(W.LatencyMs, 0.5), "ms");
      R.e2e("latency_ms.p95." + Rate, chunkedQuantile(W.LatencyMs, 0.95),
            "ms");
      double P99 = chunkedQuantile(W.LatencyMs, 0.99);
      R.e2e("latency_ms.p99." + Rate, P99, "ms");
      R.prov("serving.p99_whole_window_ms." + Rate,
             std::to_string(quantile(W.LatencyMs, 0.99)));
      bool NoBacklog = W.TailEndLatencyMs <= kLatencyLimitMs;
      if (P99 <= kLatencyLimitMs && NoBacklog && W.Failed == 0)
        SloRate = W.AchievedRate;
      R.prov("serving.tail." + Rate,
             "{\"percentile\": " +
                 std::to_string(highestSupportedTail(W.LatencyMs).Percentile) +
                 ", \"count\": " + std::to_string(W.LatencyMs.size()) + "}");
      R.prov("loadgen.lag_ms.max." + Rate,
             std::to_string(quantile(W.LagMs, 1.0)));
    }
    // A step function: it reads the achieved rate of a fixed offered
    // rate, so it shows only a capacity loss large enough to break one.
    R.e2e("slo_rate_sps", SloRate, "1/s");
    // The continuous capacity figure: completed samples per second of
    // the fastest closed-loop burst (as with a compile's fastest pass,
    // the shared machine only ever slows a burst down). It is CPU-bound
    // work, so it is also reported at the reference speed of the machine
    // (see referenceWorkMs).
    R.prov("machine.reference_work_ms", std::to_string(median(RefMs)));
    R.e2e("capacity_samples_per_s", quantile(Capacity, 1.0), "1/s");
    R.e2e("capacity_samples_per_s_at_ref", quantile(CapacityAtRef, 1.0),
          "1/s");
    if (!Tenants) {
      R.e2e("interactive_latency_ms.p50.high",
            chunkedQuantile(Windows[2].InteractiveMs, 0.5), "ms");
      R.e2e("interactive_latency_ms.p95.high",
            chunkedQuantile(Windows[2].InteractiveMs, 0.95), "ms");
      R.e2e("interactive_latency_ms.p99.high",
            chunkedQuantile(Windows[2].InteractiveMs, 0.99), "ms");
    }
    return median(Windows[1].LatencyMs);
  }

  void reportLayers(const std::vector<Span> &Spans, Report &R) override {
    auto Self = selfTimesNs(Spans);
    R.layer("frontend.load_us.p50",
            selfP50Ms(Self, "frontend.loadModel") * 1e3, "us");
    for (unsigned I = 0; I < 3; ++I) {
      const Window &W = Windows[I];
      std::string Rate = kRateNames[I];
      R.layer("serving.submit_us.p50." + Rate, median(W.SubmitUs), "us");
      R.layer("serving.submit_us.p99." + Rate, quantile(W.SubmitUs, 0.99),
              "us");
      double Batches = static_cast<double>(W.After.BatchesDispatched -
                                           W.Before.BatchesDispatched);
      double Samples = static_cast<double>(W.After.CompletedSamples -
                                           W.Before.CompletedSamples);
      double ExecNs =
          static_cast<double>(W.After.ExecutionNs - W.Before.ExecutionNs);
      double Workers = static_cast<double>(kNumShards *
                                           Server->getConfig().NumWorkers);
      R.layer("serving.mean_batch." + Rate,
              Batches > 0 ? Samples / Batches : 0.0, "samples");
      R.layer("serving.batch_exec_us." + Rate,
              Batches > 0 ? ExecNs / Batches / 1e3 : 0.0, "us");
      R.layer("serving.engine_busy_frac." + Rate,
              ExecNs / (W.Seconds * 1e9 * Workers), "fraction");
      R.layer("serving.engine_ns_per_sample." + Rate,
              Samples > 0 ? ExecNs / Samples : 0.0, "ns");
      R.layer("serving.peak_queue_depth." + Rate,
              static_cast<double>(W.PeakOutstandingSamples), "samples");
      R.layer("serving.rejected." + Rate,
              static_cast<double>(W.After.RejectedRequests -
                                  W.Before.RejectedRequests),
              "count");
      double MaxShard = 0.0, SumShard = 0.0;
      for (size_t S = 0; S < W.ShardsAfter.size(); ++S) {
        double Done = static_cast<double>(W.ShardsAfter[S].CompletedSamples -
                                          W.ShardsBefore[S].CompletedSamples);
        MaxShard = std::max(MaxShard, Done);
        SumShard += Done;
      }
      R.layer("serving.shard_imbalance." + Rate,
              SumShard > 0 ? MaxShard / (SumShard / W.ShardsAfter.size())
                           : 0.0,
              "ratio");
      R.layer("loadgen.lag_ms.p99." + Rate, quantile(W.LagMs, 0.99), "ms");
      R.layer("loadgen.lag_ms.max." + Rate, quantile(W.LagMs, 1.0), "ms");
      if (Tenants)
        R.layer("merge.cross_model_batch_frac." + Rate,
                Batches > 0 ? static_cast<double>(
                                  W.After.CrossModelBatches -
                                  W.Before.CrossModelBatches) /
                                  Batches
                            : 0.0,
                "fraction");
    }
    runtime::KernelCache::Stats C = Cache->getStats();
    R.layer("cache.hits", static_cast<double>(C.Hits), "count");
    R.layer("cache.misses", static_cast<double>(C.Misses), "count");
    R.layer("cache.recompiles", static_cast<double>(C.Recompiles), "count");
    if (Tenants)
      R.layer("merge.kernels", static_cast<double>(Cache->size()), "count");
  }

  void describe(Report &R) const override {
    std::string Fleet = "[";
    for (size_t I = 0; I < Models.size(); ++I)
      Fleet += (I ? ", " : "") + jsonString(Models[I].Name);
    Fleet += "]";
    char RatesJson[160];
    std::snprintf(RatesJson, sizeof(RatesJson),
                  "{\"low\": %g, \"mid\": %g, \"high\": %g}", Rates[0],
                  Rates[1], Rates[2]);
    std::string Placement = "[";
    for (size_t I = 0; I < Models.size(); ++I)
      Placement += (I ? ", " : "") +
                   std::to_string(Server->getModelShard(Models[I].Name)
                                      .value_or(kNumShards));
    R.prov("workload.fleet", Fleet);
    R.prov("serving.shard_of_model", Placement + "]");
    R.prov("workload.rates_per_s", RatesJson);
    R.prov("workload.latency_limit_ms", std::to_string(kLatencyLimitMs));
    R.prov("workload.capacity_phase",
           "{\"in_flight_samples\": " +
               std::to_string(kCapacityInFlightSamples) +
               ", \"rate_per_s\": " +
               std::to_string(Tenants ? kTenantsCapacityRate
                                      : kServeCapacityRate) +
               "}");
    R.prov("workload.traffic",
           Tenants ? "{\"rows\": 1, \"priority\": \"bulk\", "
                     "\"popularity\": \"uniform\", \"merge_models\": true, "
                     "\"shards\": 2}"
                   : "{\"bulk_rows\": [16, 64], \"interactive_fraction\": "
                     "0.2, \"popularity\": \"zipf 1.1\", \"shards\": 2}");
  }

private:
  /// Submits a seeded Poisson schedule at \p Rate for \p Seconds. With
  /// \p MaxInFlightSamples, a closed loop instead: due times are ignored
  /// and each request is due when the outstanding samples leave it room.
  Window runWindow(double Rate, double Seconds, uint64_t ScheduleSeed,
                   Tracer &T, Report &R, size_t MaxInFlightSamples = 0);
  void check(const Arrival &A, const serving::InferenceResult &Result,
             Report &R) const;

  const BenchOptions &O;
  bool Tenants;
  const double *Rates;
  runtime::CompilerOptions Options;
  spn::QueryConfig Query;
  std::unique_ptr<runtime::KernelCache> Cache;
  std::unique_ptr<serving::InferenceServer> Server;
  std::vector<ServedModel> Models;
  std::vector<workloads::SpeakerModelOptions> GeneratedSpeakers;
  TrafficMix Mix;
  std::vector<Window> Windows;
};

void ServingWorkload::check(const Arrival &A,
                            const serving::InferenceResult &Result,
                            Report &R) const {
  const ServedModel &M = Models[A.Model];
  if (Result.LogLikelihoods.size() != A.Rows) {
    R.mismatch("serve " + M.Name + ": " +
               std::to_string(Result.LogLikelihoods.size()) +
               " results for " + std::to_string(A.Rows) + " rows");
    return;
  }
  for (uint32_t I = 0; I < A.Rows; ++I) {
    size_t Row = (A.PoolOffset + I) % kPoolRows;
    double Got = Result.LogLikelihoods[I];
    checkOracle(&Got, &M.Oracle[Row], 1, resolvedType(Query),
                "serve " + M.Name + " pool row " + std::to_string(Row), R);
    if (Tenants && std::memcmp(&Got, &M.Unmerged[Row], sizeof(double)) != 0) {
      char Buf[200];
      std::snprintf(Buf, sizeof(Buf),
                    "tenants %s pool row %zu: merged %.17g != unmerged %.17g",
                    M.Name.c_str(), Row, Got, M.Unmerged[Row]);
      R.mismatch(Buf);
    }
  }
}

Window ServingWorkload::runWindow(double Rate, double Seconds,
                                  uint64_t ScheduleSeed, Tracer &T,
                                  Report &R, size_t MaxInFlightSamples) {
  Window W;
  W.Seconds = Seconds;
  std::vector<Arrival> Schedule =
      poissonSchedule(ScheduleSeed, Rate, Seconds, Mix);
  if (Schedule.empty())
    return W;
  // Rows of each request, gathered up front so the generator only
  // submits.
  std::vector<std::vector<double>> Inputs(Schedule.size());
  for (size_t I = 0; I < Schedule.size(); ++I) {
    const Arrival &A = Schedule[I];
    const ServedModel &M = Models[A.Model];
    for (uint32_t Row = 0; Row < A.Rows; ++Row) {
      size_t P = (A.PoolOffset + Row) % kPoolRows;
      Inputs[I].insert(Inputs[I].end(), M.Pool.begin() + P * M.NumFeatures,
                       M.Pool.begin() + (P + 1) * M.NumFeatures);
    }
  }

  struct InFlight {
    size_t Index;
    uint64_t DueNs;
    uint64_t SubmitEndNs;
    uint64_t SpanId;
    serving::ResultFuture Future;
  };
  std::mutex QueueMutex;
  std::condition_variable QueueReady;
  std::deque<InFlight> Queue;
  bool GeneratorDone = false;
  std::atomic<int64_t> Outstanding{0};
  std::vector<Outcome> Outcomes(Schedule.size());
  std::vector<double> Lag(Schedule.size()), SubmitUs(Schedule.size());
  uint64_t FirstDueNs = 0, LastCompletionNs = 0;

  W.Before = Server->getStats();
  W.ShardsBefore = Server->getAllShardStats();
  // Leave the generator a moment to start before the first due time.
  uint64_t Base = nowNs() + 2'000'000;

  // Completes the futures in any order, timing each when it is seen.
  auto Collect = [&] {
    std::vector<InFlight> Pending;
    while (true) {
      {
        std::unique_lock<std::mutex> Lock(QueueMutex);
        if (Pending.empty())
          QueueReady.wait(Lock,
                          [&] { return !Queue.empty() || GeneratorDone; });
        while (!Queue.empty()) {
          Pending.push_back(std::move(Queue.front()));
          Queue.pop_front();
        }
        if (Pending.empty() && GeneratorDone)
          break;
      }
      // Block briefly on the oldest request (most complete in order),
      // then sweep every pending future.
      Pending.front().Future.waitFor(20'000);
      for (size_t P = 0; P < Pending.size();) {
        if (!Pending[P].Future.ready()) {
          ++P;
          continue;
        }
        uint64_t Now = nowNs();
        InFlight Done = std::move(Pending[P]);
        Pending[P] = std::move(Pending.back());
        Pending.pop_back();
        serving::InferenceResult Result = Done.Future.take();
        const Arrival &A = Schedule[Done.Index];
        Outstanding.fetch_sub(A.Rows);
        LastCompletionNs = std::max(LastCompletionNs, Now);
        if (T.enabled()) {
          T.recordNew("future.complete", Done.SubmitEndNs, Now,
                      Done.SpanId, Done.SpanId);
          T.record("request", Done.DueNs, Now, Done.SpanId, 0, Done.SpanId);
        }
        Outcome &Out = Outcomes[Done.Index];
        Out.Ok = Result.Status == serving::RequestStatus::Ok;
        Out.DoneNs = Now;
        if (Out.Ok) {
          Out.LatencyMs = ms(Now - Done.DueNs);
          check(A, Result, R);
        }
      }
    }
  };
  // An exception on either thread (allocation failure) must not leave the
  // collector unjoined: it is carried out and rethrown after the join.
  std::exception_ptr CollectorError;
  std::thread Collector([&] {
    try {
      Collect();
    } catch (...) {
      CollectorError = std::current_exception();
    }
  });
  auto StopCollector = [&] {
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      GeneratorDone = true;
    }
    QueueReady.notify_one();
    Collector.join();
  };

  try {
    for (size_t I = 0; I < Schedule.size(); ++I) {
      const Arrival &A = Schedule[I];
      uint64_t Due = Base + A.DueNs;
      if (MaxInFlightSamples) {
        while (Outstanding.load() + A.Rows >
               static_cast<int64_t>(MaxInFlightSamples))
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        Due = nowNs();
      } else if (uint64_t Now = nowNs(); Now < Due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(Due - Now));
      }
      if (I == 0)
        FirstDueNs = Due;
      uint64_t SpanId = T.newId();
      uint64_t SubmitBegin = nowNs();
      serving::ResultFuture Future = Server->submit(
          Models[A.Model].Name, Inputs[I].data(), A.Rows, 0,
          A.Interactive ? serving::Priority::Interactive
                        : serving::Priority::Bulk);
      uint64_t SubmitEnd = nowNs();
      Lag[I] = ms(SubmitBegin - Due);
      SubmitUs[I] = static_cast<double>(SubmitEnd - SubmitBegin) / 1e3;
      if (T.enabled()) {
        T.recordNew("loadgen.lag", Due, SubmitBegin, SpanId, SpanId);
        T.recordNew("serving.submit", SubmitBegin, SubmitEnd, SpanId, SpanId);
      }
      int64_t Depth = Outstanding.fetch_add(A.Rows) + A.Rows;
      W.PeakOutstandingSamples =
          std::max(W.PeakOutstandingSamples, static_cast<size_t>(Depth));
      {
        std::lock_guard<std::mutex> Lock(QueueMutex);
        Queue.push_back({I, Due, SubmitEnd, SpanId, std::move(Future)});
      }
      QueueReady.notify_one();
    }
  } catch (...) {
    StopCollector();
    throw;
  }
  StopCollector();
  if (CollectorError)
    std::rethrow_exception(CollectorError);

  W.After = Server->getStats();
  W.ShardsAfter = Server->getAllShardStats();
  W.LagMs = std::move(Lag);
  W.SubmitUs = std::move(SubmitUs);
  size_t TailFrom = Schedule.size() - Schedule.size() / 10;
  std::vector<double> TailEnd;
  std::vector<std::pair<uint64_t, uint64_t>> Done;
  for (size_t I = 0; I < Schedule.size(); ++I) {
    const Outcome &Out = Outcomes[I];
    ++W.Attempted;
    if (!Out.Ok)
      ++W.Failed;
    else
      Done.push_back({Out.DoneNs, Schedule[I].Rows});
    // A failed request misses every latency limit: it enters the
    // percentiles as +inf.
    W.LatencyMs.push_back(Out.LatencyMs);
    if (Schedule[I].Interactive)
      W.InteractiveMs.push_back(Out.LatencyMs);
    if (I >= TailFrom)
      TailEnd.push_back(Out.LatencyMs);
  }
  W.TailEndLatencyMs = median(TailEnd);
  W.AchievedRate = static_cast<double>(Schedule.size() - W.Failed) /
                   (static_cast<double>(LastCompletionNs - FirstDueNs) / 1e9);
  std::sort(Done.begin(), Done.end());
  W.SampleRate = chunkedRate(Done);
  R.attempted(W.Attempted);
  R.failed(W.Failed);
  return W;
}

} // namespace

std::unique_ptr<Workload> perfbench::makeServeWorkload(const BenchOptions &O) {
  return std::make_unique<ServingWorkload>(O, /*Tenants=*/false);
}

std::unique_ptr<Workload>
perfbench::makeTenantsWorkload(const BenchOptions &O) {
  return std::make_unique<ServingWorkload>(O, /*Tenants=*/true);
}
