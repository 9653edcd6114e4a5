//===- CompileWorkload.cpp - Cold and warm compiles of a model fleet ------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `compile`: a seeded fleet of speaker SPNs (500-8000 target operations)
/// plus RAT-SPN class models, each compiled under two option sets through
/// KernelCache::getOrCompile. A cold pass uses a fresh cache over an
/// empty disk directory; each warm pass that follows uses a new cache
/// over the filled directory, so every compile is a disk hit. The
/// frontend, IR pipeline, partitioner, codegen and the cache's disk tier
/// do almost all the work; the engine only runs the oracle check.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Stats.h"

#include "frontend/Serializer.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

using namespace perfbench;
using namespace spnc;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kNumSpeakers = 60;
constexpr unsigned kNumRatClasses = 10;
constexpr unsigned kMinOps = 500, kMaxOps = 8000;
constexpr uint32_t kPartitionSize = 2000;
constexpr size_t kOracleRows = 16;
/// Warm passes after each cold pass. A warm compile is a sub-ms disk
/// load, so it gets more passes to take its fastest from.
constexpr unsigned kWarmPasses = 3;
/// Wall time of one cold pass and its warm passes over the fleet on the
/// machine the benchmark was defined on (4-core Xeon virtual machine).
constexpr double kNominalPassSeconds = 6.5;

struct FleetModel {
  std::string Name;
  spn::Model Model;
  std::vector<double> Rows;
  std::vector<double> Expected;
};

class CompileWorkload : public Workload {
public:
  explicit CompileWorkload(const BenchOptions &O)
      : O(O), ModelDir(O.WorkDir + "/compile-models"),
        CacheDir(O.WorkDir + "/compile-cache") {
    Query.LogSpace = true;
    Query.Kind = spn::QueryKind::Joint;
    runtime::CompilerOptions Base;
    Base.TheTarget = runtime::Target::CPU;
    Base.Execution.VectorWidth = 8;
    Base.OptLevel = 1;
    OptionSets.push_back(Base);
    Base.OptLevel = 2;
    Base.MaxPartitionSize = kPartitionSize;
    OptionSets.push_back(Base);
  }

  void setup(Tracer &T) override {
    Fleet.clear();
    fs::remove_all(ModelDir);
    fs::create_directories(ModelDir);
    // The fleet arrives as `.spnb` files, as a model store would hand it
    // over: generate and save, then load through the frontend.
    Rng R(O.Seed * 0x9e3779b97f4a7c15ULL + 11);
    std::vector<std::pair<std::string, spn::Model>> Generated;
    for (unsigned I = 0; I < kNumSpeakers; ++I) {
      workloads::SpeakerModelOptions S;
      // Stratified log-uniform sizes: the seed moves each model inside
      // its stratum, so the fleet's size distribution (and with it the
      // compile-time distribution) is the same for every seed.
      double Frac = (I + R.uniform()) / kNumSpeakers;
      double LogOps = std::log(kMinOps) +
                      Frac * (std::log(kMaxOps) - std::log(kMinOps));
      S.TargetOperations = static_cast<unsigned>(std::exp(LogOps));
      S.Seed = R.next() | 1;
      Generated.emplace_back("speaker" + std::to_string(I),
                             workloads::generateSpeakerModel(S));
      SpeakerOptions.push_back(S);
    }
    workloads::RatSpnOptions Rat = ratShape(R.next() | 1);
    for (unsigned C = 0; C < kNumRatClasses; ++C)
      Generated.emplace_back("ratspn_class" + std::to_string(C),
                             workloads::generateRatSpn(Rat, C));
    for (auto &[Name, Model] : Generated)
      if (failed(spn::saveModel(Model, ModelDir + "/" + Name + ".spnb")))
        throw std::runtime_error("cannot write fleet model " + Name);

    for (size_t I = 0; I < Generated.size(); ++I) {
      const std::string &Name = Generated[I].first;
      FleetModel F{Name,
                   loadModelTraced(ModelDir + "/" + Name + ".spnb", T),
                   {},
                   {}};
      uint64_t RowSeed = O.Seed * 1000003 + I;
      F.Rows = I < kNumSpeakers
                   ? workloads::generateSpeechData(SpeakerOptions[I],
                                                   kOracleRows, RowSeed)
                   : ratRows(F.Model.getNumFeatures(), kOracleRows, RowSeed);
      F.Expected = interpret(F.Model, F.Rows);
      Fleet.push_back(std::move(F));
    }
    SpeakerOptions.clear();
  }

  double measure(double Seconds, Tracer &T, Report &R) override {
    Cold.assign(Fleet.size() * OptionSets.size(), {});
    Warm.assign(Fleet.size() * OptionSets.size(), {});
    Layers = CompileLayerStats();
    RefMs.clear();
    // Whole passes only, so every run samples the same fleet. Their
    // number follows from --seconds, not from the clock: the steady
    // figures take each compile's fastest pass, and the minimum of more
    // passes is lower, so a faster machine must not buy extra passes.
    unsigned Passes = std::max(2u, static_cast<unsigned>(std::lround(
                                       Seconds / kNominalPassSeconds)));
    for (unsigned P = 0; P < Passes; ++P)
      runPass(T, R);
    std::vector<double> ColdAll, WarmAll, ColdPerCompile, WarmPerCompile,
        ColdBest, WarmBest;
    for (size_t I = 0; I < Cold.size(); ++I) {
      ColdAll.insert(ColdAll.end(), Cold[I].begin(), Cold[I].end());
      WarmAll.insert(WarmAll.end(), Warm[I].begin(), Warm[I].end());
      if (!Cold[I].empty()) {
        ColdPerCompile.push_back(median(Cold[I]));
        ColdBest.push_back(quantile(Cold[I], 0.0));
      }
      if (!Warm[I].empty()) {
        WarmPerCompile.push_back(median(Warm[I]));
        WarmBest.push_back(quantile(Warm[I], 0.0));
      }
    }
    // p50 over each compile's median across passes; p95 over every
    // compile measured.
    R.e2e("compile_cold_ms.p50", median(ColdPerCompile), "ms");
    R.e2e("compile_cold_ms.p95", quantile(ColdAll, 0.95), "ms");
    R.e2e("compile_warm_ms.p50", median(WarmPerCompile), "ms");
    R.e2e("compile_warm_ms.p95", quantile(WarmAll, 0.95), "ms");
    R.prov("compile.cold_samples", std::to_string(ColdAll.size()));
    R.prov("compile.cold_supported_tail_percentile",
           std::to_string(highestSupportedTail(ColdAll).Percentile));
    R.prov("compile.passes", std::to_string(Passes));
    std::string Deciles = "[";
    for (int D = 0; D <= 10; ++D)
      Deciles += (D ? ", " : "") +
                 std::to_string(quantile(ColdPerCompile, D / 10.0));
    R.prov("compile.cold_ms_deciles", Deciles + "]");

    // The steady figures. A compile is deterministic work and the shared
    // machine only ever slows it down, so each compile's fastest pass is
    // its cost. The machine's speed also drifts by a third over minutes;
    // the reference work timed before every cold compile drifts with it,
    // so the costs are rescaled to the reference work's nominal time
    // ("ms at reference speed"). Single order statistics of this fleet
    // are fragile (the ten RAT-SPN classes compile in the same time and
    // form a cluster beside the median), so the fleet is summarized by
    // the geometric mean and by the mean of its slowest 10 %.
    double RefMedianMs = median(RefMs);
    double Scale = kNominalReferenceMs / RefMedianMs;
    R.prov("machine.reference_work_ms", std::to_string(RefMedianMs));
    double BestTotalMs = 0.0;
    for (double Ms : ColdBest)
      BestTotalMs += Ms;
    // Raw and at reference speed: compare checks that both agree.
    for (auto [Suffix, K] : {std::pair<const char *, double>{"", 1.0},
                             {"_at_ref", Scale}}) {
      std::string S = Suffix;
      R.e2e("compile_cold_per_s" + S,
            ColdBest.size() / (BestTotalMs * K / 1e3), "1/s");
      R.e2e("compile_cold_ms.geomean" + S, geomean(ColdBest) * K, "ms");
      R.e2e("compile_warm_ms.geomean" + S, geomean(WarmBest) * K, "ms");
      R.e2e("compile_cold_ms.top10_mean" + S, meanOfTop(ColdBest, 0.10) * K,
            "ms");
      R.e2e("compile_warm_ms.top10_mean" + S, meanOfTop(WarmBest, 0.10) * K,
            "ms");
    }
    return geomean(ColdBest) * Scale;
  }

  void reportLayers(const std::vector<Span> &Spans, Report &R) override {
    auto Self = selfTimesNs(Spans);
    Layers.report(R);
    // The cold getOrCompile span minus the pipeline it ran: hashing,
    // the disk probe, engine construction and the atomic .spnk store.
    R.layer("cache.store_ms.p50", selfP50Ms(Self, "cache.getOrCompile.cold"),
            "ms");
    R.layer("cache.disk_load_ms.p50",
            selfP50Ms(Self, "cache.getOrCompile.warm"), "ms");
    R.layer("cache.spnk_bytes", static_cast<double>(SpnkBytes), "bytes");
    R.layer("cache.hits", static_cast<double>(Counters.Hits), "count");
    R.layer("cache.misses", static_cast<double>(Counters.Misses), "count");
    R.layer("cache.disk_hits", static_cast<double>(Counters.DiskHits),
            "count");
    R.layer("cache.recompiles", static_cast<double>(Counters.Recompiles),
            "count");
    R.layer("cache.corrupted",
            static_cast<double>(Counters.CorruptedDiskEntries), "count");
    R.layer("frontend.load_us.p50", selfP50Ms(Self, "frontend.loadModel") * 1e3,
            "us");
    R.layer("codegen.instructions", static_cast<double>(Instructions),
            "count");
    R.layer("codegen.tasks", static_cast<double>(Tasks), "count");

    // Module size after each stage over a seeded tenth of the fleet,
    // compiled under the partitioning option set.
    std::vector<const spn::Model *> Subset;
    for (size_t I = 0; I < Fleet.size(); I += 7)
      Subset.push_back(&Fleet[I].Model);
    reportIrOps(Subset, Query, OptionSets[1], R);
  }

  void describe(Report &R) const override {
    R.prov("workload.fleet",
           "{\"speakers\": " + std::to_string(kNumSpeakers) +
               ", \"speaker_ops\": [" + std::to_string(kMinOps) + ", " +
               std::to_string(kMaxOps) + "], \"ratspn_classes\": " +
               std::to_string(kNumRatClasses) +
               ", \"option_sets\": [\"O1\", \"O2 MaxPartitionSize=" +
               std::to_string(kPartitionSize) + "\"], \"oracle_rows\": " +
               std::to_string(kOracleRows) + "}");
  }

private:
  /// One cold pass (fresh cache, empty directory) and kWarmPasses warm
  /// passes (each a new cache over the filled directory) over every
  /// (model, option set).
  void runPass(Tracer &T, Report &R) {
    fs::remove_all(CacheDir);
    fs::create_directories(CacheDir);
    runtime::KernelCache ColdCache(CacheDir);
    compileAll(ColdCache, /*IsCold=*/true, T, R);
    runtime::KernelCache::Stats ColdStats = ColdCache.getStats();
    size_t N = Fleet.size() * OptionSets.size();
    if (ColdStats.DiskHits != 0 || ColdStats.Recompiles != N)
      R.mismatch("cold pass: expected " + std::to_string(N) +
                 " compiles and 0 disk hits, got " +
                 std::to_string(ColdStats.Recompiles) + " and " +
                 std::to_string(ColdStats.DiskHits));
    SpnkBytes = 0;
    for (const fs::directory_entry &E : fs::directory_iterator(CacheDir))
      if (E.path().extension() == ".spnk")
        SpnkBytes += E.file_size();

    Counters = ColdStats;
    for (unsigned P = 0; P < kWarmPasses; ++P) {
      runtime::KernelCache WarmCache(CacheDir);
      compileAll(WarmCache, /*IsCold=*/false, T, R);
      runtime::KernelCache::Stats WarmStats = WarmCache.getStats();
      if (WarmStats.DiskHits != N || WarmStats.Recompiles != 0)
        R.mismatch("warm pass: expected " + std::to_string(N) +
                   " disk hits and 0 compiles, got " +
                   std::to_string(WarmStats.DiskHits) + " and " +
                   std::to_string(WarmStats.Recompiles));
      Counters.Hits += WarmStats.Hits;
      Counters.Misses += WarmStats.Misses;
      Counters.DiskHits += WarmStats.DiskHits;
      Counters.Recompiles += WarmStats.Recompiles;
      Counters.CorruptedDiskEntries += WarmStats.CorruptedDiskEntries;
    }
  }

  void compileAll(runtime::KernelCache &Cache, bool IsCold, Tracer &T,
                  Report &R) {
    const char *SpanName =
        IsCold ? "cache.getOrCompile.cold" : "cache.getOrCompile.warm";
    Instructions = Tasks = 0;
    for (size_t M = 0; M < Fleet.size(); ++M)
      for (size_t S = 0; S < OptionSets.size(); ++S) {
        FleetModel &F = Fleet[M];
        R.attempted();
        if (IsCold)
          RefMs.push_back(referenceWorkMs());
        runtime::CompileStats Stats;
        uint64_t Id = T.newId();
        uint64_t Begin = nowNs();
        Expected<runtime::CompiledKernel> Kernel =
            Cache.getOrCompile(F.Model, Query, OptionSets[S], &Stats);
        uint64_t End = nowNs();
        if (!Kernel) {
          R.failed();
          std::fprintf(stderr, "perfbench: compile of %s failed: %s\n",
                       F.Name.c_str(), Kernel.getError().message().c_str());
          continue;
        }
        size_t Slot = M * OptionSets.size() + S;
        (IsCold ? Cold : Warm)[Slot].push_back(ms(End - Begin));
        if (T.enabled()) {
          T.record(SpanName, Begin, End, Id, 0, Id);
          if (IsCold)
            Layers.add(Stats, T, Id, Id, Begin);
        }
        runtime::EngineAccounting A = Kernel->getEngine().getAccounting();
        Instructions += A.NumInstructions;
        Tasks += A.NumTasks;

        std::vector<double> Out(kOracleRows);
        Kernel->execute(F.Rows.data(), Out.data(), kOracleRows);
        checkOracle(Out.data(), F.Expected.data(), kOracleRows,
                    resolvedType(Query),
                    "compile " + F.Name + " option set " +
                        std::to_string(S) + (IsCold ? " cold" : " warm"),
                    R);
      }
  }

  const BenchOptions &O;
  std::string ModelDir, CacheDir;
  spn::QueryConfig Query;
  std::vector<runtime::CompilerOptions> OptionSets;
  std::vector<workloads::SpeakerModelOptions> SpeakerOptions;
  std::vector<FleetModel> Fleet;
  std::vector<std::vector<double>> Cold, Warm;
  std::vector<double> RefMs;
  CompileLayerStats Layers;
  runtime::KernelCache::Stats Counters;
  uint64_t SpnkBytes = 0;
  size_t Instructions = 0, Tasks = 0;
};

} // namespace

std::unique_ptr<Workload>
perfbench::makeCompileWorkload(const BenchOptions &O) {
  return std::make_unique<CompileWorkload>(O);
}
