//===- BatchWorkload.cpp - Offline inference on the shipped models --------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `batch`: the paper's own use case. Each shipped model answers a joint
/// query on clean rows and a marginal query on rows with 30 % NaN
/// evidence (Fig. 8), 10^5 rows per call, on the VM at -O2 with vector
/// width 8 and 4 threads. Compilation happens in setup only, so the VM
/// does almost all the measured work.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Stats.h"

#include "support/Random.h"

#include <stdexcept>

using namespace perfbench;
using namespace spnc;

namespace {

constexpr size_t kRowsPerCall = 100000;
constexpr size_t kOracleRows = 256;
constexpr unsigned kThreads = 4;

/// One (model, query) pair: a compiled kernel and its input rows.
struct Leg {
  std::string Model;
  bool Marginal = false;
  runtime::CompiledKernel Kernel;
  unsigned NumFeatures = 0;
  std::vector<double> Rows;
  /// Seeded row subset the oracle checks after every call.
  std::vector<size_t> OracleIndices;
  std::vector<double> Expected;
  std::vector<double> CallMs;
  size_t Instructions = 0, Tasks = 0;
};

class BatchWorkload : public Workload {
public:
  explicit BatchWorkload(const BenchOptions &O) : O(O) {
    Options.TheTarget = runtime::Target::CPU;
    Options.OptLevel = 2;
    Options.Execution.VectorWidth = 8;
    Options.Execution.NumThreads = kThreads;
  }

  void setup(Tracer &T) override {
    Legs.clear();
    Models.clear();
    SetupCompiles = CompileLayerStats();
    Cache = std::make_unique<runtime::KernelCache>();
    for (const ShippedModel &S : shippedModels())
      Models.push_back(
          loadModelTraced(O.ModelsDir + "/" + S.Name + ".spnb", T));
    for (size_t M = 0; M < Models.size(); ++M)
      for (bool Marginal : {false, true}) {
        const ShippedModel &S = shippedModels()[M];
        Leg L;
        L.Model = S.Name;
        L.Marginal = Marginal;
        spn::QueryConfig Query = queryFor(Marginal);
        runtime::CompileStats Stats;
        uint64_t Id = T.newId();
        uint64_t Begin = nowNs();
        Expected<runtime::CompiledKernel> Kernel =
            Cache->getOrCompile(Models[M], Query, Options, &Stats);
        if (!Kernel)
          throw std::runtime_error("compile of " + L.Model + " failed: " +
                                   Kernel.getError().message());
        if (T.enabled()) {
          T.record("cache.getOrCompile.setup", Begin, nowNs(), Id, 0, Id);
          SetupCompiles.add(Stats, T, Id, Id, Begin);
        }
        L.Kernel = Kernel.takeValue();
        runtime::EngineAccounting A = L.Kernel.getEngine().getAccounting();
        L.Instructions = A.NumInstructions;
        L.Tasks = A.NumTasks;
        L.NumFeatures = Models[M].getNumFeatures();
        uint64_t RowSeed = O.Seed * 7919 + M * 2 + (Marginal ? 1 : 0);
        L.Rows = shippedRows(S, L.NumFeatures, kRowsPerCall, RowSeed,
                             Marginal);
        Rng R(RowSeed ^ 0xbadc0ffeeULL);
        std::vector<double> Subset;
        for (size_t I = 0; I < kOracleRows; ++I) {
          size_t Row = R.uniformInt(kRowsPerCall);
          L.OracleIndices.push_back(Row);
          Subset.insert(Subset.end(), L.Rows.begin() + Row * L.NumFeatures,
                        L.Rows.begin() + (Row + 1) * L.NumFeatures);
        }
        L.Expected = interpret(Models[M], Subset);
        Legs.push_back(std::move(L));
      }
  }

  double measure(double Seconds, Tracer &T, Report &R) override {
    for (Leg &L : Legs)
      L.CallMs.clear();
    RefMs.clear();
    std::vector<double> Out(kRowsPerCall);
    uint64_t Start = nowNs();
    // Whole rounds over every leg, so each leg gets the same number of
    // calls; at least three, for a median.
    unsigned Rounds = 0;
    while (Rounds < 3 || ms(nowNs() - Start) < Seconds * 1e3) {
      ScopedSpan Round(T, "batch.round");
      for (Leg &L : Legs) {
        R.attempted();
        RefMs.push_back(referenceWorkMs());
        uint64_t Begin = nowNs();
        L.Kernel.execute(L.Rows.data(), Out.data(), kRowsPerCall);
        uint64_t End = nowNs();
        T.recordNew(L.Marginal ? "vm.execute.marginal" : "vm.execute.joint",
                    Begin, End, Round.id(), 0);
        L.CallMs.push_back(ms(End - Begin));
        std::vector<double> Got;
        for (size_t Row : L.OracleIndices)
          Got.push_back(Out[Row]);
        checkOracle(Got.data(), L.Expected.data(), kOracleRows,
                    resolvedType(queryFor(L.Marginal)),
                    "batch " + L.Model + (L.Marginal ? " marginal" : " joint"),
                    R);
      }
      ++Rounds;
    }
    // Geomeans over the three models, per query.
    std::vector<double> Rate[2], P50[2], Mean[2], All;
    for (const Leg &L : Legs) {
      double SamplesPerSec = kRowsPerCall / (median(L.CallMs) / 1e3);
      Rate[L.Marginal].push_back(SamplesPerSec);
      All.push_back(SamplesPerSec);
      P50[L.Marginal].push_back(median(L.CallMs));
      Mean[L.Marginal].push_back(meanOfTop(L.CallMs, 1.0));
    }
    R.e2e("infer_joint_samples_per_s", geomean(Rate[0]), "1/s");
    R.e2e("infer_marginal_samples_per_s", geomean(Rate[1]), "1/s");
    R.e2e("infer_samples_per_s", geomean(All), "1/s");
    // Each leg gets only about ten calls per run, too few for a
    // percentile, and their slowest call is decided by a single stall of
    // the machine. The mean is the tail statistic: slow calls count with
    // their weight.
    R.e2e("batch_joint_call_ms.p50", geomean(P50[0]), "ms");
    R.e2e("batch_joint_call_ms.mean", geomean(Mean[0]), "ms");
    R.e2e("batch_marginal_call_ms.p50", geomean(P50[1]), "ms");
    R.e2e("batch_marginal_call_ms.mean", geomean(Mean[1]), "ms");
    R.prov("batch.calls_per_leg", std::to_string(Rounds));
    // The steady figures: the same, rescaled to the reference speed of
    // the machine (see referenceWorkMs), which is timed before every
    // call; each call is deterministic work.
    double Scale = kNominalReferenceMs / median(RefMs);
    R.prov("machine.reference_work_ms", std::to_string(median(RefMs)));
    R.e2e("infer_samples_per_s_at_ref", geomean(All) / Scale, "1/s");
    R.e2e("batch_joint_call_ms.p50_at_ref", geomean(P50[0]) * Scale, "ms");
    R.e2e("batch_joint_call_ms.mean_at_ref", geomean(Mean[0]) * Scale, "ms");
    R.e2e("batch_marginal_call_ms.p50_at_ref", geomean(P50[1]) * Scale,
          "ms");
    R.e2e("batch_marginal_call_ms.mean_at_ref", geomean(Mean[1]) * Scale,
          "ms");
    return geomean(P50[0]) * Scale;
  }

  void reportLayers(const std::vector<Span> &Spans, Report &R) override {
    auto Self = selfTimesNs(Spans);
    size_t Instructions = 0, Tasks = 0;
    for (const Leg &L : Legs) {
      double NsPerSample = median(L.CallMs) * 1e6 / kRowsPerCall;
      std::string Prefix = "vm.ns_per_sample." + L.Model;
      R.layer(Prefix + (L.Marginal ? ".marginal" : ".joint"), NsPerSample,
              "ns");
      if (!L.Marginal)
        R.layer("vm.ns_per_instruction." + L.Model,
                NsPerSample / static_cast<double>(L.Instructions), "ns");
      Instructions += L.Instructions;
      Tasks += L.Tasks;
    }
    R.layer("codegen.instructions", static_cast<double>(Instructions),
            "count");
    R.layer("codegen.tasks", static_cast<double>(Tasks), "count");
    SetupCompiles.report(R);
    R.layer("frontend.load_us.p50",
            selfP50Ms(Self, "frontend.loadModel") * 1e3, "us");
    runtime::KernelCache::Stats C = Cache->getStats();
    R.layer("cache.hits", static_cast<double>(C.Hits), "count");
    R.layer("cache.misses", static_cast<double>(C.Misses), "count");
    R.layer("cache.recompiles", static_cast<double>(C.Recompiles), "count");
    std::vector<const spn::Model *> All;
    for (const spn::Model &M : Models)
      All.push_back(&M);
    reportIrOps(All, queryFor(false), Options, R);
  }

  void describe(Report &R) const override {
    R.prov("workload.batch",
           "{\"models\": [\"speaker_small\", \"speaker_paper_avg\", "
           "\"ratspn_tiny\"], \"rows_per_call\": " +
               std::to_string(kRowsPerCall) +
               ", \"marginal_nan_fraction\": 0.3, \"opt_level\": 2, "
               "\"vector_width\": 8, \"threads\": " +
               std::to_string(kThreads) + ", \"oracle_rows\": " +
               std::to_string(kOracleRows) + "}");
  }

private:
  static spn::QueryConfig queryFor(bool Marginal) {
    spn::QueryConfig Query;
    Query.LogSpace = true;
    Query.Kind = Marginal ? spn::QueryKind::Marginal : spn::QueryKind::Joint;
    Query.SupportMarginal = Marginal;
    return Query;
  }

  const BenchOptions &O;
  runtime::CompilerOptions Options;
  std::unique_ptr<runtime::KernelCache> Cache;
  std::vector<spn::Model> Models;
  std::vector<Leg> Legs;
  CompileLayerStats SetupCompiles;
  std::vector<double> RefMs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeBatchWorkload(const BenchOptions &O) {
  return std::make_unique<BatchWorkload>(O);
}
