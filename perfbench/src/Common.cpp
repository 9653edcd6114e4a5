//===- Common.cpp - Shared pieces of the benchmark workloads --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Stats.h"

#include "baselines/Baselines.h"
#include "frontend/Serializer.h"
#include "runtime/Pipeline.h"
#include "support/Random.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

using namespace perfbench;
using namespace spnc;

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::e2e(const std::string &Name, double Value, const char *Unit) {
  std::lock_guard<std::mutex> Lock(Mutex);
  E2E[Name] = {Value, Unit};
}

void Report::layer(const std::string &Name, double Value,
                   const char *Unit) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Layers[Name] = {Value, Unit};
}

void Report::prov(const std::string &Key, const std::string &JsonValue) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Prov[Key] = JsonValue;
}

void Report::attempted(uint64_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Attempted += N;
}

void Report::failed(uint64_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Failed += N;
}

void Report::mismatch(const std::string &Detail) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (++Mismatches <= 20)
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", Detail.c_str());
}

bool Report::correct() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Mismatches == 0;
}

void Report::print() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Key, Value] : Prov)
    std::printf("PROV %s %s\n", Key.c_str(), Value.c_str());
  for (const auto &[Name, M] : E2E)
    std::printf("E2E %s %.17g %s\n", Name.c_str(), M.Value, M.Unit.c_str());
  for (const auto &[Name, M] : Layers)
    std::printf("LAYER %s %.17g %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("COUNT %llu %llu\n", static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  std::printf("CORRECT %d\n", Mismatches == 0 ? 1 : 0);
  std::fflush(stdout);
}

std::string perfbench::jsonString(const std::string &Text) {
  std::string Out = "\"";
  Out += jsonEscape(Text);
  Out += '"';
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

double perfbench::oracleTolerance(spn::ComputeType Type, double Reference) {
  if (Type == spn::ComputeType::F64)
    return 1e-9;
  return std::abs(Reference) * 1e-4 + 1e-4;
}

spn::ComputeType perfbench::resolvedType(const spn::QueryConfig &Query) {
  if (Query.DataType != spn::ComputeType::Auto)
    return Query.DataType;
  return Query.LogSpace ? spn::ComputeType::F32 : spn::ComputeType::F64;
}

bool perfbench::checkOracle(const double *Got, const double *Want, size_t N,
                            spn::ComputeType Type, const std::string &What,
                            Report &R) {
  bool Ok = true;
  for (size_t I = 0; I < N; ++I) {
    double Tol = oracleTolerance(Type, Want[I]);
    if (std::isfinite(Want[I]) && std::abs(Got[I] - Want[I]) <= Tol)
      continue;
    Ok = false;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "row %zu: got %.17g, oracle %.17g", I,
                  Got[I], Want[I]);
    R.mismatch(What + " " + Buf);
  }
  return Ok;
}

std::vector<double> perfbench::interpret(const spn::Model &Model,
                                         const std::vector<double> &Rows) {
  size_t N = Rows.size() / Model.getNumFeatures();
  std::vector<double> Out(N);
  baselines::InterpreterEngine Oracle(Model);
  Oracle.execute(Rows.data(), Out.data(), N);
  return Out;
}

//===----------------------------------------------------------------------===//
// Models and inputs
//===----------------------------------------------------------------------===//

const std::vector<ShippedModel> &perfbench::shippedModels() {
  static const std::vector<ShippedModel> Models = [] {
    workloads::SpeakerModelOptions Small;
    Small.TargetOperations = 600;
    Small.Seed = 42;
    workloads::SpeakerModelOptions Avg;
    Avg.TargetOperations = 2569;
    Avg.Seed = 7;
    return std::vector<ShippedModel>{{"speaker_small", true, Small},
                                     {"speaker_paper_avg", true, Avg},
                                     {"ratspn_tiny", false, {}}};
  }();
  return Models;
}

spn::Model perfbench::loadModelTraced(const std::string &Path, Tracer &T,
                                      uint64_t Parent) {
  ScopedSpan S(T, "frontend.loadModel", Parent);
  Expected<spn::Model> Model = spn::loadModel(Path);
  if (!Model)
    throw std::runtime_error("cannot load '" + Path +
                             "': " + Model.getError().message());
  return Model.takeValue();
}

namespace {

void dropEvidence(std::vector<double> &Rows, uint64_t Seed) {
  Rng R(Seed ^ 0x0a015eULL);
  for (double &V : Rows)
    if (R.uniform() < 0.3)
      V = std::numeric_limits<double>::quiet_NaN();
}

} // namespace

std::vector<double> perfbench::ratRows(unsigned NumFeatures, size_t N,
                                       uint64_t Seed) {
  return workloads::generateImageData(NumFeatures, /*NumClasses=*/10, N,
                                      Seed, nullptr);
}

std::vector<double> perfbench::shippedRows(const ShippedModel &M,
                                           unsigned NumFeatures, size_t N,
                                           uint64_t Seed, bool Noisy) {
  if (M.IsSpeaker)
    return Noisy ? workloads::generateNoisySpeechData(M.Speaker, N, Seed)
                 : workloads::generateSpeechData(M.Speaker, N, Seed);
  std::vector<double> Rows = ratRows(NumFeatures, N, Seed);
  if (Noisy)
    dropEvidence(Rows, Seed);
  return Rows;
}

workloads::RatSpnOptions perfbench::ratShape(uint64_t Seed) {
  workloads::RatSpnOptions Rat = workloads::ratSpnSmallScale();
  Rat.NumFeatures = 64;
  Rat.Depth = 3;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 4;
  Rat.LeafDistributions = 8;
  Rat.Seed = Seed;
  return Rat;
}

//===----------------------------------------------------------------------===//
// Compile statistics
//===----------------------------------------------------------------------===//

void CompileLayerStats::add(const runtime::CompileStats &Stats, Tracer &T,
                            uint64_t Parent, uint64_t RequestId,
                            uint64_t StartNs) {
  uint64_t PipelineId =
      T.recordNew("pipeline.compile", StartNs, StartNs + Stats.TotalNs,
                  Parent, RequestId);
  uint64_t Cursor = StartNs;
  for (const runtime::StageTiming &Stage : Stats.Stages) {
    uint64_t StageId =
        T.recordNew("stage." + Stage.Name, Cursor, Cursor + Stage.WallNs,
                    PipelineId, RequestId);
    if (Stage.Name == "translate") {
      TranslateMs.push_back(ms(Stage.WallNs));
    } else if (Stage.Name == "ir-pipeline") {
      IrMs.push_back(ms(Stage.WallNs));
      std::map<std::string, uint64_t> PerPass;
      uint64_t PassCursor = Cursor;
      for (const ir::PassTiming &P : Stats.PassTimings) {
        T.recordNew("pass." + P.PassName, PassCursor,
                    PassCursor + P.WallNs, StageId, RequestId);
        PassCursor += P.WallNs;
        PerPass[P.PassName] += P.WallNs;
      }
      for (const auto &[Name, Ns] : PerPass)
        PassMs[Name].push_back(ms(Ns));
    } else if (Stage.Name == "codegen") {
      CodegenMs.push_back(ms(Stage.WallNs));
      IselMs.push_back(ms(Stats.Codegen.IselNs));
      RegAllocMs.push_back(ms(Stats.Codegen.RegAllocNs));
      PeepholeMs.push_back(ms(Stats.Codegen.PeepholeNs));
      ScheduleMs.push_back(ms(Stats.Codegen.SchedulingNs));
    }
    Cursor += Stage.WallNs;
  }
}

void CompileLayerStats::report(Report &R) const {
  R.layer("frontend.translate_ms.p50", median(TranslateMs), "ms");
  R.layer("ir.pipeline_ms.p50", median(IrMs), "ms");
  for (const char *Pass : {"canonicalize", "lower-hispn-to-lospn",
                           "partition-tasks", "cse", "bufferize"}) {
    auto It = PassMs.find(Pass);
    R.layer(std::string("ir.pass_ms.") + Pass,
            It == PassMs.end() ? 0.0 : median(It->second), "ms");
  }
  R.layer("codegen_ms.p50", median(CodegenMs), "ms");
  R.layer("codegen.isel_ms", median(IselMs), "ms");
  R.layer("codegen.regalloc_ms", median(RegAllocMs), "ms");
  R.layer("codegen.peephole_ms", median(PeepholeMs), "ms");
  R.layer("codegen.schedule_ms", median(ScheduleMs), "ms");
}

void perfbench::reportIrOps(const std::vector<const spn::Model *> &Models,
                            const spn::QueryConfig &Query,
                            const runtime::CompilerOptions &Options,
                            Report &R) {
  Expected<runtime::CompilationPipeline> Pipeline =
      runtime::CompilationPipeline::create(Options);
  if (!Pipeline)
    throw std::runtime_error(Pipeline.getError().message());
  if (std::optional<Error> Err = Pipeline->enableStageReport())
    throw std::runtime_error(Err->message());
  std::map<std::string, double> Ops;
  for (const spn::Model *M : Models) {
    runtime::CompileStats Stats;
    Expected<vm::KernelProgram> Program =
        Pipeline->compile(*M, Query, &Stats);
    if (!Program)
      throw std::runtime_error(Program.getError().message());
    for (const runtime::StageOpCount &C : Stats.OpCounts)
      Ops[C.Stage] += static_cast<double>(C.NumOps);
  }
  for (const char *Stage : {"translate", "ir-pipeline", "codegen"})
    R.layer(std::string("ir.ops.") + Stage, Ops[Stage], "count");
}

double perfbench::selfP50Ms(
    const std::map<std::string, std::vector<uint64_t>> &Self,
    const std::string &Name) {
  auto It = Self.find(Name);
  if (It == Self.end())
    return 0.0;
  std::vector<double> Values;
  for (uint64_t Ns : It->second)
    Values.push_back(ms(Ns));
  return median(Values);
}

//===----------------------------------------------------------------------===//
// Machine speed
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t kWalkEntries = 4096;
/// Steps of the walk in one referenceWorkMs() call.
constexpr uint32_t kWalkSteps = 1'000'000;

/// One cycle through all kWalkEntries slots (Sattolo's shuffle of a
/// fixed xorshift stream), so the walk's loads depend on each other.
struct WalkTable {
  uint32_t Next[kWalkEntries];
  WalkTable() {
    for (uint32_t I = 0; I < kWalkEntries; ++I)
      Next[I] = I;
    uint64_t X = 0x9e3779b97f4a7c15ULL;
    for (uint32_t I = kWalkEntries - 1; I > 0; --I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      uint32_t J = static_cast<uint32_t>(X % I);
      std::swap(Next[I], Next[J]);
    }
  }
};

const WalkTable Walk;

} // namespace

double perfbench::referenceWorkMs() {
  uint64_t Begin = nowNs();
  uint32_t Slot = 0;
  uint64_t Mix = 1;
  for (uint32_t I = 0; I < kWalkSteps; ++I) {
    Slot = Walk.Next[Slot];
    Mix = Mix * 0x5851f42d4c957f2dULL + Slot;
  }
  // Keeps the work observable so it cannot be optimized away.
  static volatile uint64_t Sink;
  Sink = Sink + Mix;
  return ms(nowNs() - Begin);
}
