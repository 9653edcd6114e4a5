//===- Common.h - Shared pieces of the benchmark workloads -----*- C++ -*-===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line options, the result report, the interpreter-oracle
/// check and the compile-statistics accumulator every workload uses.
///
/// The report is a line protocol on stdout, read by perfbench/run.py:
///
///   E2E <name> <value> <unit>      end-to-end metric (untraced run)
///   LAYER <name> <value> <unit>    per-layer metric (traced run)
///   PROV <key> <json value>        provenance / workload parameters
///   COUNT <attempted> <failed>     operations attempted and failed
///   CORRECT <0|1>                  every checked output matched
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Trace.h"

#include "frontend/Model.h"
#include "frontend/Query.h"
#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory holding the shipped `.spnb` models.
  std::string ModelsDir = "examples/models";
  /// Scratch directory for the run (generated models, cache entries).
  std::string WorkDir = ".bench_out/work";
  /// Chrome trace-event output of the traced run; empty = not written.
  std::string TraceFile;
  /// Set-ups per run; setup_s is their median.
  unsigned SetupRepeats = 5;
};

inline const char *const kRateNames[3] = {"low", "mid", "high"};

/// Collects metrics, provenance and correctness, and prints them in the
/// line protocol. Thread-safe.
class Report {
public:
  void e2e(const std::string &Name, double Value, const char *Unit);
  void layer(const std::string &Name, double Value, const char *Unit);
  /// \p JsonValue must already be valid JSON (number, string, array).
  void prov(const std::string &Key, const std::string &JsonValue);
  void attempted(uint64_t N = 1);
  void failed(uint64_t N = 1);
  /// Records a wrong output. The run is then reported incorrect and
  /// exits non-zero; mismatches never feed a metric.
  void mismatch(const std::string &Detail);
  bool correct() const;
  void print() const;

private:
  struct Metric {
    double Value;
    std::string Unit;
  };
  mutable std::mutex Mutex;
  std::map<std::string, Metric> E2E, Layers;
  std::map<std::string, std::string> Prov;
  uint64_t Attempted = 0, Failed = 0, Mismatches = 0;
};

/// JSON string literal of \p Text (ASCII).
std::string jsonString(const std::string &Text);

/// Absolute tolerance the differential test suite allows between a
/// compiled log-likelihood and the interpreter's \p Reference for a
/// kernel computing in \p Type (f64: 1e-9; f32: 1e-4 relative + 1e-4).
double oracleTolerance(spnc::spn::ComputeType Type, double Reference);

/// The compute type a CPU joint/marginal log-space kernel resolves to
/// for \p Query (Auto lowers log-space graphs to f32).
spnc::spn::ComputeType resolvedType(const spnc::spn::QueryConfig &Query);

/// Compares \p Got against \p Want (the interpreter's values) and
/// records a mismatch per wrong row (at most a few are detailed).
/// Returns true when all rows match.
bool checkOracle(const double *Got, const double *Want, size_t N,
                 spnc::spn::ComputeType Type, const std::string &What,
                 Report &R);

/// Log-likelihoods of \p Model on \p Rows (row-major) from the
/// interpreter engine, the single oracle of the repository.
std::vector<double> interpret(const spnc::spn::Model &Model,
                              const std::vector<double> &Rows);

/// A model shipped under examples/models and the generator settings its
/// input rows come from (the settings spnc-modelgen built it with).
struct ShippedModel {
  const char *Name;
  bool IsSpeaker;
  spnc::workloads::SpeakerModelOptions Speaker;
};
const std::vector<ShippedModel> &shippedModels();

/// Loads `<Dir>/<Name>.spnb` through spn::loadModel under a
/// "frontend.loadModel" span. Throws std::runtime_error on failure.
spnc::spn::Model loadModelTraced(const std::string &Path, Tracer &T,
                                 uint64_t Parent = 0);

/// \p N seeded input rows for a shipped model; with \p Noisy, 30 % of the
/// values are NaN evidence (paper Fig. 8).
std::vector<double> shippedRows(const ShippedModel &M,
                                unsigned NumFeatures, size_t N,
                                uint64_t Seed, bool Noisy);

/// RAT-SPN rows (image data of the generator's class prototypes).
std::vector<double> ratRows(unsigned NumFeatures, size_t N, uint64_t Seed);

/// The RAT-SPN shape of the compile fleet and the tenants workload (the
/// shape of the shipped ratspn_tiny model), structure drawn from \p Seed.
spnc::workloads::RatSpnOptions ratShape(uint64_t Seed);

/// Per-compile statistics of a traced run, gathered from CompileStats
/// and the benchmark's getOrCompile span.
struct CompileLayerStats {
  std::vector<double> TranslateMs, IrMs, CodegenMs, IselMs, RegAllocMs,
      PeepholeMs, ScheduleMs, StoreMs;
  std::map<std::string, std::vector<double>> PassMs;

  /// Records \p Stats of a pipeline run, as spans under \p Parent laid
  /// out from \p StartNs in stage order (durations exact, positions
  /// reconstructed: the library reports durations only).
  void add(const spnc::runtime::CompileStats &Stats, Tracer &T,
           uint64_t Parent, uint64_t RequestId, uint64_t StartNs);
  void report(Report &R) const;
};

/// Runs \p Options' pipeline with a stage report over \p Models and
/// reports the summed module size after each stage as ir.ops.<stage>.
void reportIrOps(const std::vector<const spnc::spn::Model *> &Models,
                 const spnc::spn::QueryConfig &Query,
                 const spnc::runtime::CompilerOptions &Options, Report &R);

/// A fixed piece of single-threaded work of the benchmark's own,
/// returning its wall time in ms: a dependent walk over a 16 KiB static
/// table mixed with integer arithmetic. It allocates nothing and calls
/// no library or C++ runtime code, so nothing the library does to its
/// allocator or its own state moves it; it moves with how fast the
/// shared machine runs at that moment, which drifts by a third over
/// minutes. It is timed while the library is idle (between compiles,
/// calls, set-ups or rate windows), so it competes only with other
/// processes.
double referenceWorkMs();

/// A round figure near the time of referenceWorkMs() on the machine the
/// benchmark was defined on (4-core Xeon virtual machine, 1.9 ms in a
/// quiet period). Deterministic work is
/// rescaled to this reference speed: measured x kNominalReferenceMs /
/// (median reference time of the run).
inline constexpr double kNominalReferenceMs = 2.0;

/// Milliseconds of \p Ns.
inline double ms(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Self-time percentile (ms) of the spans named \p Name, 0 if none.
double selfP50Ms(const std::map<std::string, std::vector<uint64_t>> &Self,
                 const std::string &Name);

/// One benchmark workload. setup() rebuilds all state from scratch (it
/// runs several times; setup_s is the median); measure() runs the timed
/// part for about \p Seconds and returns its headline time, used to
/// derive the tracing overhead.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup(Tracer &T) = 0;
  virtual double measure(double Seconds, Tracer &T, Report &R) = 0;
  /// Per-layer metrics of the last (traced) measure().
  virtual void reportLayers(const std::vector<Span> &Spans, Report &R) = 0;
  /// Workload parameters for the provenance record.
  virtual void describe(Report &R) const = 0;
};

std::unique_ptr<Workload> makeCompileWorkload(const BenchOptions &O);
std::unique_ptr<Workload> makeBatchWorkload(const BenchOptions &O);
std::unique_ptr<Workload> makeServeWorkload(const BenchOptions &O);
std::unique_ptr<Workload> makeTenantsWorkload(const BenchOptions &O);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
