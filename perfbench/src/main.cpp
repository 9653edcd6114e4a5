//===- main.cpp - Benchmark entry point -----------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints its report (see Common.h for the line
/// protocol). Normally started by perfbench/run.py, which builds it and
/// turns the report into the benchmark's result line:
///
///   spnc_perfbench --workload compile|batch|serve|tenants --seed N
///                  --seconds S --trace 0|1 [--models-dir D] [--work-dir D]
///                  [--trace-file F]
///
/// Untraced (--trace 0): setup runs several times (setup_s is the
/// median), then the workload measures for --seconds and reports its
/// end-to-end metrics. Traced (--trace 1): half the time is measured
/// untraced and half with spans recorded; per-layer metrics come from
/// the traced half, and trace.overhead_frac compares the two halves.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Stats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr,
               "spnc_perfbench: %s\nusage: spnc_perfbench --workload "
               "compile|batch|serve|tenants --seed N --seconds S --trace "
               "0|1 [--models-dir D] [--work-dir D] [--trace-file F]\n",
               Message);
  std::exit(2);
}

BenchOptions parseArgs(int Argc, char **Argv) {
  BenchOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::atof(Value);
    else if (Flag == "--trace")
      O.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--models-dir")
      O.ModelsDir = Value;
    else if (Flag == "--work-dir")
      O.WorkDir = Value;
    else if (Flag == "--trace-file")
      O.TraceFile = Value;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  return O;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions O = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W;
  if (O.Workload == "compile")
    W = makeCompileWorkload(O);
  else if (O.Workload == "batch")
    W = makeBatchWorkload(O);
  else if (O.Workload == "serve")
    W = makeServeWorkload(O);
  else if (O.Workload == "tenants")
    W = makeTenantsWorkload(O);
  else
    usage("unknown workload");

  Report R;
  try {
    std::filesystem::create_directories(O.WorkDir);
    Tracer Off(false);
    Tracer On(O.Trace);
    // Set-up is CPU-bound, deterministic work, so like compile and batch
    // it is reported at the reference speed of the machine (see
    // referenceWorkMs), timed around every set-up.
    std::vector<double> SetupSeconds, RefMs{referenceWorkMs()};
    for (unsigned I = 0; I < O.SetupRepeats; ++I) {
      // The last set-up of a traced run is traced (frontend spans).
      Tracer &T = I + 1 == O.SetupRepeats ? On : Off;
      uint64_t Begin = nowNs();
      W->setup(T);
      SetupSeconds.push_back(static_cast<double>(nowNs() - Begin) / 1e9);
      RefMs.push_back(referenceWorkMs());
    }
    R.e2e("setup_s", median(SetupSeconds), "s");
    R.e2e("setup_s_at_ref",
          median(SetupSeconds) * kNominalReferenceMs / median(RefMs), "s");

    if (!O.Trace) {
      W->measure(O.Seconds, Off, R);
    } else {
      double Untraced = W->measure(O.Seconds / 2, Off, R);
      double Traced = W->measure(O.Seconds / 2, On, R);
      std::vector<Span> Spans = On.spans();
      W->reportLayers(Spans, R);
      R.layer("trace.overhead_frac", Untraced > 0 ? Traced / Untraced - 1 : 0,
              "fraction");
      R.layer("trace.spans", static_cast<double>(Spans.size()), "count");
      if (!O.TraceFile.empty() && !writeChromeTrace(Spans, O.TraceFile))
        std::fprintf(stderr, "spnc_perfbench: cannot write %s\n",
                     O.TraceFile.c_str());
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "spnc_perfbench: %s\n", E.what());
    return 1;
  }

  W->describe(R);
  R.prov("workload", jsonString(O.Workload));
  R.prov("seed", std::to_string(O.Seed));
  R.prov("seconds", std::to_string(O.Seconds));
  R.prov("nproc", std::to_string(std::thread::hardware_concurrency()));
  R.prov("cpu_model", jsonString(cpuModel()));
  R.prov("compiler", jsonString(PERFBENCH_COMPILER));
  R.prov("build_type", jsonString(PERFBENCH_BUILD_TYPE));
  R.print();
  return R.correct() ? 0 : 3;
}
