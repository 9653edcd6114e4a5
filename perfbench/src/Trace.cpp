//===- Trace.cpp - Span sink, self time and Chrome trace export -----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

namespace {

uint32_t threadNumber() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Number = Next.fetch_add(1);
  return Number;
}

} // namespace

std::string perfbench::jsonEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

void Tracer::record(std::string Name, uint64_t StartNs, uint64_t EndNs,
                    uint64_t Id, uint64_t Parent, uint64_t RequestId) {
  if (!Enabled)
    return;
  Span S{std::move(Name), StartNs, std::max(StartNs, EndNs), Id, Parent,
         RequestId, threadNumber()};
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

std::map<std::string, std::vector<uint64_t>>
perfbench::selfTimesNs(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, std::vector<const Span *>> Children;
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent].push_back(&S);

  std::map<std::string, std::vector<uint64_t>> Self;
  for (const Span &S : Spans) {
    // Union of the children's intervals, clipped to [Start, End).
    std::vector<std::pair<uint64_t, uint64_t>> Covered;
    auto It = Children.find(S.Id);
    if (It != Children.end())
      for (const Span *C : It->second) {
        uint64_t Lo = std::max(C->StartNs, S.StartNs);
        uint64_t Hi = std::min(C->EndNs, S.EndNs);
        if (Lo < Hi)
          Covered.emplace_back(Lo, Hi);
      }
    std::sort(Covered.begin(), Covered.end());
    uint64_t CoveredNs = 0;
    uint64_t RunLo = 0, RunHi = 0;
    bool InRun = false;
    for (const auto &[Lo, Hi] : Covered) {
      if (InRun && Lo <= RunHi) {
        RunHi = std::max(RunHi, Hi);
        continue;
      }
      if (InRun)
        CoveredNs += RunHi - RunLo;
      RunLo = Lo;
      RunHi = Hi;
      InRun = true;
    }
    if (InRun)
      CoveredNs += RunHi - RunLo;
    Self[S.Name].push_back(S.EndNs - S.StartNs - CoveredNs);
  }
  return Self;
}

bool perfbench::writeChromeTrace(const std::vector<Span> &Spans,
                                 const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  uint64_t Epoch = UINT64_MAX;
  for (const Span &S : Spans)
    Epoch = std::min(Epoch, S.StartNs);
  std::fprintf(File, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool First = true;
  for (const Span &S : Spans) {
    std::fprintf(File,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                 First ? "" : ",", jsonEscape(S.Name).c_str(), S.Thread,
                 static_cast<double>(S.StartNs - Epoch) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.RequestId));
    First = false;
  }
  std::fprintf(File, "\n]}\n");
  return std::fclose(File) == 0;
}
