//===- Trace.h - In-memory spans of the traced benchmark run ---*- C++ -*-===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark's own code around calls into the
/// library's public API (loadModel, getOrCompile, execute, submit,
/// future completion). Spans stay in memory while the run measures and
/// are written as Chrome trace-event JSON when it ends; per-layer self
/// times are derived from them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Unique, non-zero.
  uint64_t Id = 0;
  /// Id of the span that caused this one; 0 for a root span.
  uint64_t Parent = 0;
  /// Spans of one request (or one compile) share this id; 0 if none.
  uint64_t RequestId = 0;
  /// Small per-thread number, for the trace viewer's lanes.
  uint32_t Thread = 0;
};

/// Thread-safe span sink. A disabled tracer records nothing and hands
/// out id 0, so untraced runs pay one branch per span site.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }

  /// A fresh span id (0 when disabled).
  uint64_t newId() { return Enabled ? NextId.fetch_add(1) : 0; }

  /// Records a finished span with id \p Id (from newId()).
  void record(std::string Name, uint64_t StartNs, uint64_t EndNs,
              uint64_t Id, uint64_t Parent = 0, uint64_t RequestId = 0);

  /// Records a finished span under a fresh id and returns the id.
  uint64_t recordNew(std::string Name, uint64_t StartNs, uint64_t EndNs,
                     uint64_t Parent, uint64_t RequestId) {
    uint64_t Id = newId();
    record(std::move(Name), StartNs, EndNs, Id, Parent, RequestId);
    return Id;
  }

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

private:
  bool Enabled;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// Times a scope as one span. Its id is reserved at construction so
/// child spans can name it as their parent before it ends.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Parent = 0,
             uint64_t RequestId = 0)
      : T(T), Name(Name), Parent(Parent), RequestId(RequestId),
        Id(T.newId()), StartNs(T.enabled() ? nowNs() : 0) {}
  ~ScopedSpan() {
    if (T.enabled())
      T.record(Name, StartNs, nowNs(), Id, Parent, RequestId);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return Id; }

private:
  Tracer &T;
  const char *Name;
  uint64_t Parent;
  uint64_t RequestId;
  uint64_t Id;
  uint64_t StartNs;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped
/// to the parent). Keyed by span name, one entry per span instance.
std::map<std::string, std::vector<uint64_t>>
selfTimesNs(const std::vector<Span> &Spans);

/// Writes \p Spans as Chrome trace-event JSON ("X" complete events,
/// microsecond timestamps relative to the earliest span) to \p Path.
/// Returns false when the file cannot be written.
bool writeChromeTrace(const std::vector<Span> &Spans,
                      const std::string &Path);

/// \p Text escaped for a JSON string (ASCII): quote and backslash are
/// escaped, control characters dropped.
std::string jsonEscape(const std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
