// Plumbing shared by the benchmark's workloads: run options, wall-clock
// stamps, the in-memory span recorder and the JSON result document that
// perfbench/run.py reads back.
//
// A workload records raw observations (one entry per solve or request,
// counters, probe timings, check verdicts); the statistics — medians,
// percentiles, self times, rates — are computed by run.py, where their
// arithmetic is unit-tested.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string outPath;    // result document (JSON)
  std::string tracePath;  // Chrome trace-event JSON, written when traced
  std::string dataDir;    // perfbench/data
};

/// Monotonic wall-clock seconds (the program's steady clock source).
[[nodiscard]] double now();

/// Peak resident set of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peakRssMb();

/// FNV-1a hash of a double vector's bytes, as 16 hex digits: the bitwise
/// identity of a solution.
[[nodiscard]] std::string hashHex(const std::vector<double>& values);


/// Builds one JSON object field by field. Values are rendered when set;
/// non-finite numbers become null.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& count(const std::string& key, std::uint64_t value);
  JsonObject& flag(const std::string& key, bool value);
  JsonObject& text(const std::string& key, const std::string& value);
  /// `json` must already be a rendered JSON value.
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const;

 private:
  std::string body_;
};

/// Renders already-rendered JSON values as an array.
[[nodiscard]] std::string jsonArray(const std::vector<std::string>& items);
[[nodiscard]] std::string jsonNumbers(const std::vector<double>& values);

/// Named pass/fail verdicts of the workload's own correctness checks.
class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::string> items_;
};

/// Spans recorded around calls into the program, kept in memory and
/// written once as Chrome trace-event JSON (loads in Perfetto). A span
/// names its parent span and the operation (solve or request) it belongs
/// to; timestamps are seconds on now()'s clock.
class SpanRecorder {
 public:
  /// Records a finished span and returns its id (ids start at 1; parent 0
  /// is "no parent"). `derived` marks a span whose duration the program
  /// reported and whose placement inside its parent the recorder chose.
  std::uint64_t add(const std::string& name, double start, double end,
                    std::uint64_t op, std::uint64_t parent = 0,
                    bool derived = false);
  void write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t op = 0;
    std::uint64_t parent = 0;
    bool derived = false;
  };
  std::vector<Span> spans_;
};

/// Wall seconds of each of `reps` back-to-back calls of `fn`, each also
/// recorded as a span named `name`.
template <typename F>
std::vector<double> timeReps(int reps, SpanRecorder& spans, const char* name,
                             F&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    fn();
    const double t1 = now();
    spans.add(name, t0, t1, 0);
    times.push_back(t1 - t0);
  }
  return times;
}

/// Workload entry points: fill `doc` with the run's observations and, when
/// `spans` is non-null (a traced run), record spans into it.
void runMxpSolve(const Options& options, JsonObject& doc,
                 SpanRecorder* spans);
void runServeZipf(const Options& options, JsonObject& doc,
                  SpanRecorder* spans);
void runFleetsimFrontier(const Options& options, JsonObject& doc,
                         SpanRecorder* spans);

}  // namespace perfbench
