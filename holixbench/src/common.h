/// \file common.h
/// \brief Shared pieces of the holixbench driver: the seeded generator the
/// inputs come from, timing and latency summaries, memory probes, the span
/// recorder of the traced mode, registry deltas, and the report.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hb {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< Self-test scale: same code paths, small inputs.
  std::string out_dir = ".bench_build/out";
};

/// splitmix64. The benchmark owns its generator so that its inputs depend
/// on the seed alone, never on code under src/.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Log-uniform in [lo, hi).
  double LogUniform(double lo, double hi);

 private:
  uint64_t s_;
};

/// Ranks in [0, n) with probability proportional to 1 / (rank + 1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Monotonic wall clock in seconds.
double Now();

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Hands freed heap back to the kernel and restarts its peak-RSS mark, so
/// that PeakRssBytes() - CurrentRssBytes() taken here measures what one
/// repetition of a workload allocated on top of the driver's own inputs.
void ResetPeakRss();
uint64_t CurrentRssBytes();
uint64_t PeakRssBytes();

// --- Traced mode -------------------------------------------------------------

/// One call from the driver into a layer of the system.
struct Span {
  const char* name;
  double start;
  double end;
  int32_t parent;  ///< Index of the enclosing span in the same log, or -1.
  uint32_t thread;
  uint64_t request;  ///< Operation number within the repetition.
};

/// Spans of one driver thread, kept in memory and written out at the end.
/// A disabled log records nothing; untraced runs use one.
class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t thread) : enabled_(enabled), thread_(thread) {}

  int32_t Open(const char* name, uint64_t request);
  void Close(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of the spans called \p name, from span index
  /// \p from on.
  std::vector<double> Durations(const char* name, size_t from = 0) const;

 private:
  bool enabled_;
  uint32_t thread_;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t request = 0)
      : log_(log), id_(log.Open(name, request)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int32_t id_;
};

/// A registry snapshot at a phase boundary of a traced repetition.
struct PhaseMark {
  std::string phase;
  double at;
  holix::obs::MetricsSnapshot snap;
};

/// Everything a traced repetition leaves behind for the trace file.
struct TraceRecord {
  std::string label;
  std::vector<SpanLog> logs;
  std::vector<PhaseMark> marks;
};

/// Writes spans and per-phase registry deltas as one JSON document.
void WriteTraceFile(const std::string& path,
                    const std::vector<TraceRecord>& records);

uint64_t CounterDelta(const holix::obs::MetricsSnapshot& a,
                      const holix::obs::MetricsSnapshot& b,
                      const std::string& name);
/// b - a, summed over every histogram whose name starts with \p prefix
/// (the per-mode label variants of one family).
holix::obs::HistogramSnapshot HistogramDelta(
    const holix::obs::MetricsSnapshot& a, const holix::obs::MetricsSnapshot& b,
    const std::string& prefix);
/// Quantile of a binned histogram, interpolated linearly inside the bin.
double HistogramQuantile(const holix::obs::HistogramSnapshot& h, double q);
double GaugeSum(const holix::obs::MetricsSnapshot& s,
                const std::string& prefix);

// --- Report ------------------------------------------------------------------

/// Per-layer values of one traced repetition, by metric name.
using LayerValues = std::map<std::string, double>;

/// Fills the per-layer metrics that come straight from registry deltas
/// between \p a and \p b (counts per query use \p queries as the base).
void RegistryLayers(LayerValues& out, const holix::obs::MetricsSnapshot& a,
                    const holix::obs::MetricsSnapshot& b, double queries);

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Sample count or the base of a ratio.
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Figures that apply to this workload only; printed, not in the JSON.
  std::vector<Metric> info;
  /// Per-layer medians over the traced repetitions.
  LayerValues layers;
  std::map<std::string, std::string> layer_notes;
};

/// Completes a traced run: the per-layer medians of \p reps with every name
/// of the per-layer table present (0 where the layer did no work), the
/// tracing overhead of the traced against the untraced repetitions, and the
/// trace file args.out_dir/trace-<workload>-seed<N>.json.
void FinishTraced(Report& report, const Args& args,
                  const std::vector<LayerValues>& reps,
                  const std::vector<double>& traced_run_s,
                  const std::vector<double>& untraced_run_s,
                  const std::vector<TraceRecord>& traces);

/// Prints the human-readable lines, then the one-line JSON result.
void PrintReport(const Report& report, bool trace);

}  // namespace hb
