#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace hb {

using holix::obs::HistogramSnapshot;
using holix::obs::MetricsSnapshot;

double Rng::LogUniform(double lo, double hi) {
  return lo * std::pow(hi / lo, Unit());
}

Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

uint64_t StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string k(key);
  while (std::getline(in, line)) {
    if (line.compare(0, k.size(), k) == 0) {
      return std::stoull(line.substr(k.size())) * 1024;
    }
  }
  return 0;
}

}  // namespace

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the kernel's peak-RSS mark to the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t CurrentRssBytes() { return StatusKb("VmRSS:"); }
uint64_t PeakRssBytes() { return StatusKb("VmHWM:"); }

// --- Spans -------------------------------------------------------------------

int32_t SpanLog::Open(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  const auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, Now(), 0, current_, thread_, request});
  current_ = id;
  return id;
}

void SpanLog::Close(int32_t id) {
  if (id < 0) return;
  spans_[id].end = Now();
  current_ = spans_[id].parent;
}

std::vector<double> SpanLog::Durations(const char* name, size_t from) const {
  std::vector<double> out;
  const std::string n(name);
  for (size_t i = from; i < spans_.size(); ++i) {
    if (n == spans_[i].name) out.push_back(spans_[i].end - spans_[i].start);
  }
  return out;
}

void WriteTraceFile(const std::string& path,
                    const std::vector<TraceRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"repetitions\": [\n");
  for (size_t r = 0; r < records.size(); ++r) {
    const TraceRecord& rec = records[r];
    const double t0 = rec.marks.empty() ? 0 : rec.marks.front().at;
    std::fprintf(f, "{\"label\": \"%s\",\n \"spans\": [", rec.label.c_str());
    bool first = true;
    for (const SpanLog& log : rec.logs) {
      for (const Span& s : log.spans()) {
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": "
                     "%.9f, \"parent\": %d, \"thread\": %u, \"request\": %llu}",
                     first ? "" : ",", s.name, s.start - t0, s.end - t0,
                     s.parent, s.thread,
                     static_cast<unsigned long long>(s.request));
        first = false;
      }
    }
    std::fprintf(f, "],\n \"phases\": [");
    for (size_t i = 1; i < rec.marks.size(); ++i) {
      const PhaseMark& a = rec.marks[i - 1];
      const PhaseMark& b = rec.marks[i];
      std::fprintf(f, "%s\n  {\"phase\": \"%s\", \"seconds\": %.9f, "
                   "\"counter_deltas\": {",
                   i == 1 ? "" : ",", b.phase.c_str(), b.at - a.at);
      bool first_counter = true;
      for (const auto& [name, value] : b.snap.counters) {
        const uint64_t d = value - a.snap.CounterValue(name);
        if (d == 0) continue;
        std::string escaped;
        for (char c : name) {
          if (c == '"') escaped += '\\';
          escaped += c;
        }
        std::fprintf(f, "%s\"%s\": %llu", first_counter ? "" : ", ",
                     escaped.c_str(), static_cast<unsigned long long>(d));
        first_counter = false;
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "]}%s\n", r + 1 == records.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// --- Registry deltas ---------------------------------------------------------

uint64_t CounterDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                      const std::string& name) {
  return b.CounterValue(name) - a.CounterValue(name);
}

HistogramSnapshot HistogramDelta(const MetricsSnapshot& a,
                                 const MetricsSnapshot& b,
                                 const std::string& prefix) {
  HistogramSnapshot out;
  auto add = [&](const MetricsSnapshot& s, int sign) {
    for (const HistogramSnapshot& h : s.histograms) {
      if (h.name.compare(0, prefix.size(), prefix) != 0) continue;
      if (out.bounds.empty()) {
        out.bounds = h.bounds;
        out.counts.assign(h.counts.size(), 0);
      }
      if (h.bounds != out.bounds) continue;
      for (size_t i = 0; i < h.counts.size(); ++i) {
        out.counts[i] += sign * static_cast<int64_t>(h.counts[i]);
      }
      out.sum += sign * h.sum;
    }
  };
  add(b, +1);
  add(a, -1);
  return out;
}

double HistogramQuantile(const HistogramSnapshot& h, double q) {
  const uint64_t total = h.Total();
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (c > 0 && seen + c >= rank) {
      const double lo = i == 0 ? 0 : h.bounds[i - 1];
      const double hi = i < h.bounds.size() ? h.bounds[i] : lo;
      return lo + (hi - lo) * (rank - seen) / c;
    }
    seen += c;
  }
  return h.bounds.empty() ? 0 : h.bounds.back();
}

double GaugeSum(const MetricsSnapshot& s, const std::string& prefix) {
  double sum = 0;
  for (const auto& [name, value] : s.gauges) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += value;
  }
  return sum;
}

// --- Per-layer table ---------------------------------------------------------

namespace {

/// Every per-layer metric, with its unit, in print order. BENCHMARK.json
/// lists the same names.
const std::vector<std::pair<std::string, std::string>>& LayerTable() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"engine.execute_us_p50", "us"},
      {"engine.execute_us_p99", "us"},
      {"engine.planner_probe", "count"},
      {"engine.planner_merge", "count"},
      {"engine.query_s_sum", "s"},
      {"cracking.cracks", "count"},
      {"cracking.bytes_moved_per_query", "bytes"},
      {"cracking.scan_bytes_per_query", "bytes"},
      {"cracking.pieces_end", "count"},
      {"cracking.latch_failures", "count"},
      {"cracking.morsel_steals", "count"},
      {"cracking.recovery_bytes_moved", "bytes"},
      {"holistic.activations", "count"},
      {"holistic.refinements", "count"},
      {"holistic.worker_cracks", "count"},
      {"holistic.crack_yield", "ratio"},
      {"holistic.busy_s", "s"},
      {"holistic.idle_used_frac", "ratio"},
      {"holistic.retirements", "count"},
      {"holistic.distance_bytes_end", "bytes"},
      {"storage.ripple_merged_inserts", "count"},
      {"storage.ripple_merged_deletes", "count"},
      {"server.rtt_us_sum", "us"},
      {"server.non_engine_share", "ratio"},
      {"server.sharedscan_requests", "count"},
      {"server.sharedscan_batches", "count"},
      {"server.sharedscan_batch_mean", "ratio"},
      {"server.admission_skips", "count"},
      {"server.outbox_bytes_per_request", "bytes"},
      {"persist.checkpoint_s", "s"},
      {"persist.checkpoint_bytes", "bytes"},
      {"persist.checkpoint_mb_per_s", "MB/s"},
      {"persist.wal_records", "count"},
      {"persist.wal_fsyncs", "count"},
      {"persist.wal_bytes_per_record", "bytes"},
      {"persist.wal_append_us_p50", "us"},
      {"persist.recovery_s", "s"},
      {"persist.replayed_records", "count"},
      {"persist.recovery_pivots", "count"},
      {"persist.recovery_columns", "count"},
      {"persist.disk_bytes_per_user_byte", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return kTable;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void RegistryLayers(LayerValues& out, const MetricsSnapshot& a,
                    const MetricsSnapshot& b, double queries) {
  auto d = [&](const char* name) {
    return static_cast<double>(CounterDelta(a, b, name));
  };
  out["engine.planner_probe"] = d("holix_planner_probe_total");
  out["engine.planner_merge"] = d("holix_planner_merge_total");
  out["engine.query_s_sum"] = HistogramDelta(a, b, "holix_query_seconds").sum;
  out["cracking.cracks"] = d("holix_cracks_total");
  out["cracking.bytes_moved_per_query"] =
      Ratio(d("holix_crack_bytes_moved_total"), queries);
  out["cracking.scan_bytes_per_query"] =
      Ratio(d("holix_scan_bytes_total"), queries);
  out["cracking.pieces_end"] = b.GaugeValue("holix_index_pieces");
  out["cracking.latch_failures"] = d("holix_latch_failures_total");
  out["cracking.morsel_steals"] = d("holix_crack_morsel_steals_total");
  out["holistic.activations"] = d("holix_holistic_activations_total");
  out["holistic.refinements"] = d("holix_holistic_refinements_total");
  out["holistic.worker_cracks"] = d("holix_holistic_worker_cracks_total");
  out["holistic.crack_yield"] =
      Ratio(out["holistic.worker_cracks"], out["holistic.refinements"]);
  out["holistic.retirements"] = d("holix_holistic_retirements_total");
  out["holistic.distance_bytes_end"] =
      GaugeSum(b, "holix_holistic_distance_bytes");
  out["storage.ripple_merged_inserts"] = d("holix_ripple_merged_inserts_total");
  out["storage.ripple_merged_deletes"] = d("holix_ripple_merged_deletes_total");
  out["server.sharedscan_requests"] = d("holix_sharedscan_requests_total");
  out["server.sharedscan_batches"] = d("holix_sharedscan_batches_total");
  out["server.sharedscan_batch_mean"] = Ratio(
      out["server.sharedscan_requests"], out["server.sharedscan_batches"]);
  out["server.admission_skips"] = d("holix_batch_admission_skips_total");
  out["base.outbox_bytes"] = d("holix_server_outbox_bytes_total");
  out["base.server_requests"] = d("holix_server_requests_total");
  out["server.outbox_bytes_per_request"] =
      Ratio(out["base.outbox_bytes"], out["base.server_requests"]);
  out["base.queries"] = queries;
}

void FinishTraced(Report& report, const Args& args,
                  const std::vector<LayerValues>& reps,
                  const std::vector<double>& traced_run_s,
                  const std::vector<double>& untraced_run_s,
                  const std::vector<TraceRecord>& traces) {
  auto median = [&](const std::string& name) {
    std::vector<double> v;
    for (const LayerValues& r : reps) {
      const auto it = r.find(name);
      v.push_back(it == r.end() ? 0 : it->second);
    }
    return Median(v);
  };
  for (const auto& [name, unit] : LayerTable()) {
    report.layers[name] = median(name);
  }
  // Every ratio is printed with its base (medians over the same traced
  // repetitions).
  const LayerValues& L = report.layers;
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  auto& notes = report.layer_notes;
  const std::string per_query = "per query, " + num(median("base.queries")) +
                                " queries per repetition";
  notes["cracking.bytes_moved_per_query"] = per_query;
  notes["cracking.scan_bytes_per_query"] = per_query;
  notes["holistic.crack_yield"] =
      "worker_cracks / refinements = " + num(L.at("holistic.worker_cracks")) +
      " / " + num(L.at("holistic.refinements"));
  notes["holistic.idle_used_frac"] =
      "busy_s / idle core-s = " + num(L.at("holistic.busy_s")) + " / " +
      num(median("base.idle_core_s"));
  notes["server.non_engine_share"] =
      "(rtt - engine) / rtt; rtt " + num(L.at("server.rtt_us_sum") / 1e6) +
      " s, engine " + num(L.at("engine.query_s_sum")) + " s";
  notes["server.sharedscan_batch_mean"] =
      "requests / batches = " + num(L.at("server.sharedscan_requests")) +
      " / " + num(L.at("server.sharedscan_batches"));
  notes["server.outbox_bytes_per_request"] =
      "outbox bytes / requests = " + num(median("base.outbox_bytes")) + " / " +
      num(median("base.server_requests"));
  notes["persist.checkpoint_mb_per_s"] =
      "checkpoint_bytes / checkpoint_s = " +
      num(L.at("persist.checkpoint_bytes")) + " B / " +
      num(L.at("persist.checkpoint_s")) + " s";
  notes["persist.wal_bytes_per_record"] =
      "WAL bytes / records = " + num(median("base.wal_bytes")) + " / " +
      num(L.at("persist.wal_records"));
  notes["persist.disk_bytes_per_user_byte"] =
      "data dir bytes / user bytes = " + num(median("base.disk_bytes")) +
      " / " + num(median("base.user_bytes"));

  const double traced = Median(traced_run_s);
  const double untraced = Median(untraced_run_s);
  report.layers["trace.overhead_frac"] = Ratio(traced, untraced) - 1;
  notes["trace.overhead_frac"] = "traced run_s " + num(traced) +
                                 " s vs untraced " + num(untraced) + " s";
  WriteTraceFile(args.out_dir + "/trace-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".json",
                 traces);
}

namespace {

void PrintMetricLine(const char* kind, const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  std::printf("# %-6s %-34s %16.6f %-6s %s\n", kind, name.c_str(), value,
              unit.c_str(), note.c_str());
}

/// 0 for a layer metric not computed (a run that stopped early).
double LayerValue(const Report& report, const std::string& name) {
  const auto it = report.layers.find(name);
  return it == report.layers.end() ? 0 : it->second;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintReport(const Report& report, bool trace) {
  const double failed_frac =
      Ratio(static_cast<double>(report.failed),
            static_cast<double>(report.attempted));
  for (const Metric& m : report.end_to_end) {
    PrintMetricLine("e2e", m.name, m.value, m.unit, m.note);
  }
  for (const Metric& m : report.info) {
    PrintMetricLine("e2e", m.name, m.value, m.unit, m.note);
  }
  PrintMetricLine("e2e", "failed_frac", failed_frac, "ratio",
                  std::string("(") + std::to_string(report.failed) + " of " +
                      std::to_string(report.attempted) + " ops)");
  if (trace) {
    for (const auto& [name, unit] : LayerTable()) {
      const auto note = report.layer_notes.find(name);
      PrintMetricLine("layer", name, LayerValue(report, name), unit,
                      note == report.layer_notes.end() ? "" : note->second);
    }
  }

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            JsonNumber(value) + ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const auto& [name, unit] : LayerTable()) {
      emit(name, LayerValue(report, name), unit);
    }
  } else {
    for (const Metric& m : report.end_to_end) emit(m.name, m.value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace hb
