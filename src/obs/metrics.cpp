#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/env.h"

namespace holix::obs {

size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
  return stripe;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  if (bounds_.size() > kMaxHistogramBins - 1) {
    bounds_.resize(kMaxHistogramBins - 1);
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

void TraceRing::Push(QueryTrace t) {
  std::lock_guard<std::mutex> lk(mu_);
  t.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(t);
  } else {
    ring_[t.seq % capacity_] = t;
  }
}

void TraceRing::SnapshotInto(std::vector<QueryTrace>* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  out->clear();
  out->reserve(ring_.size());
  const uint64_t first = next_seq_ > ring_.size() ? next_seq_ - ring_.size() : 0;
  for (uint64_t seq = first; seq < next_seq_; ++seq) {
    out->push_back(ring_[seq % capacity_]);
  }
}

MetricsRegistry::MetricsRegistry()
    : slow_bits_(std::bit_cast<uint64_t>(
          EnvDouble("HOLIX_SLOW_QUERY_MS", 100.0) / 1000.0)) {}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();  // never destroyed
  return *g;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.emplace_back(name, c->Value());
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.emplace_back(name, g->Value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot hs;
      hs.name = name;
      hs.bounds = h->bounds();
      hs.counts.resize(hs.bounds.size() + 1);
      for (size_t i = 0; i < hs.counts.size(); ++i) {
        hs.counts[i] = h->BinCount(i);
      }
      hs.sum = h->Sum();
      snap.histograms.push_back(std::move(hs));
    }
  }
  traces_.SnapshotInto(&snap.traces);
  return snap;
}

// --- Trace scope -------------------------------------------------------------

namespace {
thread_local QueryTrace* g_current_trace = nullptr;
}  // namespace

QueryTrace* CurrentQueryTrace() { return g_current_trace; }

TraceScope::TraceScope(QueryTrace* t) : prev_(g_current_trace) {
  g_current_trace = t;
}

TraceScope::~TraceScope() { g_current_trace = prev_; }

namespace {
const std::vector<double> kLatencyBounds = {
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1,  0.25,   0.5,  1.0,  2.5,    5.0,  10.0};
}  // namespace

void RecordQueryDone(QueryTrace& t, const char* mode_name) {
  auto& reg = MetricsRegistry::Global();
  // Per-mode series are cached by ExecMode ordinal; registration (with its
  // mutex and string build) happens once per mode per process.
  static std::array<std::atomic<Counter*>, 16> count_slots{};
  static std::array<std::atomic<Histogram*>, 16> hist_slots{};
  const size_t slot = t.mode % count_slots.size();
  Counter* qc = count_slots[slot].load(std::memory_order_acquire);
  if (qc == nullptr) {
    qc = &reg.GetCounter(std::string("holix_queries_total{mode=\"") +
                         mode_name + "\"}");
    count_slots[slot].store(qc, std::memory_order_release);
  }
  Histogram* qh = hist_slots[slot].load(std::memory_order_acquire);
  if (qh == nullptr) {
    qh = &reg.GetHistogram(std::string("holix_query_seconds{mode=\"") +
                               mode_name + "\"}",
                           kLatencyBounds);
    hist_slots[slot].store(qh, std::memory_order_release);
  }
  qc->Inc();
  qh->Observe(t.latency_seconds);
  t.slow = t.latency_seconds >= reg.slow_query_seconds();
  if (t.slow) {
    static Counter& slow = reg.GetCounter("holix_slow_queries_total");
    slow.Inc();
  }
  reg.traces().Push(t);
}

void ObserveStage(QueryStage stage, double seconds) {
  // In QueryStage order; registered once per process.
  static constexpr const char* kNames[] = {"plan", "drive", "sort", "probe",
                                           "materialize"};
  static const std::array<Histogram*, std::size(kNames)> stages = [] {
    std::array<Histogram*, std::size(kNames)> h{};
    for (size_t i = 0; i < h.size(); ++i) {
      h[i] = &MetricsRegistry::Global().GetHistogram(
          std::string("holix_stage_seconds{stage=\"") + kNames[i] + "\"}",
          kLatencyBounds);
    }
    return h;
  }();
  stages[static_cast<size_t>(stage)]->Observe(seconds);
}

// --- Formatters --------------------------------------------------------------

namespace {

/// Formats a double the way Prometheus text exposition expects, using the
/// shortest representation that round-trips (so a 1e-5 bucket bound prints
/// as "1e-05", not "1.0000000000000001e-05").
std::string Num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Splits `base{labels}` into its parts; labels comes back empty when the
/// name carries none.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);  // strip {}
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snap) {
  std::ostringstream os;
  std::string prev_base;
  for (const auto& [name, v] : snap.counters) {
    std::string base, labels;
    SplitName(name, &base, &labels);
    if (base != prev_base) {
      os << "# TYPE " << base << " counter\n";
      prev_base = base;
    }
    os << name << " " << v << "\n";
  }
  prev_base.clear();
  for (const auto& [name, v] : snap.gauges) {
    std::string base, labels;
    SplitName(name, &base, &labels);
    if (base != prev_base) {
      os << "# TYPE " << base << " gauge\n";
      prev_base = base;
    }
    os << name << " " << Num(v) << "\n";
  }
  prev_base.clear();
  for (const HistogramSnapshot& h : snap.histograms) {
    std::string base, labels;
    SplitName(h.name, &base, &labels);
    if (base != prev_base) {
      os << "# TYPE " << base << " histogram\n";
      prev_base = base;
    }
    const std::string comma = labels.empty() ? "" : labels + ",";
    uint64_t cum = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.counts[i];
      os << base << "_bucket{" << comma << "le=\"" << Num(h.bounds[i])
         << "\"} " << cum << "\n";
    }
    cum += h.counts.back();
    os << base << "_bucket{" << comma << "le=\"+Inf\"} " << cum << "\n";
    const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
    os << base << "_sum" << suffix << " " << Num(h.sum) << "\n";
    os << base << "_count" << suffix << " " << cum << "\n";
  }
  return os.str();
}

std::string HumanText(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "== holix metrics ==\n";
  os << "-- counters --\n";
  for (const auto& [name, v] : snap.counters) {
    os << "  " << name << " = " << v << "\n";
  }
  os << "-- gauges --\n";
  for (const auto& [name, v] : snap.gauges) {
    os << "  " << name << " = " << Num(v) << "\n";
  }
  os << "-- histograms --\n";
  for (const HistogramSnapshot& h : snap.histograms) {
    const uint64_t total = h.Total();
    os << "  " << h.name << ": count=" << total << " sum=" << Num(h.sum);
    if (total > 0) os << " avg=" << Num(h.sum / static_cast<double>(total));
    os << "\n";
  }
  if (!snap.traces.empty()) {
    os << "-- recent queries (" << snap.traces.size() << ") --\n";
    // The page stays one page: print the newest few plus any slow ones.
    const size_t tail = std::min<size_t>(snap.traces.size(), 8);
    for (size_t i = snap.traces.size() - tail; i < snap.traces.size(); ++i) {
      const QueryTrace& t = snap.traces[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  #%" PRIu64
                    " mode=%u preds=%u probe=%u "
                    "pieces+=%u scanned=%" PRIu64 "B %.3fms%s\n",
                    t.seq, static_cast<unsigned>(t.mode),
                    static_cast<unsigned>(t.predicates), t.probe_filters,
                    t.pieces_created, t.bytes_scanned,
                    t.latency_seconds * 1e3, t.slow ? " SLOW" : "");
      os << line;
    }
  }
  return os.str();
}

std::string MetricsJson(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << "\""
       << JsonEscape(snap.counters[i].first)
       << "\": " << snap.counters[i].second;
  }
  os << "\n  },\n  \"gauges\": {";
  size_t emitted = 0;
  for (const auto& [name, v] : snap.gauges) {
    if (std::isnan(v) || std::isinf(v)) continue;  // not valid JSON numbers
    os << (emitted++ ? ",\n    " : "\n    ") << "\"" << JsonEscape(name)
       << "\": " << Num(v);
  }
  os << "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    os << (i ? ",\n    " : "\n    ") << "\"" << JsonEscape(h.name)
       << "\": {\"count\": " << h.Total() << ", \"sum\": " << Num(h.sum)
       << "}";
  }
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace holix::obs
