/// \file holix_server_main.cpp
/// \brief Standalone Holix network server: loads a synthetic table and
/// serves it over the wire protocol until SIGINT/SIGTERM, then shuts down
/// cleanly (drains in-flight queries) and exits 0.
///
///   holix_server [--port N] [--mode adaptive|holistic|...] [--rows N]
///                [--attrs N] [--threads N] [--io-threads N]
///                [--seed N] [--metrics-port N]
///                [--data-dir PATH] [--fsync always|interval|never]
///                [--checkpoint-interval SECONDS]
///
/// `--threads N` sets the hardware contexts per query. The crack kernel is
/// not configurable: large pieces crack morsel-parallel across those
/// contexts, everything else with the SIMD tier picked by CPUID.
///
/// `--port 0` (the default) binds an ephemeral port; the chosen port is
/// printed as `listening on 127.0.0.1:<port>` so scripts (CI's server
/// smoke step) can parse it.
///
/// Durability: `--data-dir PATH` attaches the persist layer. When PATH
/// already holds a manifest the server *recovers* from it (snapshot + WAL
/// replay + cracker warm-start; the synthetic load is skipped) and prints
/// `recovered from <path> (lsn ...)`; otherwise the freshly loaded table
/// is checkpointed once so the directory becomes recoverable. `--fsync`
/// picks the WAL policy (default always), `--checkpoint-interval N` cuts a
/// background checkpoint every N seconds, and SIGUSR2 forces one on
/// demand.
///
/// Observability: `--metrics-port N` serves `GET /metrics` (Prometheus
/// text exposition) over plain HTTP on the same event loop (`--metrics-port
/// 0` stays disabled; the bound port is printed as `metrics on ...`).
/// SIGUSR1 prints a one-page human-readable telemetry snapshot to stdout
/// without disturbing service, and shutdown prints a final summary line.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "engine/database.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "persist/persistence.h"
#include "workload/workload.h"
#include "server/server.h"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump{false};
std::atomic<bool> g_checkpoint{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

void HandleDumpSignal(int) { g_dump.store(true, std::memory_order_release); }

void HandleCheckpointSignal(int) {
  g_checkpoint.store(true, std::memory_order_release);
}

holix::ExecMode ParseMode(const std::string& name) {
  using holix::ExecMode;
  for (ExecMode m : {ExecMode::kScan, ExecMode::kOffline, ExecMode::kOnline,
                     ExecMode::kAdaptive, ExecMode::kStochastic,
                     ExecMode::kCCGI, ExecMode::kHolistic}) {
    if (name == holix::ExecModeName(m)) return m;
  }
  std::fprintf(stderr, "unknown mode '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  holix::ExecMode mode = holix::ExecMode::kAdaptive;
  size_t rows = 1u << 18;
  size_t attrs = 4;
  size_t threads = 2;
  size_t io_threads = 2;
  uint64_t seed = 1907;
  uint16_t metrics_port = 0;
  bool metrics_http = false;
  std::string data_dir;
  holix::persist::FsyncPolicy fsync = holix::persist::FsyncPolicy::kAlways;
  double checkpoint_interval = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--mode") {
      mode = ParseMode(next());
    } else if (arg == "--rows") {
      rows = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--attrs") {
      attrs = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--threads") {
      threads = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--io-threads") {
      io_threads = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--metrics-port") {
      metrics_port = static_cast<uint16_t>(std::atoi(next()));
      metrics_http = true;
    } else if (arg == "--data-dir") {
      data_dir = next();
    } else if (arg == "--fsync") {
      const std::string name = next();
      if (auto p = holix::persist::FsyncPolicyFromString(name)) {
        fsync = *p;
      } else {
        std::fprintf(stderr, "unknown fsync policy '%s' (always|interval|never)\n",
                     name.c_str());
        return 2;
      }
    } else if (arg == "--checkpoint-interval") {
      checkpoint_interval = std::atof(next());
    } else {
      std::fprintf(stderr,
                   "usage: holix_server [--port N] [--mode M] [--rows N] "
                   "[--attrs N] [--threads N] [--io-threads N] "
                   "[--seed N] [--metrics-port N] "
                   "[--data-dir PATH] [--fsync always|interval|never] "
                   "[--checkpoint-interval SECONDS]\n");
      return arg == "--help" ? 0 : 2;
    }
  }

  holix::DatabaseOptions opts;
  opts.mode = mode;
  opts.user_threads = threads;
  holix::Database db(opts);
  std::unique_ptr<holix::persist::PersistenceManager> persistence;
  holix::persist::PersistOptions popts;
  popts.data_dir = data_dir;
  popts.fsync = fsync;
  popts.checkpoint_interval_seconds = checkpoint_interval;
  if (!data_dir.empty() && holix::persist::HasManifest(data_dir)) {
    // Warm start: snapshot + WAL replay + re-crack at the saved pivots.
    // The synthetic load is skipped — the data is whatever was durable.
    persistence =
        std::make_unique<holix::persist::PersistenceManager>(db, popts);
    std::printf("recovered from %s (lsn %llu, mode=%s)\n", data_dir.c_str(),
                static_cast<unsigned long long>(persistence->recovered_lsn()),
                holix::ExecModeName(mode));
  } else {
    holix::LoadUniformTable(db, "r", attrs, rows, /*domain=*/int64_t{1} << 30,
                            seed);
    // One genuine double attribute beside the integer ones, so socket
    // clients can exercise the typed f64 scalar path (e.g. `sum r d0 ...`
    // from holix_cli prints a double).
    db.LoadColumn<double>(
        "r", "d0",
        holix::GenerateUniformDoubleColumn(rows, int64_t{1} << 30, seed + 97));
    std::printf("loaded table r: %zu attrs x %zu rows + double d0 (mode=%s)\n",
                attrs, rows, holix::ExecModeName(mode));
    if (!data_dir.empty()) {
      persistence =
          std::make_unique<holix::persist::PersistenceManager>(db, popts);
      const uint64_t lsn = persistence->Checkpoint();
      std::printf("checkpointed load to %s (lsn %llu)\n", data_dir.c_str(),
                  static_cast<unsigned long long>(lsn));
    }
  }

  holix::net::ServerOptions server_opts;
  server_opts.port = port;
  server_opts.io_threads = io_threads;
  server_opts.metrics_http = metrics_http;
  server_opts.metrics_port = metrics_port;
  holix::net::HolixServer server(db, server_opts);
  server.Start();
  std::printf("listening on 127.0.0.1:%u\n", server.port());
  if (server.metrics_port() != 0) {
    std::printf("metrics on http://127.0.0.1:%u/metrics\n",
                server.metrics_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  std::signal(SIGUSR2, HandleCheckpointSignal);
  while (!g_stop.load(std::memory_order_acquire)) {
    if (g_dump.exchange(false, std::memory_order_acq_rel)) {
      // One-page operator snapshot on demand; service is undisturbed (the
      // snapshot is the same lock-free read the wire path uses).
      std::printf("%s", holix::obs::HumanText(db.MetricsSnapshot()).c_str());
      std::fflush(stdout);
    }
    if (persistence != nullptr &&
        g_checkpoint.exchange(false, std::memory_order_acq_rel)) {
      const uint64_t lsn = persistence->Checkpoint();
      std::printf("checkpoint cut at lsn %llu\n",
                  static_cast<unsigned long long>(lsn));
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf(
      "shutting down: %llu connections (peak %llu open), %llu requests\n",
      static_cast<unsigned long long>(server.TotalConnections()),
      static_cast<unsigned long long>(server.PeakConnections()),
      static_cast<unsigned long long>(server.TotalRequests()));
  server.Stop();
  std::printf("clean shutdown\n");
  return 0;
}
