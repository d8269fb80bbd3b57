/// \file main.cpp
/// \brief holixbench: runs one named workload against the engine and prints
/// its metrics. Usage:
///
///   holixbench --workload explore|serve|restart --seed N --seconds S
///              --trace 0|1 [--scale full|tiny] [--out-dir DIR]
///
/// With --trace 0 the last stdout line is a JSON object holding the
/// end-to-end metrics; with --trace 1 it holds the per-layer metrics of
/// traced repetitions, and spans plus per-phase registry deltas are written
/// to DIR/trace-<workload>-seed<N>.json. The exit code is 0 only when every
/// answer matched the oracle.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include <malloc.h>

#include "workloads.h"

namespace {

hb::Args Parse(int argc, char** argv) {
  hb::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--scale") {
      if (v != "full" && v != "tiny") throw std::invalid_argument("--scale " + v);
      a.tiny = v == "tiny";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed threshold keeps every large column in its own mapping, so a
  // freed repetition returns its memory and the next one's peak RSS starts
  // from the driver's own footprint.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const hb::Args args = Parse(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    hb::Report report;
    if (args.workload == "explore") {
      report = hb::RunExplore(args);
    } else if (args.workload == "serve") {
      report = hb::RunServe(args);
    } else if (args.workload == "restart") {
      report = hb::RunRestart(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    hb::PrintReport(report, args.trace);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "holixbench: %s\n", e.what());
    return 2;
  }
}
