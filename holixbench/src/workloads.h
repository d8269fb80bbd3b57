/// \file workloads.h
/// \brief The three workloads of the benchmark and the repetition schedule
/// they share.

#pragma once

#include "common.h"

namespace hb {

/// Runs rep(index, traced) until args.seconds have passed and at least
/// \p min_reps repetitions ran. In traced mode repetitions alternate
/// untraced / traced, at least two of each, so the traced run can state its
/// own overhead against untraced repetitions of the same process.
template <typename Fn>
void Repeat(const Args& args, int min_reps, Fn&& rep) {
  const double start = Now();
  for (int i = 0;; ++i) {
    const bool enough = args.trace ? i % 2 == 0 && i >= 4 : i >= min_reps;
    if (enough && Now() - start >= args.seconds) {
      break;
    }
    rep(i, args.trace && i % 2 == 1);
  }
}

/// The paper's experiment: one in-process session, cold indexes, holistic
/// workers on the idle contexts.
Report RunExplore(const Args& args);
/// Steady serving over loopback TCP with writes beside reads.
Report RunServe(const Args& args);
/// Checkpoint, durable writes, crash, warm recovery, replay.
Report RunRestart(const Args& args);

}  // namespace hb
