/// \file crack_config.h
/// \brief Per-call configuration of cracking behaviour.

#pragma once

#include <cstddef>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {

/// Options carried by select operators and holistic workers into the
/// cracker column. Plain value type: cheap to copy per call.
///
/// There is no kernel knob: every crack is a two-way partition, and the
/// column picks the kernel from what it can observe — payload-aligned
/// columns use the scalar kernel (it co-moves payload rows), a `pool` with
/// `parallel_threads > 1` the morsel-parallel kernel, anything else the
/// SIMD kernel (whose portable tier is the out-of-place kernel).
struct CrackConfig {
  /// Pool used by parallel cracks (not owned). May be shared.
  ThreadPool* pool = nullptr;

  /// Threads per parallel crack (the morsel worker count of Figure 4);
  /// 1 keeps every crack single-threaded.
  size_t parallel_threads = 1;

  /// Pieces smaller than this fall back to the single-threaded SIMD kernel
  /// even when a parallel crack is possible.
  size_t min_parallel_piece = 1u << 16;

  /// Rows per morsel; 0 derives ~one L2 worth of (value, rowid) pairs.
  size_t morsel_rows = 0;

  /// Stochastic cracking (PVSDC [21,44]): before cracking the target piece
  /// at the query bound, repeatedly crack it at data-driven random pivots
  /// while it is larger than `stochastic_min_piece`.
  bool stochastic = false;

  /// RNG for stochastic pivots (not owned; required when stochastic).
  Rng* rng = nullptr;

  /// Stop stochastic pre-cracking below this piece size.
  size_t stochastic_min_piece = 1u << 14;
};

}  // namespace holix
