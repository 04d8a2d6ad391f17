//===-- driver/Batch.h - Parallel variant factory ----------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel variant factory: compile once, diversify-and-verify many.
/// The paper's security argument rests on shipping *many* diversified
/// variants of one program ("massive-scale automated software
/// diversity", Section 1); this is the batch engine that produces a
/// population of verified variants from a seed list, saturating cores
/// via support::ThreadPool.
///
/// Determinism contract: makeVariantsBatch(P, Pipe, Opts, Seeds, BOpts)
/// returns the *same* BatchResult.Variants (byte-identical images,
/// identical stats, identical accepted seeds) for every BOpts.Jobs
/// value, under any pipeline, because each variant is a pure function
/// of (P, Pipe, Opts, its seed) -- workers share only the immutable
/// Program, the batch's baseline run cache (once_flag-filled), and the
/// process-wide run memo (mexec/RunMemo.h, one mutex-guarded table), and
/// construct all other mutable state (the variant copy of the MIR, the
/// per-variant Rng, interpreter state) privately. tests/BatchTest.cpp
/// pins this; the TSan CI job proves the sharing is race-free.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_DRIVER_BATCH_H
#define PGSD_DRIVER_BATCH_H

#include "driver/Driver.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace driver {

/// Configuration of one batch run.
struct BatchOptions {
  /// Worker threads; 0 means support::ThreadPool::defaultConcurrency().
  /// Jobs == 1 runs inline on the calling thread (the true serial
  /// baseline the throughput bench compares against).
  unsigned Jobs = 0;

  /// Per-variant verification configuration (battery, retry budget,
  /// fault-injection seam). VerifyOptions::InjectFault, when set, is
  /// invoked concurrently from workers and must be thread-safe.
  verify::VerifyOptions Verify;

  /// Link options for every variant (and any baseline fallback).
  codegen::LinkOptions Link;
};

/// Aggregated result of one batch run.
struct BatchResult {
  /// One entry per input seed, in seed-list order regardless of Jobs or
  /// scheduling (workers write disjoint slots of a pre-sized vector).
  std::vector<VerifiedVariant> Variants;

  unsigned Jobs = 0;           ///< Worker count actually used.
  uint64_t Accepted = 0;       ///< Variants that passed verification.
  uint64_t Rejected = 0;       ///< Fell back to the baseline image.
  uint64_t Retried = 0;        ///< Needed more than one attempt.
  uint64_t TotalAttempts = 0;  ///< Variant builds across all seeds.
  /// Baseline differential runs served from the shared
  /// verify::BaselineCache (vs. computed). Across a healthy batch,
  /// Fills stays at most battery-size while Hits grows with
  /// executed attempts x inputs: the baseline executes once per input,
  /// not once per variant attempt.
  uint64_t BaselineCacheHits = 0;
  uint64_t BaselineCacheFills = 0;
  /// Attempts whose differential execution mir::equalModuloNops settled
  /// without running (every NOP-only variant). They consult no cache
  /// entry, so Hits + Fills == (attempts reaching differential
  /// execution - DiffIdentical) x battery size.
  uint64_t DiffIdentical = 0;
  /// Worker exceptions the pool dropped because another task's exception
  /// was already pending rethrow: wait() surfaces only the first, so a
  /// nonzero count here is the only trace that *more than one* seed's
  /// pipeline blew up concurrently. Always 0 on the Jobs == 1 inline
  /// path (no pool, every exception propagates directly).
  uint64_t SuppressedExceptions = 0;
  double WallSeconds = 0.0;    ///< Wall-clock time of the batch.
  double CpuSeconds = 0.0;     ///< Process CPU time of the batch.

  /// True when every seed produced a verified diversified variant.
  bool allAccepted() const { return Rejected == 0; }

  /// Verified variants per wall-clock second.
  double variantsPerSecond() const {
    return WallSeconds > 0.0
               ? static_cast<double>(Variants.size()) / WallSeconds
               : 0.0;
  }
};

/// Produces one verified variant per seed in \p Seeds under transform
/// pipeline \p Pipe, fanning makeVariantVerified across \p BOpts.Jobs
/// workers. \p P is shared read-only by all workers and must outlive the
/// call; it is never mutated (compile and profile it *before* batching).
BatchResult makeVariantsBatch(const Program &P,
                              const diversity::Pipeline &Pipe,
                              const diversity::DiversityOptions &Opts,
                              const std::vector<uint64_t> &Seeds,
                              const BatchOptions &BOpts = BatchOptions());

} // namespace driver
} // namespace pgsd

#endif // PGSD_DRIVER_BATCH_H
