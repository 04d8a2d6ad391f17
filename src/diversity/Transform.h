//===-- diversity/Transform.h - Composable transform pipeline ----*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One interface over every diversifying transform -- NOP insertion,
/// block shifting, schedule randomization, register shuffling -- and a
/// Pipeline that composes an ordered list of them under a single seed.
///
/// Seed-stream contract (pinned by the entropy regression tests):
///
///  * A single-transform pipeline consumes the historical stream of that
///    transform byte-for-byte: {nop} draws from Rng(Seed) and {shift}
///    from Rng(Seed ^ 0xb10c), the streams NOP insertion and block
///    shifting were seeded with before the pipeline existed. Historical
///    seed walks therefore reproduce under the pipeline.
///  * Every other case -- multi-transform lists and the history-free
///    {sched}/{regs} singletons -- gives the transform of kind K the
///    decorrelated sub-stream Rng(Seed).split(1 + K). Streams depend on
///    the kind, not the list position, so reordering the list changes
///    composition order without resampling every transform.
///
/// Profile budget: each transform receives the DiversityOptions budget
/// (model, pmin/pmax) and the profile counts stamped on the module, and
/// gates itself: NOP insertion per instruction, the scheduler per block,
/// block shifting and register shuffling not at all (the former is
/// jumped over, the latter is free at runtime).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_DIVERSITY_TRANSFORM_H
#define PGSD_DIVERSITY_TRANSFORM_H

#include "diversity/NopInsertion.h"
#include "diversity/RegShuffle.h"
#include "diversity/Sched.h"
#include "lir/MIR.h"
#include "support/Rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pgsd {
namespace diversity {

/// The transforms, in their --transforms spelling order. The enum value
/// is the stable sub-stream id of the seed contract; appending new
/// transforms never perturbs existing streams.
enum class TransformKind : uint8_t {
  Nop = 0, ///< Probabilistic NOP insertion (Algorithm 1).
  Shift,   ///< Basic-block shifting (Section 6).
  Sched,   ///< Intra-block schedule randomization.
  Regs,    ///< Callee-saved register-allocation shuffling.
};

/// Number of transform kinds (for sweep loops).
inline constexpr unsigned NumTransformKinds = 4;

/// Returns the stable lowercase name ("nop", "shift", "sched", "regs").
const char *transformKindName(TransformKind K);

/// Parses a comma-separated --transforms list ("nop,sched"). Rejects
/// unknown names, duplicates, and the empty list; on failure returns
/// false, leaves \p Out untouched, and describes the problem in
/// \p Error (when non-null).
bool parseTransformList(const std::string &Text,
                        std::vector<TransformKind> &Out,
                        std::string *Error = nullptr);

/// Per-transform counters of one pipeline run. Transforms absent from
/// the pipeline leave their slice zeroed.
struct PipelineStats {
  InsertionStats Nop;
  BlockShiftStats Shift;
  SchedStats Sched;
  RegShuffleStats Regs;
};

/// One diversifying transform. Implementations are stateless singletons
/// (transformFor); every per-run input arrives through apply().
class Transform {
public:
  virtual ~Transform() = default;

  virtual TransformKind kind() const = 0;

  /// The stable lowercase name, also the obs metric family infix
  /// (diversity.<name>.*).
  const char *name() const { return transformKindName(kind()); }

  /// Applies the transform to \p M in place, drawing randomness from
  /// \p Generator and gating by the \p Opts budget against the profile
  /// counts stamped on \p M. Accumulates into this transform's slice of
  /// \p Stats and exports diversity.<name>.* counters when telemetry is
  /// enabled.
  virtual void apply(mir::MModule &M, Rng &Generator,
                     const DiversityOptions &Opts,
                     PipelineStats &Stats) const = 0;

  /// As apply(), but reads \p In and writes the result to \p Out,
  /// replacing it (\p Out must not be \p In). The default copies \p In
  /// and applies in place; NOP insertion writes each block once from
  /// \p In instead, so the first transform of a pipeline never copies
  /// the baseline only to rewrite it.
  virtual void applyTo(const mir::MModule &In, mir::MModule &Out,
                       Rng &Generator, const DiversityOptions &Opts,
                       PipelineStats &Stats) const {
    Out = In;
    apply(Out, Generator, Opts, Stats);
  }
};

/// Returns the singleton transform of kind \p K.
const Transform &transformFor(TransformKind K);

/// An ordered transform list applied under one seed stream.
class Pipeline {
public:
  /// The default pipeline is the paper's: NOP insertion only.
  Pipeline() : Kinds{TransformKind::Nop} {}
  explicit Pipeline(std::vector<TransformKind> List)
      : Kinds(std::move(List)) {}

  const std::vector<TransformKind> &kinds() const { return Kinds; }
  bool contains(TransformKind K) const;

  /// Short label like "nop+sched" for reports.
  std::string label() const;

  /// Builds the variant of \p Baseline: applies every transform in list
  /// order under the seed-stream contract (see file comment), the first
  /// one reading \p Baseline and writing the returned module. Fills
  /// \p Stats when given.
  mir::MModule run(const mir::MModule &Baseline, const DiversityOptions &Opts,
                   uint64_t Seed, PipelineStats *Stats = nullptr) const;

private:
  std::vector<TransformKind> Kinds;
};

} // namespace diversity
} // namespace pgsd

#endif // PGSD_DIVERSITY_TRANSFORM_H
