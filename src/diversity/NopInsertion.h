//===-- diversity/NopInsertion.h - Profile-guided NOP insertion --*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: probabilistic NOP insertion on the
/// low-level representation, optionally modulated by per-basic-block
/// execution counts from profiling.
///
/// Algorithm 1 of the paper, per instruction:
///
/// \code
///   roll <- random(0.0, 1.0)
///   if roll < pNOP:
///     nopIndex <- random(0, numNOPs)
///     insert(i, NOPTable[nopIndex])
/// \endcode
///
/// Three probability models are provided:
///  * Uniform -- the paper's baseline: the same pNOP everywhere.
///  * Linear  -- pNOP(x) = pmax - (pmax - pmin) * x / xmax.
///  * Log     -- pNOP(x) = pmax - (pmax - pmin) * log(1+x) / log(1+xmax),
///    the heuristic the paper recommends because execution counts grow
///    exponentially with loop nesting (Section 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_DIVERSITY_NOPINSERTION_H
#define PGSD_DIVERSITY_NOPINSERTION_H

#include "lir/MIR.h"
#include "support/Rng.h"
#include "x86/Nops.h"

#include <array>
#include <cstdint>
#include <string>

namespace pgsd {
namespace diversity {

/// How the per-block insertion probability is derived.
enum class ProbabilityModel : uint8_t {
  Uniform, ///< pNOP = PMax for every block (no profile needed).
  Linear,  ///< Linear interpolation over execution counts.
  Log,     ///< Logarithmic interpolation (the paper's heuristic).
};

/// Configuration of the insertion pass.
struct DiversityOptions {
  ProbabilityModel Model = ProbabilityModel::Uniform;
  double PMin = 0.0; ///< Probability for the hottest block.
  double PMax = 0.5; ///< Probability for the coldest block.
  bool IncludeXchgNops = false; ///< Enable the bus-locking XCHG pair.

  /// Named presets matching the paper's Figure 4 configurations.
  static DiversityOptions uniform(double P);
  static DiversityOptions profiled(ProbabilityModel Model, double PMin,
                                   double PMax);

  /// Short label like "pNOP=50%" or "pNOP=10-50%" for reports.
  std::string label() const;
};

/// Counters reported by one run of the pass.
struct InsertionStats {
  uint64_t CandidateSites = 0; ///< Instructions considered.
  uint64_t NopsInserted = 0;
  /// Sites whose roll succeeded but whose drawn candidate was refused by
  /// the flag-effect screen (analysis::flagEffect != Neutral). Zero with
  /// the current all-neutral Table 1 candidate set; nonzero would mean a
  /// flag-unsafe candidate entered the table.
  uint64_t NopsRejected = 0;
  std::array<uint64_t, x86::NumNopKinds> PerKind{};

  /// Fraction of sites that received a NOP.
  double insertionRate() const {
    return CandidateSites == 0
               ? 0.0
               : static_cast<double>(NopsInserted) /
                     static_cast<double>(CandidateSites);
  }
};

/// pNOP over one module: the model of \p Opts against the module-wide
/// maximum count (the paper's x_max), with log(1 + x_max) taken once.
class NopProbability {
public:
  NopProbability(uint64_t MaxCount, const DiversityOptions &Opts);
  /// pNOP for a block with execution count \p Count (the paper's x).
  double operator()(uint64_t Count) const;

private:
  DiversityOptions Budget;
  uint64_t XMax;
  double LogXMax; ///< log(1 + XMax).
};

/// Computes pNOP for a block with execution count \p Count given the
/// module-wide maximum \p MaxCount (the paper's x and x_max).
double nopProbability(uint64_t Count, uint64_t MaxCount,
                      const DiversityOptions &Opts);

/// Runs Algorithm 1 over every instruction of \p Baseline and writes the
/// variant to \p Out, drawing randomness from the caller-owned
/// \p Generator. Each block of \p Out is written once, straight from
/// the baseline's block: the draws for a block come first, so its
/// instructions are allocated at their final count. \p Out is replaced
/// whole (a moved-from module is fine) and must not be \p Baseline.
///
/// Profile-guided models read MBasicBlock::ProfileCount (stamped by
/// profile::applyCounts); with an all-zero profile every block receives
/// PMax, which matches the paper's observation that unprofiled code is
/// free to diversify maximally. Diversified builds reach this through
/// diversity::Pipeline, which seeds the stream (see Transform.h).
InsertionStats insertNops(const mir::MModule &Baseline, mir::MModule &Out,
                          const DiversityOptions &Opts, Rng &Generator);

/// Counters reported by the block-shifting pass.
struct BlockShiftStats {
  uint64_t FunctionsShifted = 0;
  uint64_t PaddingInstrs = 0;
};

/// The complementary transformation sketched in the paper's Section 6:
/// "basic block shifting, which inserts a dummy basic block of random
/// size at the beginning of each function. If the function jumps over
/// the initial basic block of NOPs, its performance impact should be
/// minimal. However, its presence should prevent the attacker from
/// exploiting the low diversity at the beginning of the binary."
///
/// Each function entry becomes `jmp L; <1..MaxPadding random NOPs>; L:`,
/// displacing every later instruction of the function by a random
/// amount at a cost of one executed jump per call. Run it before
/// insertNops so the (cold) pad block also receives NOP diversity.
/// Randomness comes from the caller-owned \p Generator, as for
/// insertNops.
BlockShiftStats insertBlockShift(mir::MModule &M, Rng &Generator,
                                 unsigned MaxPadding = 12,
                                 bool IncludeXchgNops = false);

} // namespace diversity
} // namespace pgsd

#endif // PGSD_DIVERSITY_NOPINSERTION_H
