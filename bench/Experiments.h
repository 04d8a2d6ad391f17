//===-- bench/Experiments.h - The paper's evaluation, as rows ---*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One function per evaluation artifact: Figure 4, Tables 1-3, the
/// Section 5.2 case study, the Section 3.1 heuristic ablation, and three
/// extensions (transform combos, the nvx fault sensor, the workload
/// suite report). Each takes its workloads and variant count and returns
/// rows; `bench/reproduce` prints them at paper size and
/// tests/EndToEndTest.cpp asserts their shape at reduced size, so every
/// number has exactly one code path.
///
/// Independent programs (and, where a row has several, independent
/// cells) run on a support::ThreadPool of \p Jobs workers (0 = all
/// cores). Every task writes its own slot and rows are reduced in suite
/// order, so results do not depend on \p Jobs or on scheduling.
///
/// A workload that fails to compile or train, a diversified variant that
/// diverges from its baseline, and a failed self-check (the prover
/// refuting a combo variant, an unrunnable nvx corruption accepted at
/// load) throw std::runtime_error, which reaches the caller. When several
/// pooled cells throw, the caller gets the first in cell order (suite
/// order for per-workload cells), whatever the scheduling. Verdicts a caller gates on (Table 1
/// verification, attack feasibility, nvx detection) are returned as data.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_BENCH_EXPERIMENTS_H
#define PGSD_BENCH_EXPERIMENTS_H

#include "diversity/NopInsertion.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pgsd {
namespace experiments {

/// One named insertion configuration.
struct Config {
  std::string Label;
  diversity::DiversityOptions Opts;
};

/// The paper's five Figure 4 configurations, in column order.
std::vector<Config> paperConfigs();

//===--- Figure 4 ---------------------------------------------------------===//

struct Figure4Row {
  std::string Name;
  std::vector<double> OverheadPct; ///< Mean slowdown % per paperConfigs().
  bool operator==(const Figure4Row &) const = default;
};

struct Figure4 {
  std::vector<Figure4Row> Rows;   ///< Suite order.
  std::vector<double> GeomeanPct; ///< Geometric-mean slowdown % per config.
  bool operator==(const Figure4 &) const = default;
};

/// Profiles each workload on its train input, builds \p Variants
/// variants (seeds 1..N) per configuration, and measures their cycle
/// slowdown on the ref input against the undiversified baseline.
Figure4 figure4(const std::vector<workloads::Workload> &Suite,
                unsigned Variants, unsigned Jobs = 0);

//===--- Table 1 ----------------------------------------------------------===//

struct Table1Row {
  std::string Mnemonic;
  std::string Encoding;   ///< Hex bytes, e.g. "8B E4".
  std::string SecondByte; ///< What the second byte decodes to alone.
  bool Verified = false;  ///< The decoder agrees with both claims.
  bool LocksBus = false;  ///< XCHG forms, excluded by default.
};

/// The NOP candidate table, each row checked live against the decoder:
/// the full encoding is one state-preserving instruction, and its second
/// byte decodes to what the paper claims (IN / SS: / AAS).
std::vector<Table1Row> table1();

//===--- Table 2 ----------------------------------------------------------===//

struct Table2Row {
  std::string Name;
  uint64_t Baseline = 0;              ///< Gadgets in the baseline image.
  std::vector<double> MeanSurvivors;  ///< Per paperConfigs().
  /// pNOP=0-30% survivors relative to pNOP=50% survivors, minus one, %.
  double extraPct() const;
  /// pNOP=0-30% survivors as a share of the baseline's gadgets, %.
  double survivingPct() const;
  bool operator==(const Table2Row &) const = default;
};

/// Mean Survivor count over \p Variants variants per configuration,
/// rows sorted by baseline gadget count like the paper's table.
std::vector<Table2Row> table2(const std::vector<workloads::Workload> &Suite,
                              unsigned Variants, unsigned Jobs = 0);

//===--- Table 3 ----------------------------------------------------------===//

/// The paper's 2/5/12-of-25 thresholds, scaled to \p Versions.
std::vector<unsigned> paperThresholds(unsigned Versions);

struct Table3Row {
  std::string Name;
  /// Counts[Config][Threshold]: gadget identities present in at least
  /// that many of the versions.
  std::vector<std::vector<uint64_t>> Counts;
  bool operator==(const Table3Row &) const = default;
};

struct Table3 {
  std::vector<Table3Row> Rows; ///< Suite order.
  /// Gadgets of the undiversified C-runtime stub (from the first row's
  /// first version): the floor of the highest threshold.
  uint64_t StubGadgets = 0;
  bool operator==(const Table3 &) const = default;
};

Table3 table3(const std::vector<workloads::Workload> &Suite,
              unsigned Versions, const std::vector<unsigned> &Thresholds,
              unsigned Jobs = 0);

/// The Section 5.2 fix for Table 3's floor: gadgets in at least
/// \p Threshold of \p Versions pNOP=0-30% versions of \p W, with the
/// fixed stub and with a freshly diversified stub per version.
struct StubFloor {
  uint64_t Fixed = 0;
  uint64_t Diversified = 0;
};
StubFloor stubFloor(const workloads::Workload &W, unsigned Versions,
                    unsigned Threshold);

//===--- Section 5.2 case study ------------------------------------------===//

struct CaseStudyRow {
  std::string Script;
  double MeanSurvivors = 0.0;
  unsigned RopFeasible = 0;   ///< Versions attackable, ROPgadget model.
  unsigned MicroFeasible = 0; ///< Versions attackable, microgadgets model.
};

struct CaseStudy {
  std::string Interpreter;
  size_t TextBytes = 0; ///< Baseline .text size.
  bool BaseRopFeasible = false;
  bool BaseMicroFeasible = false;
  std::vector<CaseStudyRow> Rows; ///< One per script, in order.
};

/// Profiles the PHP-like interpreter on each script, builds \p Versions
/// pNOP=0-30% versions per profile, and re-runs both attack models on
/// each version's surviving gadgets.
CaseStudy caseStudy(const std::vector<workloads::PhpScript> &Scripts,
                    unsigned Versions, unsigned Jobs = 0);

//===--- Section 3.1 heuristic ablation ----------------------------------===//

struct SpreadRow {
  std::string Name;
  uint64_t XMax = 0;       ///< Hottest block count.
  uint64_t Median = 0;     ///< Median over nonzero block counts.
  double PLinearPct = 0.0; ///< p(median) under the linear heuristic.
  double PLogPct = 0.0;    ///< p(median) under the log heuristic.
};

struct HeuristicRow {
  std::string Name;
  diversity::ProbabilityModel Model = diversity::ProbabilityModel::Log;
  double Nops = 0.0;        ///< Mean NOPs inserted.
  double SlowdownPct = 0.0; ///< Mean slowdown on the ref input.
  double Survivors = 0.0;   ///< Mean Survivor count.
};

struct Ablation {
  std::vector<SpreadRow> Spread;         ///< Suite order.
  std::vector<HeuristicRow> Heuristics;  ///< Linear then log, per workload.
  /// Seed-1 pNOP=30% slowdown of the last workload with the five default
  /// candidates and with the two bus-locking XCHG forms added.
  double PlainOverheadPct = 0.0;
  double XchgOverheadPct = 0.0;
};

/// Execution-count spread and linear-vs-log consequences at
/// pNOP=10-50% (mean of \p Variants variants), plus the XCHG ablation on
/// the last workload of \p Suite.
Ablation ablation(const std::vector<workloads::Workload> &Suite,
                  unsigned Variants, unsigned Jobs = 0);

//===--- Transform combos (extension) ------------------------------------===//

struct ComboRow {
  std::string Label;
  uint64_t Variants = 0;
  // Baseline quantities are accumulated once per variant (not per
  // workload) so the ratios weight every variant equally.
  uint64_t BaselineGadgets = 0;
  uint64_t SurvivingGadgets = 0;
  uint64_t BaselineBytes = 0;
  uint64_t VariantBytes = 0;
  double DiversifyWall = 0.0; ///< Pipeline + link seconds, all variants.

  double survivalRate() const;
  double sizeOverhead() const;
  double msPerVariant() const;
};

/// Every single transform and every pairwise combo at pNOP=0-30%,
/// \p Variants seeds per workload; every variant is re-proved
/// equivalent by the translation validator (a refutation throws).
std::vector<ComboRow>
transformCombos(const std::vector<workloads::Workload> &Suite,
                unsigned Variants, unsigned Jobs = 0);

//===--- nvx fault sensor (extension) ------------------------------------===//

struct NvxClassRow {
  std::string Class;
  uint64_t Injections = 0;     ///< Eligible injection sites found.
  uint64_t LoadRejected = 0;   ///< Failed mir::verify; rejected at load.
  uint64_t Inert = 0;          ///< Runnable, battery-indistinguishable.
  uint64_t Active = 0;         ///< Runnable, behaviour differs on battery.
  uint64_t SingleDetected = 0; ///< Active runs trapping standalone.
  uint64_t NvxDetected = 0;    ///< Active runs flagged by divergence.
  /// Some workload where every active corruption of this class ran
  /// silently in a single variant yet divergence caught all of them.
  bool HasSilentCell = false;
};

struct NvxOverheadRow {
  unsigned K = 0;
  uint64_t Rounds = 0;
  double WallSeconds = 0.0;
  double CpuSeconds = 0.0;
};

struct NvxSensor {
  unsigned Replicas = 0;
  std::vector<NvxClassRow> Classes; ///< One per MIR fault class.
  uint64_t Denominator = 0;         ///< Active + load-rejected runs.
  uint64_t Detected = 0;
  /// Lockstep cost for K in {1,2,3,5} on the first workload.
  std::vector<NvxOverheadRow> Overhead;

  double rate() const;
  bool hasSilentClass() const;
};

/// Injects each MIR fault class \p SeedsPerClass times per workload into
/// one replica of a K=3 majority-vote lockstep session and compares
/// divergence detection with single-variant trapping.
NvxSensor nvxSensor(const std::vector<workloads::Workload> &Suite,
                    unsigned SeedsPerClass, unsigned Jobs = 0);

//===--- Workload suite report --------------------------------------------===//

struct SuiteRow {
  std::string Name;
  size_t TextBytes = 0;
  size_t Gadgets = 0;
  uint64_t DynInstructions = 0;
  uint64_t XMax = 0;
  uint64_t Median = 0;
  double Cycles = 0.0;
  bool VariantMatches = false; ///< A pNOP=50% variant kept the checksum.
};

/// Static and dynamic properties the evaluation depends on, per
/// workload, plus a one-variant semantic check.
std::vector<SuiteRow> suiteReport(const std::vector<workloads::Workload> &Suite,
                                  unsigned Jobs = 0);

} // namespace experiments
} // namespace pgsd

#endif // PGSD_BENCH_EXPERIMENTS_H
