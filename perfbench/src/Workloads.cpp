//===-- perfbench/src/Workloads.cpp - The four benchmark workloads ---------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Every workload runs the same three phases:
//
//  1. set-up, repeated SetupReps times (median reported as setup_s);
//  2. a closed loop of whole rounds until --seconds of wall time have
//     passed, each timed unit followed by one host-reference slice, with
//     the output checks after each unit and outside its timing;
//  3. the quality probe (untraced runs) or the traced round (traced
//     runs).
//
// A round covers every program of the suite once, so partial rounds
// never bias the program mix of a run.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "driver/Batch.h"
#include "gadget/Scanner.h"
#include "serve/Server.h"
#include "serve/VariantStore.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Time.h"
#include "verify/BaselineCache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

using namespace pgsd;
using namespace pgsd::perfbench;

namespace fs = std::filesystem;

namespace {

constexpr unsigned SetupReps = 3;
constexpr unsigned Jobs = 2;
constexpr unsigned BatchSeedsPerProgram = 8;
constexpr unsigned ServeRequestsPerProgram = 24;
constexpr unsigned GadgetVersions = 25;
constexpr unsigned ProbeSeeds = 1;
/// Index of pNOP=0-30% in paperConfigs(): the paper's recommended
/// configuration and the one the quality metrics are pinned to.
constexpr size_t HeadlineConfig = 4;

/// Span names the benchmark records around its calls; each gets a
/// self.<name>.ms per-layer metric (mean self time per call).
const char *const SpanNames[] = {
    "bench.setup",
    "bench.op",
    "driver.compileProgram",
    "driver.profileAndStamp",
    "driver.makeVariant",
    "driver.makeVariantsBatch",
    "driver.makeVariantVerified",
    "driver.execute",
    "serve.serveVariants",
    "serve.makeVariantKey",
    "serve.VariantStore.load",
    "serve.VariantStore.publish",
    "gadget.survivingGadgetsMulti",
    "gadget.gadgetsInAtLeast",
};

/// Per-layer metrics (name, unit), printed by the traced run.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> L = [] {
  std::vector<std::pair<std::string, std::string>> Names = {
      {"frontend.ms_per_program", "ms"},
      {"passes.ms_per_program", "ms"},
      {"lir.ms_per_program", "ms"},
      {"analysis.baseline_ms_per_program", "ms"},
      {"profile.ms_per_program", "ms"},
      {"diversity.ms_per_variant", "ms"},
      {"diversity.nops_per_variant", "count"},
      {"codegen.link_ms_per_variant", "ms"},
      {"codegen.text_kb_per_variant", "KiB"},
      {"analysis.check_ms_per_attempt", "ms"},
      {"equiv.prove_ms_per_attempt", "ms"},
      {"verify.diff_exec_ms_per_attempt", "ms"},
      {"verify.image_ms_per_attempt", "ms"},
      {"verify.structure_ms_per_attempt", "ms"},
      {"verify.profile_ms_per_attempt", "ms"},
      {"verify.attempts_per_variant", "count"},
      {"verify.baseline_fill_ms", "ms"},
      {"verify.baseline_hit_ratio", "ratio"},
      {"mexec.minstr_per_op", "Minstr"},
      {"mexec.mips", "Minstr/s"},
      {"mexec.ms_per_run", "ms"},
      {"gadget.survivor_ms_per_version", "ms"},
      {"gadget.multi_ms_per_config", "ms"},
      {"gadget.mb_scanned_per_s", "MB/s"},
      {"gadget.decoded_frac", "ratio"},
      {"serve.key_ms", "ms"},
      {"serve.store_load_ms", "ms"},
      {"serve.publish_ms", "ms"},
      {"serve.fill_service_ms", "ms"},
      {"serve.admission_wait_ms", "ms"},
      {"serve.queue_peak_depth", "count"},
      {"serve.baseline_prewarmed", "count"},
      {"serve.hit_p50_ms", "ref-ms"},
      {"serve.hit_p95_ms", "ref-ms"},
      {"serve.hit_samples", "count"},
      {"serve.fill_p50_ms", "ref-ms"},
      {"serve.fill_p95_ms", "ref-ms"},
      {"serve.fill_samples", "count"},
      {"driver.batch_busy_frac", "ratio"},
      {"driver.batch_setup_ms", "ms"},
      {"ops.fail_frac", "ratio"},
      {"host.ref_kernel_ms", "ms"},
      {"host.raw_ops_per_s", "1/s"},
      {"host.raw_setup_s", "s"},
      {"host.cpu_ms_per_op", "ms"},
      {"trace.overhead_pct", "%"},
  };
    for (const char *S : SpanNames)
      Names.emplace_back(std::string("self.") + S + ".ms", "ms");
    return Names;
  }();
  return L;
}

//===-- obs snapshot helpers -----------------------------------------------===//

double phaseSeconds(const obs::LocalMetrics &M, const std::string &Name) {
  auto It = M.Phases.find(Name);
  return It == M.Phases.end() ? 0.0 : It->second.WallSeconds;
}

uint64_t phaseCount(const obs::LocalMetrics &M, const std::string &Name) {
  auto It = M.Phases.find(Name);
  return It == M.Phases.end() ? 0 : It->second.Count;
}

uint64_t counter(const obs::LocalMetrics &M, const std::string &Name) {
  auto It = M.Counters.find(Name);
  return It == M.Counters.end() ? 0 : It->second;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// Runs \p Body(0..N-1) on Jobs workers (untimed helper work only).
void parallelFor(size_t N, const std::function<void(size_t)> &Body) {
  support::ThreadPool Pool(Jobs);
  for (size_t I = 0; I != N; ++I)
    Pool.enqueue([&Body, I] { Body(I); });
  Pool.wait();
}

/// Highest percentile (of 50, 90, 95, 99) with at least ten samples
/// beyond it; 0 when even the median has fewer.
double tailPercentile(size_t N) {
  double Best = 0.0;
  for (double P : {50.0, 90.0, 95.0, 99.0})
    if (static_cast<double>(N) * (1.0 - P / 100.0) >= 10.0)
      Best = P;
  return Best;
}

uint64_t textDigest(const std::vector<uint8_t> &Text) {
  return serve::fnv1a64(Text.data(), Text.size());
}

/// Output check shared by fig4_runtime and batch_verified: \p Got (a
/// variant run) must match \p Want (the baseline on the reference
/// engine).
void checkRun(const mexec::RunResult &Got, const mexec::RunResult &Want,
              const std::string &What, bool Corrupt) {
  const uint32_t WantSum = Want.Checksum ^ (Corrupt ? 1u : 0u);
  if (Got.Trapped || Got.Checksum != WantSum || Got.Output != Want.Output ||
      Got.ExitCode != Want.ExitCode)
    checkFailed(What + ": variant run differs from the reference-engine "
                       "baseline (checksum " +
                std::to_string(Got.Checksum) + " vs " +
                std::to_string(WantSum) + ")");
}

//===-- Workload base ------------------------------------------------------===//

class Workload {
public:
  explicit Workload(Context &Ctx) : C(Ctx) {}
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Set-up: compile and profile every program (plus workload extras).
  virtual void setUp(unsigned Reps) {
    Progs = setUpPrograms(C, Reps, SetupNorm, SetupRaw);
  }
  /// One round of timed units; bumps Ops/Failed and runs the checks.
  virtual void round(uint64_t R, RefClock &Clock) = 0;
  /// Traced run only, before its rounds: measures what the per-layer
  /// metrics need outside the rounds.
  virtual void prepareTrace() {}
  /// Zeroes what round() accumulates.
  virtual void resetCounters() {
    Ops = 0;
    Failed = 0;
  }
  /// Per-layer metrics taken from the untraced round of a traced run.
  virtual void untracedLayers(std::map<std::string, double> &) const {}
  /// Workload-specific per-layer metrics of the traced round.
  virtual void layers(std::map<std::string, double> &,
                      const obs::LocalMetrics &,
                      const std::map<std::string, Tracer::Totals> &) {}

  Context &C;
  std::vector<BenchProgram> Progs;
  double SetupNorm = 0.0;
  double SetupRaw = 0.0;
  uint64_t Ops = 0;
  uint64_t Failed = 0;

protected:
  SeedStream roundStream(uint64_t R) const {
    return SeedStream(C.Seed).child(1000 + R);
  }
  /// True once per run for the check that the --corrupt seam targets.
  bool corruptOnce(const char *Kind) {
    if (C.Corrupt != Kind || Corrupted)
      return false;
    Corrupted = true;
    return true;
  }

private:
  bool Corrupted = false;
};

//===-- fig4_runtime -------------------------------------------------------===//

/// Figure 4 regeneration: one op builds a variant and runs it on the
/// ref input. Almost pure interpreter time, no verification.
class Fig4Runtime final : public Workload {
public:
  using Workload::Workload;

  void setUp(unsigned Reps) override {
    Workload::setUp(Reps);
    parallelFor(Progs.size(), [&](size_t I) { runOracleBaselines(Progs[I]); });
  }

  void round(uint64_t R, RefClock &Clock) override {
    SeedStream S = roundStream(R);
    for (size_t I = 0; I != Progs.size(); ++I) {
      BenchProgram &B = Progs[I];
      const PaperConfig &Cfg = Configs[(R + I) % Configs.size()];
      const uint64_t Seed = S.next();
      driver::Variant V;
      mexec::RunResult Run;
      C.T->beginOp();
      Clock.measure(*C.Ref, [&] {
        Tracer::Scope Op(*C.T, "bench.op");
        {
          Tracer::Scope Sp(*C.T, "driver.makeVariant");
          V = driver::makeVariant(B.P, Cfg.Opts, Seed);
        }
        Tracer::Scope Sp(*C.T, "driver.execute");
        Run = driver::execute(V.MIR, B.W->RefInput, /*CollectOutput=*/true);
      });
      ++Ops;
      checkRun(Run, B.RefRef, B.W->Name + " " + Cfg.Label,
               corruptOnce("checksum"));
      Instructions += Run.Instructions;
      TextBytes += V.Image.Text.size();
    }
  }

  void resetCounters() override {
    Workload::resetCounters();
    Instructions = 0.0;
    TextBytes = 0.0;
  }

  void layers(std::map<std::string, double> &L, const obs::LocalMetrics &,
              const std::map<std::string, Tracer::Totals> &Spans) override {
    const double ExecS = Spans.count("driver.execute")
                             ? Spans.at("driver.execute").Seconds
                             : 0.0;
    L["mexec.minstr_per_op"] = ratio(Instructions / 1e6, Ops);
    L["mexec.mips"] = ratio(Instructions / 1e6, ExecS);
    L["mexec.ms_per_run"] = ratio(ExecS * 1e3, Ops);
    L["codegen.text_kb_per_variant"] = ratio(TextBytes / 1024.0, Ops);
  }

private:
  const std::vector<PaperConfig> Configs = paperConfigs();
  double Instructions = 0.0;
  double TextBytes = 0.0;
};

//===-- gadget_tables ------------------------------------------------------===//

/// Tables 2-3 regeneration: per (program, config) unit, 25 versions are
/// built and linked, then swept by the Survivor and multi-version
/// scanners. One op is one version.
class GadgetTables final : public Workload {
public:
  using Workload::Workload;

  void round(uint64_t R, RefClock &Clock) override {
    SeedStream S = roundStream(R);
    gadget::ScanOptions Scan;
    Scan.Jobs = 1;
    for (size_t I = 0; I != Progs.size(); ++I) {
      BenchProgram &B = Progs[I];
      const PaperConfig &Cfg = Configs[(R + I) % Configs.size()];
      std::vector<uint64_t> Seeds(GadgetVersions);
      for (uint64_t &Seed : Seeds)
        Seed = S.next();
      const size_t Sample = S.below(GadgetVersions);
      std::vector<std::vector<uint8_t>> Versions;
      std::vector<std::vector<gadget::SurvivingGadget>> Surv;
      std::vector<uint64_t> AtLeast;
      C.T->beginOp();
      Clock.measure(*C.Ref, [&] {
        Tracer::Scope Op(*C.T, "bench.op");
        for (uint64_t Seed : Seeds) {
          Tracer::Scope Sp(*C.T, "driver.makeVariant");
          Versions.push_back(
              driver::makeVariant(B.P, Cfg.Opts, Seed).Image.Text);
        }
        {
          Tracer::Scope Sp(*C.T, "gadget.survivingGadgetsMulti");
          Surv = gadget::survivingGadgetsMulti(B.BaseImage.Text, Versions,
                                               Scan);
        }
        Tracer::Scope Sp(*C.T, "gadget.gadgetsInAtLeast");
        AtLeast = gadget::gadgetsInAtLeast(Versions, Thresholds, Scan);
      });
      Ops += GadgetVersions;
      ++Units;
      for (const std::vector<uint8_t> &V : Versions)
        TextBytes += V.size();

      // Independent check: the per-offset reference scanner must find
      // the same survivor set for a seeded sample version.
      if (Surv.size() != Versions.size() || AtLeast.size() != 3 ||
          AtLeast[0] < AtLeast[1] || AtLeast[1] < AtLeast[2])
        checkFailed(B.W->Name + ": malformed scanner result");
      std::vector<gadget::SurvivingGadget> Got = Surv[Sample];
      if (corruptOnce("survivors")) {
        if (Got.empty())
          Got.push_back({0, 0});
        else
          Got.pop_back();
      }
      gadget::ScanOptions RefScan = Scan;
      RefScan.ForceReference = true;
      const std::vector<gadget::SurvivingGadget> Want =
          gadget::survivingGadgets(B.BaseImage.Text, Versions[Sample],
                                   RefScan);
      auto Same = [](const gadget::SurvivingGadget &A,
                     const gadget::SurvivingGadget &Bg) {
        return A.Offset == Bg.Offset && A.NormHash == Bg.NormHash;
      };
      if (Got.size() != Want.size() ||
          !std::equal(Got.begin(), Got.end(), Want.begin(), Same))
        checkFailed(B.W->Name + " " + Cfg.Label +
                    ": survivor set differs from the reference scanner (" +
                    std::to_string(Got.size()) + " vs " +
                    std::to_string(Want.size()) + ")");
    }
  }

  void resetCounters() override {
    Workload::resetCounters();
    Units = 0;
    TextBytes = 0.0;
  }

  void layers(std::map<std::string, double> &L, const obs::LocalMetrics &Round,
              const std::map<std::string, Tracer::Totals> &Spans) override {
    auto Secs = [&](const char *N) {
      return Spans.count(N) ? Spans.at(N).Seconds : 0.0;
    };
    const double SurvS = Secs("gadget.survivingGadgetsMulti");
    const double MultiS = Secs("gadget.gadgetsInAtLeast");
    const double Scanned =
        static_cast<double>(counter(Round, "gadget.bytes_scanned"));
    L["gadget.survivor_ms_per_version"] = ratio(SurvS * 1e3, Ops);
    L["gadget.multi_ms_per_config"] = ratio(MultiS * 1e3, Units);
    L["gadget.mb_scanned_per_s"] = ratio(Scanned / 1e6, SurvS + MultiS);
    L["gadget.decoded_frac"] = ratio(
        static_cast<double>(counter(Round, "gadget.bytes_decoded")), Scanned);
    L["codegen.text_kb_per_variant"] = ratio(TextBytes / 1024.0, Ops);
  }

private:
  const std::vector<PaperConfig> Configs = paperConfigs();
  /// Table 3's thresholds for 25 versions.
  const std::vector<unsigned> Thresholds = {2, 5, 12};
  uint64_t Units = 0;
  double TextBytes = 0.0;
};

//===-- Shared by the two verifying workloads ------------------------------===//

/// Baseline battery cost of one program, measured through a private
/// verify::BaselineCache in the traced run.
struct BatteryCost {
  double FillSeconds = 0.0;
  double Instructions = 0.0; ///< Summed over the compared inputs.
  size_t Inputs = 0;         ///< Battery inputs the baseline finishes.
};

BatteryCost measureBattery(const driver::Program &P) {
  BatteryCost Out;
  const double Start = support::monotonicSeconds();
  verify::BaselineCache Cache(P.MIR, verify::VerifyOptions());
  for (size_t I = 0; I != Cache.battery().size(); ++I) {
    const mexec::RunResult &R = Cache.baselineRun(I);
    // Differential execution skips inputs the baseline never finishes.
    if (R.Trapped && R.Trap == mexec::TrapKind::StepBudget)
      continue;
    Out.Instructions += static_cast<double>(R.Instructions);
    ++Out.Inputs;
  }
  Out.FillSeconds =
      support::elapsedSeconds(Start, support::monotonicSeconds());
  return Out;
}

/// Baseline battery costs per program plus the verify-path counts the
/// traced round accumulates from them; shared by batch and serve.
struct VerifyTally {
  std::map<std::string, BatteryCost> Batteries;
  double DiffInstr = 0.0;
  double BatteryRuns = 0.0;
  double TextBytes = 0.0;

  void measure(const std::vector<BenchProgram> &Progs) {
    for (const BenchProgram &B : Progs)
      Batteries[B.W->Name] = measureBattery(B.P);
  }
  /// Counts \p Attempts verify attempts of one variant of \p B.
  void attempts(const BenchProgram &B, unsigned Attempts) {
    auto It = Batteries.find(B.W->Name);
    if (It == Batteries.end())
      return; // Untraced run: not measured.
    DiffInstr += Attempts * It->second.Instructions;
    BatteryRuns += Attempts * static_cast<double>(It->second.Inputs);
  }
  void reset() { DiffInstr = BatteryRuns = TextBytes = 0.0; }
  double meanFillMs() const {
    double Ms = 0.0;
    for (const auto &[Name, Cost] : Batteries)
      Ms += Cost.FillSeconds * 1e3;
    return ratio(Ms, static_cast<double>(Batteries.size()));
  }
};

/// Per-layer metrics of the verify path common to batch and serve.
/// Interpreter work is counted baseline-equivalent: every attempt as one
/// run of its program's battery at the baseline's instruction count, so
/// the count repeats exactly.
void verifyLayers(std::map<std::string, double> &L,
                  const obs::LocalMetrics &Round, const VerifyTally &V,
                  double Ops) {
  const double DiffInstr = V.DiffInstr;
  const double Attempts =
      static_cast<double>(counter(Round, "verify.attempts"));
  double Checkers = 0.0;
  for (const auto &[Name, P] : Round.Phases)
    if (Name.rfind("analysis.", 0) == 0)
      Checkers += P.WallSeconds;
  const double DiffS = phaseSeconds(Round, "verify.diff_execute");
  L["analysis.check_ms_per_attempt"] = ratio(Checkers * 1e3, Attempts);
  L["equiv.prove_ms_per_attempt"] =
      ratio(phaseSeconds(Round, "equiv.prove") * 1e3, Attempts);
  L["verify.diff_exec_ms_per_attempt"] = ratio(DiffS * 1e3, Attempts);
  L["verify.image_ms_per_attempt"] =
      ratio(phaseSeconds(Round, "verify.image") * 1e3, Attempts);
  L["verify.structure_ms_per_attempt"] =
      ratio(phaseSeconds(Round, "verify.structure") * 1e3, Attempts);
  L["verify.profile_ms_per_attempt"] =
      ratio(phaseSeconds(Round, "verify.profile") * 1e3, Attempts);
  L["verify.attempts_per_variant"] = ratio(
      Attempts, static_cast<double>(counter(Round, "verify.accepted") +
                                    counter(Round, "verify.fallbacks")));
  const double Hits =
      static_cast<double>(counter(Round, "verify.baseline_cache.hits"));
  const double Fills =
      static_cast<double>(counter(Round, "verify.baseline_cache.fills"));
  L["verify.baseline_hit_ratio"] = ratio(Hits, Hits + Fills);
  L["verify.baseline_fill_ms"] = V.meanFillMs();
  L["mexec.minstr_per_op"] = ratio(DiffInstr / 1e6, Ops);
  L["mexec.mips"] = ratio(DiffInstr / 1e6, DiffS);
  L["mexec.ms_per_run"] = ratio(DiffS * 1e3, V.BatteryRuns);
}

//===-- batch_verified -----------------------------------------------------===//

/// The variant factory: makeVariantsBatch at Jobs=2, one call per
/// program with a fixed seed count, pipelines drawn per program.
class BatchVerified final : public Workload {
public:
  using Workload::Workload;

  void setUp(unsigned Reps) override {
    Workload::setUp(Reps);
    parallelFor(Progs.size(), [&](size_t I) { runOracleBaselines(Progs[I]); });
  }

  void round(uint64_t R, RefClock &Clock) override {
    SeedStream S = roundStream(R);
    driver::BatchOptions BO;
    BO.Jobs = Jobs;
    for (size_t I = 0; I != Progs.size(); ++I) {
      BenchProgram &B = Progs[I];
      // Each program alternates pipelines from round to round, so every
      // run holds the same mix whatever the seed.
      const diversity::Pipeline &Pipe = (R + I) % 2 ? Full : NopOnly;
      std::vector<uint64_t> Seeds(BatchSeedsPerProgram);
      for (uint64_t &Seed : Seeds)
        Seed = S.next();
      const bool Sampled = S.below(4) == 0;
      const size_t Sample = S.below(Seeds.size());
      driver::BatchResult BR;
      C.T->beginOp();
      Clock.measure(*C.Ref, [&] {
        Tracer::Scope Op(*C.T, "bench.op");
        Tracer::Scope Sp(*C.T, "driver.makeVariantsBatch");
        BR = driver::makeVariantsBatch(B.P, Pipe, Diversity, Seeds, BO);
      });
      Ops += Seeds.size();
      Failed += BR.Rejected;
      if (BR.Variants.size() != Seeds.size())
        checkFailed(B.W->Name + ": batch returned a wrong variant count");

      // Accepted images must be pairwise distinct per program.
      std::set<uint64_t> Digests;
      uint64_t Accepted = 0;
      for (const driver::VerifiedVariant &V : BR.Variants) {
        if (!V.ok())
          continue;
        ++Accepted;
        Digests.insert(textDigest(V.V.Image.Text));
        Tally.TextBytes += static_cast<double>(V.V.Image.Text.size());
        Tally.attempts(B, V.Attempts);
      }
      if (Digests.size() != Accepted)
        checkFailed(B.W->Name + ": batch shipped duplicate images");
      // A seeded sample of accepted variants re-runs on the reference
      // engine against the baseline's reference-engine runs.
      const driver::VerifiedVariant &V = BR.Variants[Sample];
      if (Sampled && V.ok()) {
        const bool Corrupt = corruptOnce("checksum");
        checkRun(driver::execute(V.V.MIR, B.W->TrainInput, true,
                                 mexec::Engine::Reference),
                 B.RefTrain, B.W->Name + " train", Corrupt);
        checkRun(driver::execute(V.V.MIR, B.W->RefInput, true,
                                 mexec::Engine::Reference),
                 B.RefRef, B.W->Name + " ref", false);
      }
    }
  }

  void prepareTrace() override { Tally.measure(Progs); }

  void resetCounters() override {
    Workload::resetCounters();
    Tally.reset();
  }

  void layers(std::map<std::string, double> &L, const obs::LocalMetrics &Round,
              const std::map<std::string, Tracer::Totals> &Spans) override {
    verifyLayers(L, Round, Tally, static_cast<double>(Ops));
    const double BatchS = Spans.count("driver.makeVariantsBatch")
                              ? Spans.at("driver.makeVariantsBatch").Seconds
                              : 0.0;
    L["driver.batch_busy_frac"] =
        ratio(phaseSeconds(Round, "batch.seed"), BatchS * Jobs);
    L["driver.batch_setup_ms"] =
        ratio(phaseSeconds(Round, "batch.setup") * 1e3,
              phaseCount(Round, "batch.setup"));
    L["codegen.text_kb_per_variant"] =
        ratio(Tally.TextBytes / 1024.0, static_cast<double>(Ops - Failed));
  }

private:
  const diversity::Pipeline NopOnly;
  const diversity::Pipeline Full{
      {diversity::TransformKind::Nop, diversity::TransformKind::Shift,
       diversity::TransformKind::Sched, diversity::TransformKind::Regs}};
  const diversity::DiversityOptions Diversity =
      paperConfigs()[HeadlineConfig].Opts;
  VerifyTally Tally;
};

//===-- serve_mixed --------------------------------------------------------===//

/// The serving daemon: every other request seed is prefilled into the
/// store during set-up, so each serveVariants call alternates hits
/// (store load + digest check) with fills (verify + publish).
class ServeMixed final : public Workload {
public:
  using Workload::Workload;

  void setUp(unsigned Reps) override {
    Progs = setUpPrograms(C, Reps, SetupNorm, SetupRaw,
                          [this](BenchProgram &B) { prefill(B); });
  }

  void round(uint64_t, RefClock &Clock) override {
    for (BenchProgram &B : Progs) {
      const Entry &E = Entries.at(B.W->Name);
      const std::string Dir = C.WorkDir + "/serve/" + B.W->Name;
      std::error_code EC;
      fs::remove_all(Dir, EC);
      fs::create_directories(fs::path(Dir).parent_path(), EC);
      fs::copy(E.PrefillDir, Dir, fs::copy_options::recursive, EC);
      if (EC)
        checkFailed("cannot copy the prefilled store: " + EC.message());
      // Write back the copy and the previous call's entries now, so disk
      // writeback does not land inside the next timed call.
      if (int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY); Fd >= 0) {
        ::syncfs(Fd);
        ::close(Fd);
      }

      serve::ServeOptions O = options(E);
      O.StoreDir = Dir;
      serve::ServeResult SR;
      C.T->beginOp();
      Clock.measure(*C.Ref, [&] {
        Tracer::Scope Op(*C.T, "bench.op");
        Tracer::Scope Sp(*C.T, "serve.serveVariants");
        SR = serve::serveVariants(B.P, O);
      });
      Ops += O.Requests;
      Failed += SR.Shed + SR.Failed;
      QueuePeak = std::max<double>(QueuePeak, SR.QueuePeakDepth);
      Prewarmed += static_cast<double>(SR.BaselinePrewarmed);
      ++Calls;
      check(B, E, SR);
      for (const serve::RequestResult &Q : SR.Requests) {
        if (Q.Outcome == serve::RequestOutcome::Hit)
          HitNorm.push_back(Q.Seconds * Clock.LastScale);
        else if (Q.Outcome == serve::RequestOutcome::Fill) {
          FillRaw.push_back(Q.Seconds);
          FillNorm.push_back(Q.Seconds * Clock.LastScale);
          Tally.TextBytes += static_cast<double>(Q.TextSize);
          Tally.attempts(B, Q.Attempts);
        }
      }
      if (C.T->on())
        probeStore(B, E, Dir);
    }
  }

  /// Normalized hit/fill latency percentiles, taken with tracing off.
  /// The tail is p95, or the highest percentile below it that still has
  /// ten samples beyond it.
  void untracedLayers(std::map<std::string, double> &L) const override {
    auto Put = [&](const std::string &P, const std::vector<double> &Norm) {
      L["serve." + P + "_p50_ms"] = percentile(Norm, 50.0) * 1e3;
      L["serve." + P + "_p95_ms"] =
          percentile(Norm, std::min(95.0, tailPercentile(Norm.size()))) *
          1e3;
      L["serve." + P + "_samples"] = static_cast<double>(Norm.size());
    };
    Put("hit", HitNorm);
    Put("fill", FillNorm);
  }

  void prepareTrace() override { Tally.measure(Progs); }

  void resetCounters() override {
    Workload::resetCounters();
    Tally.reset();
    HitNorm.clear();
    FillNorm.clear();
    FillRaw.clear();
    QueuePeak = Prewarmed = Calls = 0.0;
  }

  void layers(std::map<std::string, double> &L, const obs::LocalMetrics &Round,
              const std::map<std::string, Tracer::Totals> &Spans) override {
    verifyLayers(L, Round, Tally, static_cast<double>(FillRaw.size()));
    auto MeanMs = [&](const char *N) {
      return Spans.count(N) ? ratio(Spans.at(N).Seconds * 1e3,
                                    Spans.at(N).Count)
                            : 0.0;
    };
    L["serve.key_ms"] = MeanMs("serve.makeVariantKey");
    L["serve.store_load_ms"] = MeanMs("serve.VariantStore.load");
    L["serve.publish_ms"] = ratio(PublishSeconds * 1e3, Published);
    const double ServiceMs = ratio(phaseSeconds(Round, "serve.fill") * 1e3,
                                   phaseCount(Round, "serve.fill"));
    L["serve.fill_service_ms"] = ServiceMs;
    L["serve.admission_wait_ms"] =
        std::max(0.0, mean(FillRaw) * 1e3 - ServiceMs);
    L["serve.queue_peak_depth"] = QueuePeak;
    L["serve.baseline_prewarmed"] = ratio(Prewarmed, Calls);
    L["codegen.text_kb_per_variant"] =
        ratio(Tally.TextBytes / 1024.0, static_cast<double>(FillRaw.size()));
  }

private:
  struct Entry {
    std::string PrefillDir;
    uint64_t BaseSeed = 0;
    /// Request seed -> digest of the image published at prefill.
    std::map<uint64_t, uint64_t> Digests;
  };

  serve::ServeOptions options(const Entry &E) const {
    serve::ServeOptions O;
    O.Requests = ServeRequestsPerProgram;
    O.BaseSeed = E.BaseSeed;
    O.Jobs = Jobs;
    O.QueueDepth = ServeRequestsPerProgram; // Never shed.
    O.AdmitWaitSeconds = 3600.0;
    O.Diversity = paperConfigs()[HeadlineConfig].Opts;
    return O;
  }

  /// Set-up extra: verifies every other request seed and publishes it,
  /// then persists the baseline battery artifact.
  void prefill(BenchProgram &B) {
    Entry E;
    E.PrefillDir = C.WorkDir + "/prefill/" + B.W->Name;
    // A per-program request range drawn from the seed; the top bits stay
    // clear so BaseSeed + Requests never wraps.
    E.BaseSeed = SeedStream(C.Seed)
                     .child(serve::fnv1a64(B.W->Name.data(), B.W->Name.size()))
                     .next() >>
                 8;
    std::error_code EC;
    fs::remove_all(E.PrefillDir, EC);
    const serve::ServeOptions O = options(E);
    serve::VariantStore Store(E.PrefillDir);
    std::string Err;
    if (!Store.open(&Err))
      checkFailed("cannot open the prefill store: " + Err);

    std::vector<uint64_t> Seeds;
    for (uint64_t I = 0; I < O.Requests; I += 2)
      Seeds.push_back(O.BaseSeed + I);
    // One baseline cache serves every prefill variant and then becomes
    // the persisted baseline artifact, as a serve process would leave it.
    verify::BaselineCache Cache(B.P.MIR, O.Verify);
    verify::VerifyOptions Verify = O.Verify;
    Verify.Cache = &Cache;
    std::vector<driver::VerifiedVariant> Variants(Seeds.size());
    {
      Tracer::Scope Sp(*C.T, "driver.makeVariantVerified");
      parallelFor(Seeds.size(), [&](size_t I) {
        Variants[I] = driver::makeVariantVerified(B.P, O.Pipe, O.Diversity,
                                                  Seeds[I], Verify, O.Link);
      });
    }
    const std::string Material = serve::baseKeyMaterial(B.P.MIR, O.Link);
    for (size_t I = 0; I != Seeds.size(); ++I) {
      const driver::VerifiedVariant &V = Variants[I];
      if (!V.ok())
        continue; // Served as a fill later.
      serve::StoredVariant SV;
      SV.Text = V.V.Image.Text;
      SV.Seed = Seeds[I];
      SV.SeedUsed = V.SeedUsed;
      SV.Attempts = V.Attempts;
      const serve::StoreKey K =
          serve::makeVariantKey(Material, O.Pipe, O.Diversity, Seeds[I]);
      const double T0 = support::monotonicSeconds();
      bool Ok;
      {
        Tracer::Scope Sp(*C.T, "serve.VariantStore.publish");
        Ok = Store.publish(K, SV, &Err);
      }
      PublishSeconds +=
          support::elapsedSeconds(T0, support::monotonicSeconds());
      ++Published;
      if (!Ok)
        checkFailed("prefill publish failed: " + Err);
      E.Digests[Seeds[I]] = textDigest(SV.Text);
    }

    serve::BaselineArtifact Art;
    for (size_t I = 0; I != Cache.battery().size(); ++I)
      Art.Runs.emplace_back(static_cast<uint32_t>(I), Cache.baselineRun(I));
    if (!Store.publishBaseline(serve::makeBaselineKey(B.P.MIR, O.Link), Art,
                               &Err))
      checkFailed("prefill baseline publish failed: " + Err);
    Entries[B.W->Name] = std::move(E);
  }

  void check(const BenchProgram &B, const Entry &E,
             const serve::ServeResult &SR) {
    const std::string &N = B.W->Name;
    if (!SR.ok())
      checkFailed(N + ": store I/O error: " + SR.Error);
    if (SR.Requests.size() != ServeRequestsPerProgram ||
        SR.Hits + SR.Fills + SR.Shed + SR.Failed != SR.Requests.size())
      checkFailed(N + ": request outcomes do not add up");
    if (SR.Hits != E.Digests.size())
      checkFailed(N + ": " + std::to_string(SR.Hits) + " hits, " +
                  std::to_string(E.Digests.size()) + " prefilled");
    if (SR.DistinctVariants != SR.Served)
      checkFailed(N + ": served images are not pairwise distinct");
    bool Corrupt = corruptOnce("digest");
    for (const serve::RequestResult &Q : SR.Requests) {
      if (Q.Outcome != serve::RequestOutcome::Hit)
        continue;
      auto It = E.Digests.find(Q.Seed);
      const uint64_t Want =
          It == E.Digests.end() ? 0 : It->second ^ (Corrupt ? 1u : 0u);
      Corrupt = false;
      if (Q.TextDigest != Want)
        checkFailed(N + ": hit for seed " + std::to_string(Q.Seed) +
                    " served a different image than prefill published");
    }
  }

  /// Traced run only: times key derivation and store loads from outside
  /// serveVariants, re-checking each prefilled entry's digest.
  void probeStore(const BenchProgram &B, const Entry &E,
                  const std::string &Dir) {
    const serve::ServeOptions O = options(E);
    const std::string Material = serve::baseKeyMaterial(B.P.MIR, O.Link);
    serve::VariantStore Store(Dir);
    for (const auto &[Seed, Digest] : E.Digests) {
      serve::StoreKey K;
      {
        Tracer::Scope Sp(*C.T, "serve.makeVariantKey");
        K = serve::makeVariantKey(Material, O.Pipe, O.Diversity, Seed);
      }
      serve::StoredVariant SV;
      serve::LoadStatus S;
      {
        Tracer::Scope Sp(*C.T, "serve.VariantStore.load");
        S = Store.load(K, SV);
      }
      if (S != serve::LoadStatus::Hit || textDigest(SV.Text) != Digest)
        checkFailed(B.W->Name + ": stored entry for seed " +
                    std::to_string(Seed) + " does not match prefill");
    }
  }

  std::map<std::string, Entry> Entries;
  VerifyTally Tally;
  std::vector<double> HitNorm, FillNorm, FillRaw;
  double QueuePeak = 0.0;
  double Prewarmed = 0.0;
  double Calls = 0.0;
  /// Prefill publishes (the traced run's set-up is a single repetition).
  double PublishSeconds = 0.0;
  double Published = 0.0;
};

//===-- Quality probe ------------------------------------------------------===//

/// The paper's outputs at pNOP=0-30% over every program and fixed
/// variant seeds 1..ProbeSeeds: independent of --seed and of timing, so
/// the three quality metrics repeat exactly between runs.
void qualityProbe(const std::vector<BenchProgram> &Progs, Report &Out) {
  const diversity::DiversityOptions Opts =
      paperConfigs()[HeadlineConfig].Opts;
  std::vector<const BenchProgram *> Sorted;
  for (const BenchProgram &B : Progs)
    Sorted.push_back(&B);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const BenchProgram *A, const BenchProgram *B) {
              return A->W->Name < B->W->Name;
            });
  struct Row {
    double Slowdown = 0.0;
    std::vector<double> Growth;
    double Survivors = 0.0;
    double Gadgets = 0.0;
  };
  std::vector<Row> Rows(Sorted.size());
  parallelFor(Sorted.size(), [&](size_t I) {
    const BenchProgram &B = *Sorted[I];
    Row &Res = Rows[I];
    const mexec::RunResult Base = driver::execute(B.P.MIR, B.W->RefInput);
    const std::vector<uint8_t> &BaseText = B.BaseImage.Text;
    std::vector<std::vector<uint8_t>> Versions;
    std::vector<double> Ratios;
    for (uint64_t Seed = 1; Seed <= ProbeSeeds; ++Seed) {
      driver::Variant V = driver::makeVariant(B.P, Opts, Seed);
      const mexec::RunResult R = driver::execute(V.MIR, B.W->RefInput);
      if (R.Trapped || R.Checksum != Base.Checksum)
        checkFailed(B.W->Name + ": probe variant diverged");
      Ratios.push_back(R.cycles() / Base.cycles());
      Res.Growth.push_back(static_cast<double>(V.Image.Text.size()) /
                               static_cast<double>(BaseText.size()) -
                           1.0);
      Versions.push_back(std::move(V.Image.Text));
    }
    Res.Slowdown = mean(Ratios);
    for (const auto &S : gadget::survivingGadgetsMulti(BaseText, Versions))
      Res.Survivors += static_cast<double>(S.size());
    Res.Gadgets = static_cast<double>(
                      gadget::scanGadgets(BaseText.data(), BaseText.size())
                          .size()) *
                  ProbeSeeds;
  });
  std::vector<double> Slowdowns, Growth;
  double Survivors = 0.0, Gadgets = 0.0;
  for (const Row &R : Rows) {
    Slowdowns.push_back(R.Slowdown);
    Growth.insert(Growth.end(), R.Growth.begin(), R.Growth.end());
    Survivors += R.Survivors;
    Gadgets += R.Gadgets;
  }
  Out.add("code_overhead_pct", 100.0 * (geometricMean(Slowdowns) - 1.0),
          "%");
  Out.add("gadget_survival_pct", 100.0 * ratio(Survivors, Gadgets), "%");
  Out.add("text_growth_pct", 100.0 * mean(Growth), "%");
}

std::unique_ptr<Workload> makeWorkload(Context &C) {
  if (C.Workload == "batch_verified")
    return std::make_unique<BatchVerified>(C);
  if (C.Workload == "serve_mixed")
    return std::make_unique<ServeMixed>(C);
  if (C.Workload == "fig4_runtime")
    return std::make_unique<Fig4Runtime>(C);
  if (C.Workload == "gadget_tables")
    return std::make_unique<GadgetTables>(C);
  return nullptr;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "batch_verified", "serve_mixed", "fig4_runtime", "gadget_tables"};
  return Names;
}

void perfbench::runWorkload(Context &C, Report &Out) {
  std::unique_ptr<Workload> W = makeWorkload(C);
  const double Cpu0 = support::processCpuSeconds();

  if (!C.Trace) {
    const double T0 = support::monotonicSeconds();
    W->setUp(SetupReps);
    RefClock Clock;
    const double Start = support::monotonicSeconds();
    uint64_t R = 0;
    while (R == 0 || support::elapsedSeconds(
                         Start, support::monotonicSeconds()) < C.Seconds)
      W->round(R++, Clock);
    const double T1 = support::monotonicSeconds();
    Out.Attempted = W->Ops;
    Out.Failed = W->Failed;
    Out.add("setup_s", W->SetupNorm, "s");
    Out.add("ops_per_s", ratio(static_cast<double>(W->Ops), Clock.Normalized),
            "1/ref-s");
    qualityProbe(W->Progs, Out);
    Out.add("peak_rss_mb", peakRssMb(), "MB");
    std::printf("# wall: setup+oracle %.3f s, rounds %.3f s, probe %.3f s\n",
                Start - T0, T1 - Start,
                support::elapsedSeconds(T1, support::monotonicSeconds()));
    std::printf("# %s seed=%llu rounds=%llu ops=%llu failed=%llu "
                "raw_s=%.3f ref_slice_ms=%.4f slices=%llu "
                "raw_setup_s=%.3f cpu_s=%.3f\n",
                C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
                static_cast<unsigned long long>(R),
                static_cast<unsigned long long>(W->Ops),
                static_cast<unsigned long long>(W->Failed), Clock.Raw,
                Clock.meanSliceSeconds() * 1e3,
                static_cast<unsigned long long>(Clock.Slices), W->SetupRaw,
                support::processCpuSeconds() - Cpu0);
    return;
  }

  // Traced run: one traced set-up, then round 0 untraced (the overhead
  // reference) and round 0 again with the obs registry and the span
  // recorder on. Fixed work, so every count repeats exactly.
  std::map<std::string, double> L;
  for (const auto &[Name, Unit] : perLayerMetrics())
    L[Name] = 0.0;

  Tracer Trace(true);
  Tracer *Off = C.T;
  obs::Registry &Reg = obs::Registry::global();
  Reg.reset();
  obs::setEnabled(true);
  C.T = &Trace;
  W->setUp(1);
  C.T = Off;
  obs::setEnabled(false);
  const obs::LocalMetrics Setup = Reg.snapshot();
  W->prepareTrace();

  RefClock Plain;
  W->round(0, Plain);
  const double PlainRate =
      ratio(static_cast<double>(W->Ops), Plain.Normalized);
  W->untracedLayers(L);
  W->resetCounters();

  C.T = &Trace;
  Reg.reset();
  obs::setEnabled(true);
  RefClock Traced;
  const double CpuRound0 = support::processCpuSeconds();
  W->round(0, Traced);
  const double CpuRound = support::processCpuSeconds() - CpuRound0;
  obs::setEnabled(false);
  C.T = Off;
  const obs::LocalMetrics Round = Reg.snapshot();
  const auto Spans = Trace.totals();

  const double N = static_cast<double>(W->Progs.size());
  L["frontend.ms_per_program"] =
      ratio(phaseSeconds(Setup, "pipeline.frontend") * 1e3, N);
  L["passes.ms_per_program"] =
      ratio(phaseSeconds(Setup, "pipeline.passes") * 1e3, N);
  L["lir.ms_per_program"] =
      ratio(phaseSeconds(Setup, "pipeline.isel") * 1e3, N);
  L["analysis.baseline_ms_per_program"] =
      ratio(phaseSeconds(Setup, "pipeline.analyze") * 1e3, N);
  if (Spans.count("driver.profileAndStamp"))
    L["profile.ms_per_program"] =
        ratio(Spans.at("driver.profileAndStamp").Seconds * 1e3, N);
  L["host.raw_setup_s"] = W->SetupRaw;

  const double Variants =
      static_cast<double>(phaseCount(Round, "pipeline.diversify"));
  L["diversity.ms_per_variant"] =
      ratio(phaseSeconds(Round, "pipeline.diversify") * 1e3, Variants);
  L["diversity.nops_per_variant"] = ratio(
      static_cast<double>(counter(Round, "diversity.nop.inserted")), Variants);
  L["codegen.link_ms_per_variant"] =
      ratio(phaseSeconds(Round, "pipeline.emit") * 1e3,
            static_cast<double>(phaseCount(Round, "pipeline.emit")));
  W->layers(L, Round, Spans);

  const double Ops = static_cast<double>(W->Ops);
  const double TracedRate = ratio(Ops, Traced.Normalized);
  L["trace.overhead_pct"] = 100.0 * (ratio(PlainRate, TracedRate) - 1.0);
  L["ops.fail_frac"] = ratio(static_cast<double>(W->Failed), Ops);
  L["host.ref_kernel_ms"] = Traced.meanSliceSeconds() * 1e3;
  L["host.raw_ops_per_s"] = ratio(Ops, Traced.Raw);
  L["host.cpu_ms_per_op"] = ratio(CpuRound * 1e3, Ops);
  for (const auto &[Name, T] : Spans)
    L["self." + Name + ".ms"] =
        ratio(T.SelfSeconds * 1e3, static_cast<double>(T.Count));

  Out.Attempted = W->Ops;
  Out.Failed = W->Failed;
  for (const auto &[Name, Unit] : perLayerMetrics())
    Out.add(Name, L.at(Name), Unit);

  if (!C.TraceFile.empty()) {
    obs::LocalMetrics All = Setup;
    All.merge(Round);
    if (!Trace.write(C.TraceFile, All))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   C.TraceFile.c_str());
  }
}
