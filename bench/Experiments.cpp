//===-- bench/Experiments.cpp - The paper's evaluation, as rows -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "bench/Experiments.h"

#include "analysis/Equiv.h"
#include "analysis/MirFault.h"
#include "driver/Driver.h"
#include "gadget/Attack.h"
#include "gadget/Scanner.h"
#include "mexec/Precompiled.h"
#include "nvx/Nvx.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "x86/Decoder.h"
#include "x86/Nops.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>

using namespace pgsd;
using namespace pgsd::experiments;
using diversity::DiversityOptions;
using diversity::ProbabilityModel;

namespace {

/// Runs Fn(0) .. Fn(N-1) on a pool of \p Jobs workers (0 = all cores).
/// When tasks throw, rethrows the exception of the lowest index, so the
/// failure reported does not depend on scheduling.
void parallelFor(size_t N, unsigned Jobs,
                 const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  unsigned Workers = Jobs ? Jobs : support::ThreadPool::defaultConcurrency();
  std::vector<std::exception_ptr> Errors(N);
  support::ThreadPool Pool(static_cast<unsigned>(
      std::min<size_t>(Workers, N)));
  for (size_t I = 0; I != N; ++I)
    Pool.enqueue([&Fn, &Errors, I] {
      try {
        Fn(I);
      } catch (...) {
        Errors[I] = std::current_exception();
      }
    });
  Pool.wait();
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}

/// Compiles \p Source and profiles it on \p TrainInput.
driver::Program prepare(const std::string &Source, const std::string &Name,
                        const std::vector<int32_t> &TrainInput) {
  driver::Program P = driver::compileProgram(Source, Name);
  if (!P.ok())
    throw std::runtime_error(Name + ": compile failed\n" + P.errors());
  if (!driver::profileAndStamp(P, TrainInput))
    throw std::runtime_error(Name + ": training run failed");
  return P;
}

std::vector<driver::Program>
prepareAll(const std::vector<workloads::Workload> &Suite, unsigned Jobs) {
  std::vector<driver::Program> Programs(Suite.size());
  parallelFor(Suite.size(), Jobs, [&](size_t I) {
    const workloads::Workload &W = Suite[I];
    Programs[I] = prepare(W.Source, W.Name, W.TrainInput);
  });
  return Programs;
}

/// The default pipeline: NOP insertion only.
const diversity::Pipeline NopInsertion;

/// (x_max, median over nonzero counts) of a profile-stamped program.
std::pair<uint64_t, uint64_t> countSpread(const driver::Program &P) {
  uint64_t XMax = 0;
  std::vector<uint64_t> NonZero;
  for (const mir::MFunction &F : P.MIR.Functions)
    for (const mir::MBasicBlock &BB : F.Blocks) {
      XMax = std::max(XMax, BB.ProfileCount);
      if (BB.ProfileCount)
        NonZero.push_back(BB.ProfileCount);
    }
  return {XMax, medianCount(NonZero)};
}

size_t gadgetCount(const std::vector<uint8_t> &Text) {
  return gadget::scanGadgets(Text.data(), Text.size()).size();
}

/// Every single transform followed by every ordered pair, the same
/// matrix tests/TransformMatrixTest.cpp proves correct.
std::vector<diversity::Pipeline> comboPipelines() {
  using diversity::Pipeline;
  using diversity::TransformKind;
  std::vector<Pipeline> Out;
  for (unsigned A = 0; A != diversity::NumTransformKinds; ++A)
    Out.push_back(Pipeline({static_cast<TransformKind>(A)}));
  for (unsigned A = 0; A != diversity::NumTransformKinds; ++A)
    for (unsigned B = A + 1; B != diversity::NumTransformKinds; ++B)
      Out.push_back(Pipeline({static_cast<TransformKind>(A),
                              static_cast<TransformKind>(B)}));
  return Out;
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

std::vector<Config> experiments::paperConfigs() {
  return {
      {"pNOP=50%", DiversityOptions::uniform(0.50)},
      {"pNOP=30%", DiversityOptions::uniform(0.30)},
      {"pNOP=25-50%", DiversityOptions::profiled(ProbabilityModel::Log, 0.25,
                                                 0.50)},
      {"pNOP=10-50%", DiversityOptions::profiled(ProbabilityModel::Log, 0.10,
                                                 0.50)},
      {"pNOP=0-30%", DiversityOptions::profiled(ProbabilityModel::Log, 0.00,
                                                0.30)},
  };
}

//===--- Figure 4 ---------------------------------------------------------===//

Figure4 experiments::figure4(const std::vector<workloads::Workload> &Suite,
                             unsigned Variants, unsigned Jobs) {
  const std::vector<Config> Configs = paperConfigs();
  const size_t NC = Configs.size();
  std::vector<driver::Program> Programs = prepareAll(Suite, Jobs);

  std::vector<mexec::RunResult> Bases(Suite.size());
  parallelFor(Suite.size(), Jobs, [&](size_t WI) {
    Bases[WI] = driver::execute(Programs[WI].MIR, Suite[WI].RefInput);
    if (Bases[WI].Trapped)
      throw std::runtime_error(Suite[WI].Name + ": baseline trapped: " +
                               Bases[WI].TrapReason);
  });

  // Mean overhead (a fraction) per (workload, config) cell.
  std::vector<double> Mean(Suite.size() * NC);
  parallelFor(Mean.size(), Jobs, [&](size_t Cell) {
    size_t WI = Cell / NC;
    const mexec::RunResult &Base = Bases[WI];
    std::vector<double> Overheads;
    for (uint64_t Seed = 1; Seed <= Variants; ++Seed) {
      const mir::MModule V =
          NopInsertion.run(Programs[WI].MIR, Configs[Cell % NC].Opts, Seed);
      mexec::RunResult R = driver::execute(V, Suite[WI].RefInput);
      if (R.Trapped || R.Checksum != Base.Checksum)
        throw std::runtime_error(Suite[WI].Name + ": variant diverged");
      Overheads.push_back(R.cycles() / Base.cycles() - 1.0);
    }
    Mean[Cell] = mean(Overheads);
  });

  Figure4 Out;
  std::vector<std::vector<double>> Ratios(NC);
  for (size_t WI = 0; WI != Suite.size(); ++WI) {
    Figure4Row Row;
    Row.Name = Suite[WI].Name;
    for (size_t CI = 0; CI != NC; ++CI) {
      double M = Mean[WI * NC + CI];
      Ratios[CI].push_back(1.0 + M);
      Row.OverheadPct.push_back(100.0 * M);
    }
    Out.Rows.push_back(std::move(Row));
  }
  for (size_t CI = 0; CI != NC; ++CI)
    Out.GeomeanPct.push_back(100.0 * (geometricMean(Ratios[CI]) - 1.0));
  return Out;
}

//===--- Table 1 ----------------------------------------------------------===//

std::vector<Table1Row> experiments::table1() {
  using namespace pgsd::x86;
  size_t Count;
  const NopInfo *Nops = nopTable(Count);
  std::vector<Table1Row> Rows;
  for (size_t I = 0; I != Count; ++I) {
    const NopInfo &N = Nops[I];
    char Enc[16];
    if (N.Length == 1)
      std::snprintf(Enc, sizeof(Enc), "%02X", N.Bytes[0]);
    else
      std::snprintf(Enc, sizeof(Enc), "%02X %02X", N.Bytes[0], N.Bytes[1]);

    // The full encoding is one valid, non-privileged instruction.
    Decoded D;
    bool OK = decodeInstr(N.Bytes, N.Length, D) && D.Length == N.Length &&
              D.Class == InstrClass::Normal;
    // The second byte decodes to what the paper claims.
    const std::string Second = N.SecondByteDecoding;
    if (N.Length == 2) {
      Decoded Alone;
      bool AloneOK = decodeInstr(N.Bytes + 1, 1, Alone);
      if (Second == "IN") {
        // E4/EC forms take an imm8 (truncate alone); ED (IN eAX, DX) is
        // complete but privileged. Either way the byte is unusable; and
        // with a following byte, IN must be privileged.
        OK = OK && (!AloneOK || Alone.Class == InstrClass::Privileged);
        uint8_t Buf[2] = {N.Bytes[1], 0x00};
        Decoded In;
        decodeInstr(Buf, 2, In);
        OK = OK && In.Class == InstrClass::Privileged;
      } else if (Second == "SS:") {
        OK = OK && !AloneOK && Alone.NumPrefixes == 1;
      } else if (Second == "AAS") {
        OK = OK && AloneOK && Alone.Class == InstrClass::Normal;
      }
    }
    Rows.push_back({N.Mnemonic, Enc, Second, OK, N.LocksBus});
  }
  return Rows;
}

//===--- Table 2 ----------------------------------------------------------===//

double Table2Row::extraPct() const {
  return MeanSurvivors[0] > 0
             ? 100.0 * (MeanSurvivors[4] / MeanSurvivors[0] - 1.0)
             : 0.0;
}

double Table2Row::survivingPct() const {
  return Baseline ? 100.0 * MeanSurvivors[4] / static_cast<double>(Baseline)
                  : 0.0;
}

std::vector<Table2Row>
experiments::table2(const std::vector<workloads::Workload> &Suite,
                    unsigned Variants, unsigned Jobs) {
  const std::vector<Config> Configs = paperConfigs();
  const size_t NC = Configs.size();
  std::vector<driver::Program> Programs = prepareAll(Suite, Jobs);

  std::vector<codegen::Image> Bases(Suite.size());
  parallelFor(Suite.size(), Jobs, [&](size_t WI) {
    Bases[WI] = driver::linkBaseline(Programs[WI]);
  });

  // One Survivor sweep per cell: survivingGadgetsMulti scans the
  // baseline image once and probes every variant against it.
  std::vector<double> Mean(Suite.size() * NC);
  parallelFor(Mean.size(), Jobs, [&](size_t Cell) {
    size_t WI = Cell / NC;
    std::vector<std::vector<uint8_t>> Versions;
    Versions.reserve(Variants);
    for (uint64_t Seed = 1; Seed <= Variants; ++Seed)
      Versions.push_back(driver::makeVariant(Programs[WI], NopInsertion,
                                             Configs[Cell % NC].Opts, Seed)
                             .Image.Text);
    std::vector<double> Counts;
    for (const auto &Survivors :
         gadget::survivingGadgetsMulti(Bases[WI].Text, Versions))
      Counts.push_back(static_cast<double>(Survivors.size()));
    Mean[Cell] = mean(Counts);
  });

  std::vector<Table2Row> Rows;
  for (size_t WI = 0; WI != Suite.size(); ++WI) {
    Table2Row Row;
    Row.Name = Suite[WI].Name;
    Row.Baseline = gadgetCount(Bases[WI].Text);
    Row.MeanSurvivors.assign(Mean.begin() + WI * NC,
                             Mean.begin() + (WI + 1) * NC);
    Rows.push_back(std::move(Row));
  }
  // The paper sorts by baseline gadget count.
  std::sort(Rows.begin(), Rows.end(),
            [](const Table2Row &A, const Table2Row &B) {
              return A.Baseline < B.Baseline;
            });
  return Rows;
}

//===--- Table 3 ----------------------------------------------------------===//

std::vector<unsigned> experiments::paperThresholds(unsigned Versions) {
  auto Scale = [&](unsigned T) {
    return std::max(1u, (Versions * T + 12) / 25);
  };
  return {Scale(2), Scale(5), Scale(12)};
}

Table3 experiments::table3(const std::vector<workloads::Workload> &Suite,
                           unsigned Versions,
                           const std::vector<unsigned> &Thresholds,
                           unsigned Jobs) {
  const std::vector<Config> Configs = paperConfigs();
  const size_t NC = Configs.size();
  std::vector<driver::Program> Programs = prepareAll(Suite, Jobs);

  Table3 Out;
  std::vector<std::vector<uint64_t>> Counts(Suite.size() * NC);
  parallelFor(Counts.size(), Jobs, [&](size_t Cell) {
    size_t WI = Cell / NC;
    std::vector<std::vector<uint8_t>> Texts;
    Texts.reserve(Versions);
    for (uint64_t Seed = 1; Seed <= Versions; ++Seed) {
      driver::Variant V = driver::makeVariant(Programs[WI], NopInsertion,
                                              Configs[Cell % NC].Opts, Seed);
      if (Cell == 0 && Seed == 1)
        Out.StubGadgets =
            gadget::scanGadgets(V.Image.Text.data(), V.Image.StubSize)
                .size();
      Texts.push_back(std::move(V.Image.Text));
    }
    Counts[Cell] = gadget::gadgetsInAtLeast(Texts, Thresholds);
  });

  for (size_t WI = 0; WI != Suite.size(); ++WI)
    Out.Rows.push_back({Suite[WI].Name,
                        {Counts.begin() + WI * NC,
                         Counts.begin() + (WI + 1) * NC}});
  return Out;
}

StubFloor experiments::stubFloor(const workloads::Workload &W,
                                 unsigned Versions, unsigned Threshold) {
  driver::Program P = prepare(W.Source, W.Name, W.TrainInput);
  const DiversityOptions Opts = paperConfigs().back().Opts; // pNOP=0-30%
  std::vector<std::vector<uint8_t>> Fixed, Diversified;
  for (uint64_t Seed = 1; Seed <= Versions; ++Seed) {
    Fixed.push_back(
        driver::makeVariant(P, NopInsertion, Opts, Seed).Image.Text);
    codegen::LinkOptions Link;
    Link.DiversifyStub = true;
    Link.StubSeed = Seed; // a fresh stub per version
    Diversified.push_back(
        driver::makeVariant(P, NopInsertion, Opts, Seed, Link).Image.Text);
  }
  return {gadget::gadgetsInAtLeast(Fixed, {Threshold})[0],
          gadget::gadgetsInAtLeast(Diversified, {Threshold})[0]};
}

//===--- Section 5.2 case study ------------------------------------------===//

CaseStudy
experiments::caseStudy(const std::vector<workloads::PhpScript> &Scripts,
                       unsigned Versions, unsigned Jobs) {
  workloads::Workload Php = workloads::phpInterpreter();
  driver::Program Base = driver::compileProgram(Php.Source, Php.Name);
  if (!Base.ok())
    throw std::runtime_error(Php.Name + ": compile failed\n" + Base.errors());
  codegen::Image BaseImage = driver::linkBaseline(Base);

  CaseStudy Out;
  Out.Interpreter = Php.Name;
  Out.TextBytes = BaseImage.Text.size();
  Out.BaseRopFeasible =
      gadget::checkAttackOnImage(BaseImage.Text,
                                 gadget::AttackModel::RopGadget)
          .Feasible;
  Out.BaseMicroFeasible =
      gadget::checkAttackOnImage(BaseImage.Text,
                                 gadget::AttackModel::Microgadget)
          .Feasible;

  std::vector<driver::Program> Profiled(Scripts.size());
  parallelFor(Scripts.size(), Jobs, [&](size_t SI) {
    Profiled[SI] = prepare(Php.Source, Php.Name, Scripts[SI].Input);
  });

  // Per (script, version): surviving gadgets and both attack verdicts.
  struct Outcome {
    size_t Survivors = 0;
    bool Rop = false;
    bool Micro = false;
  };
  const DiversityOptions Opts = paperConfigs().back().Opts; // pNOP=0-30%
  std::vector<Outcome> Outcomes(Scripts.size() * Versions);
  parallelFor(Outcomes.size(), Jobs, [&](size_t Cell) {
    driver::Variant V = driver::makeVariant(
        Profiled[Cell / Versions], NopInsertion, Opts, Cell % Versions + 1);
    auto Survivors = gadget::survivingGadgets(BaseImage.Text, V.Image.Text);
    auto Usable = gadget::filterToSurvivors(
        gadget::classifyGadgets(V.Image.Text.data(), V.Image.Text.size()),
        Survivors);
    Outcomes[Cell] = {
        Survivors.size(),
        gadget::checkAttack(Usable, gadget::AttackModel::RopGadget).Feasible,
        gadget::checkAttack(Usable, gadget::AttackModel::Microgadget)
            .Feasible};
  });

  for (size_t SI = 0; SI != Scripts.size(); ++SI) {
    CaseStudyRow Row;
    Row.Script = Scripts[SI].Name;
    double SurvivorSum = 0;
    for (size_t VI = 0; VI != Versions; ++VI) {
      const Outcome &O = Outcomes[SI * Versions + VI];
      SurvivorSum += static_cast<double>(O.Survivors);
      Row.RopFeasible += O.Rop;
      Row.MicroFeasible += O.Micro;
    }
    Row.MeanSurvivors = SurvivorSum / Versions;
    Out.Rows.push_back(std::move(Row));
  }
  return Out;
}

//===--- Section 3.1 heuristic ablation ----------------------------------===//

Ablation experiments::ablation(const std::vector<workloads::Workload> &Suite,
                               unsigned Variants, unsigned Jobs) {
  std::vector<driver::Program> Programs = prepareAll(Suite, Jobs);
  const ProbabilityModel Models[] = {ProbabilityModel::Linear,
                                     ProbabilityModel::Log};

  Ablation Out;
  for (size_t WI = 0; WI != Suite.size(); ++WI) {
    auto [XMax, Median] = countSpread(Programs[WI]);
    SpreadRow Row{Suite[WI].Name, XMax, Median, 0.0, 0.0};
    Row.PLinearPct = 100.0 * diversity::nopProbability(
                                 Median, XMax,
                                 DiversityOptions::profiled(
                                     ProbabilityModel::Linear, 0.10, 0.50));
    Row.PLogPct = 100.0 * diversity::nopProbability(
                              Median, XMax,
                              DiversityOptions::profiled(
                                  ProbabilityModel::Log, 0.10, 0.50));
    Out.Spread.push_back(Row);
  }

  std::vector<codegen::Image> Bases(Suite.size());
  std::vector<double> BaseCycles(Suite.size());
  parallelFor(Suite.size(), Jobs, [&](size_t WI) {
    Bases[WI] = driver::linkBaseline(Programs[WI]);
    BaseCycles[WI] =
        driver::execute(Programs[WI].MIR, Suite[WI].RefInput).cycles();
  });

  Out.Heuristics.resize(Suite.size() * 2);
  parallelFor(Out.Heuristics.size(), Jobs, [&](size_t Cell) {
    size_t WI = Cell / 2;
    const driver::Program &P = Programs[WI];
    DiversityOptions Opts =
        DiversityOptions::profiled(Models[Cell % 2], 0.10, 0.50);
    double Nops = 0, Overhead = 0, Survivors = 0;
    for (uint64_t Seed = 1; Seed <= Variants; ++Seed) {
      driver::Variant V = driver::makeVariant(P, NopInsertion, Opts, Seed);
      Nops += static_cast<double>(V.Pipeline.Nop.NopsInserted);
      Overhead += driver::execute(V.MIR, Suite[WI].RefInput).cycles() /
                      BaseCycles[WI] -
                  1.0;
      Survivors += static_cast<double>(
          gadget::survivingGadgets(Bases[WI].Text, V.Image.Text).size());
    }
    Out.Heuristics[Cell] = {Suite[WI].Name, Models[Cell % 2],
                            Nops / Variants, 100.0 * Overhead / Variants,
                            Survivors / Variants};
  });

  // The bus-locking XCHG pair, which the paper excluded, on the last
  // workload.
  if (!Suite.empty()) {
    const driver::Program &P = Programs.back();
    const std::vector<int32_t> &Ref = Suite.back().RefInput;
    auto SlowdownPct = [&](const DiversityOptions &Opts) {
      return driver::execute(
                 driver::makeVariant(P, NopInsertion, Opts, 1).MIR, Ref)
                     .cycles() /
                 BaseCycles.back() * 100.0 -
             100.0;
    };
    DiversityOptions WithXchg = DiversityOptions::uniform(0.30);
    WithXchg.IncludeXchgNops = true;
    Out.PlainOverheadPct = SlowdownPct(DiversityOptions::uniform(0.30));
    Out.XchgOverheadPct = SlowdownPct(WithXchg);
  }
  return Out;
}

//===--- Transform combos -------------------------------------------------===//

double ComboRow::survivalRate() const {
  return BaselineGadgets
             ? static_cast<double>(SurvivingGadgets) / BaselineGadgets
             : 0.0;
}

double ComboRow::sizeOverhead() const {
  return BaselineBytes
             ? static_cast<double>(VariantBytes) / BaselineBytes - 1.0
             : 0.0;
}

double ComboRow::msPerVariant() const {
  return Variants ? 1e3 * DiversifyWall / Variants : 0.0;
}

std::vector<ComboRow>
experiments::transformCombos(const std::vector<workloads::Workload> &Suite,
                             unsigned Variants, unsigned Jobs) {
  const DiversityOptions Opts = paperConfigs().back().Opts; // pNOP=0-30%
  const std::vector<diversity::Pipeline> Pipes = comboPipelines();
  const size_t NW = Suite.size();
  std::vector<driver::Program> Programs = prepareAll(Suite, Jobs);

  std::vector<codegen::Image> Bases(NW);
  std::vector<uint64_t> BaseGadgets(NW);
  parallelFor(NW, Jobs, [&](size_t WI) {
    Bases[WI] = driver::linkBaseline(Programs[WI]);
    BaseGadgets[WI] = gadgetCount(Bases[WI].Text);
  });

  // One (combo, workload) cell per task; summed per combo afterwards.
  std::vector<ComboRow> Cells(Pipes.size() * NW);
  parallelFor(Cells.size(), Jobs, [&](size_t Cell) {
    const diversity::Pipeline &Pipe = Pipes[Cell / NW];
    const driver::Program &P = Programs[Cell % NW];
    const codegen::Image &Base = Bases[Cell % NW];
    ComboRow &Row = Cells[Cell];
    for (unsigned S = 0; S != Variants; ++S) {
      uint64_t Seed = 0xc0b0ull + S;
      Row.BaselineGadgets += BaseGadgets[Cell % NW];
      Row.BaselineBytes += Base.Text.size();
      double T0 = now();
      driver::Variant V = driver::makeVariant(P, Pipe, Opts, Seed);
      Row.DiversifyWall += now() - T0;
      ++Row.Variants;
      Row.VariantBytes += V.Image.Text.size();
      Row.SurvivingGadgets +=
          gadget::survivingGadgets(Base.Text, V.Image.Text).size();
      verify::Report Rep = analysis::proveEquivalent(P.MIR, V.MIR);
      if (!Rep.ok())
        throw std::runtime_error(P.MIR.Name + ": prover refuted a clean '" +
                                 Pipe.label() + "' variant (seed " +
                                 std::to_string(Seed) + "):\n" + Rep.str());
    }
  });

  std::vector<ComboRow> Rows;
  for (size_t CI = 0; CI != Pipes.size(); ++CI) {
    ComboRow Row;
    Row.Label = Pipes[CI].label();
    for (size_t WI = 0; WI != NW; ++WI) {
      const ComboRow &C = Cells[CI * NW + WI];
      Row.Variants += C.Variants;
      Row.BaselineGadgets += C.BaselineGadgets;
      Row.SurvivingGadgets += C.SurvivingGadgets;
      Row.BaselineBytes += C.BaselineBytes;
      Row.VariantBytes += C.VariantBytes;
      Row.DiversifyWall += C.DiversifyWall;
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

//===--- nvx fault sensor -------------------------------------------------===//

double NvxSensor::rate() const {
  return Denominator ? static_cast<double>(Detected) / Denominator : 0.0;
}

bool NvxSensor::hasSilentClass() const {
  return std::any_of(Classes.begin(), Classes.end(),
                     [](const NvxClassRow &C) { return C.HasSilentCell; });
}

NvxSensor experiments::nvxSensor(const std::vector<workloads::Workload> &Suite,
                                 unsigned SeedsPerClass, unsigned Jobs) {
  const unsigned NumClasses = analysis::NumMirFaultClasses;
  std::vector<driver::Program> Programs = prepareAll(Suite, Jobs);

  NvxSensor Out;
  Out.Replicas = 3;
  auto SessionOptions = [&](size_t WI) {
    nvx::NvxOptions N;
    N.Replicas = Out.Replicas;
    N.Policy = nvx::VotePolicy::Majority;
    N.Diversity = paperConfigs().back().Opts; // pNOP=0-30%
    // One bounded battery input for spawn verification keeps the sweep
    // dominated by the sensor under test, not by re-verification.
    N.Verify.InputBattery = {Suite[WI].TrainInput};
    N.EjectAfter = 1; // Eject on first lost vote: exercises respawn.
    return N;
  };
  auto BatteryOf = [&](size_t WI) {
    return std::vector<std::vector<int32_t>>{Suite[WI].TrainInput,
                                             Suite[WI].RefInput};
  };

  // One injected session per (workload, class, seed). Sessions run
  // their replicas inline (Jobs = 1): the pool already fills the cores,
  // and with no watchdog thread no verdict depends on wall time.
  struct Outcome {
    bool Injected = false, LoadRejected = false, Active = false;
    bool Single = false, Nvx = false;
  };
  std::vector<Outcome> Outcomes(Suite.size() * NumClasses * SeedsPerClass);
  parallelFor(Outcomes.size(), Jobs, [&](size_t Cell) {
    size_t WI = Cell / (NumClasses * SeedsPerClass);
    unsigned CI = Cell / SeedsPerClass % NumClasses;
    unsigned SI = Cell % SeedsPerClass;
    auto Class = static_cast<analysis::MirFaultClass>(CI);
    uint64_t FaultSeed = 0xfa017ull + WI * 1000 + CI * 100 + SI;

    // The seam fires once per spawned replica; corrupt replica 0 and
    // keep pristine/corrupted copies for the pre-screen.
    mir::MModule Pristine, Corrupted;
    bool Injected = false;
    nvx::NvxOptions N = SessionOptions(WI);
    N.Jobs = 1;
    N.BaseSeed = 1 + WI * 10000 + CI * 1000 + SI * 10;
    N.TamperReplica = [&](unsigned Replica, mir::MModule &M) {
      if (Replica != 0)
        return;
      Pristine = M;
      Injected = analysis::injectMirFault(M, Class, FaultSeed);
      if (Injected)
        Corrupted = M;
    };
    std::vector<std::vector<int32_t>> Battery = BatteryOf(WI);
    nvx::NvxResult Session = nvx::runLockstep(Programs[WI], Battery, N);

    Outcome &O = Outcomes[Cell];
    O.Injected = Injected;
    if (!Injected)
      return; // No eligible site; nothing was tested.
    if (!mir::verify(Corrupted).empty()) {
      // Unrunnable: both engines (and the nvx loader) refuse it.
      O.LoadRejected = true;
      if (Session.LoadRejections == 0)
        throw std::runtime_error(Suite[WI].Name + "/" +
                                 analysis::mirFaultClassName(Class) +
                                 ": unrunnable corruption not rejected "
                                 "at load");
      return;
    }

    // Standalone pre-screen: does the corruption change behaviour on
    // this battery at all, and does it *trap* (the only signal a single
    // deployed variant gives)?
    mexec::Precompiled PristineEng(Pristine);
    mexec::Precompiled CorruptedEng(Corrupted);
    for (const std::vector<int32_t> &Input : Battery) {
      mexec::RunOptions RO;
      RO.Input = Input;
      RO.MaxSteps = 200'000'000;
      RO.CollectOutput = true;
      mexec::RunResult A = PristineEng.run(RO);
      mexec::RunResult B = CorruptedEng.run(RO);
      if (!(nvx::signatureOf(A) == nvx::signatureOf(B)))
        O.Active = true;
      if (B.Trapped && !A.Trapped)
        O.Single = true;
    }
    O.Nvx = O.Active && Session.divergenceDetected();
  });

  for (unsigned CI = 0; CI != NumClasses; ++CI) {
    NvxClassRow Row;
    Row.Class =
        analysis::mirFaultClassName(static_cast<analysis::MirFaultClass>(CI));
    for (size_t WI = 0; WI != Suite.size(); ++WI) {
      uint64_t CellActive = 0, CellSingle = 0, CellNvx = 0;
      for (unsigned SI = 0; SI != SeedsPerClass; ++SI) {
        const Outcome &O =
            Outcomes[(WI * NumClasses + CI) * SeedsPerClass + SI];
        Row.Injections += O.Injected;
        Row.LoadRejected += O.LoadRejected;
        if (!O.Injected || O.LoadRejected)
          continue;
        if (!O.Active) {
          ++Row.Inert;
          continue;
        }
        ++CellActive;
        CellSingle += O.Single;
        CellNvx += O.Nvx;
      }
      Row.Active += CellActive;
      Row.SingleDetected += CellSingle;
      Row.NvxDetected += CellNvx;
      // Per cell, because a class fully silent on one workload may trap
      // occasionally on another.
      if (CellActive > 0 && CellSingle == 0 && CellNvx == CellActive)
        Row.HasSilentCell = true;
    }
    Out.Denominator += Row.Active + Row.LoadRejected;
    Out.Detected += Row.NvxDetected + Row.LoadRejected;
    Out.Classes.push_back(std::move(Row));
  }

  // Lockstep cost against K on the first workload, measured after the
  // sweep so the pool does not compete with it.
  if (!Suite.empty()) {
    std::vector<std::vector<int32_t>> Battery = BatteryOf(0);
    for (unsigned K : {1u, 2u, 3u, 5u}) {
      nvx::NvxOptions N = SessionOptions(0);
      N.Replicas = K;
      N.BaseSeed = 0x0e0e;
      nvx::NvxResult S = nvx::runLockstep(Programs[0], Battery, N);
      Out.Overhead.push_back(
          {K, S.Rounds, S.LockstepWallSeconds, S.LockstepCpuSeconds});
    }
  }
  return Out;
}

//===--- Workload suite report --------------------------------------------===//

std::vector<SuiteRow>
experiments::suiteReport(const std::vector<workloads::Workload> &Suite,
                         unsigned Jobs) {
  std::vector<SuiteRow> Rows(Suite.size());
  parallelFor(Suite.size(), Jobs, [&](size_t WI) {
    const workloads::Workload &W = Suite[WI];
    driver::Program P = prepare(W.Source, W.Name, W.TrainInput);
    mexec::RunResult Ref = driver::execute(P.MIR, W.RefInput);
    if (Ref.Trapped)
      throw std::runtime_error(W.Name + ": ref run trapped: " +
                               Ref.TrapReason);

    // Semantic check: one diversified variant must match the baseline.
    driver::Variant V = driver::makeVariant(
        P, NopInsertion, DiversityOptions::uniform(0.5), /*Seed=*/7);
    mexec::RunResult VRef = driver::execute(V.MIR, W.RefInput);

    codegen::Image Image = driver::linkBaseline(P);
    SuiteRow &Row = Rows[WI];
    Row.Name = W.Name;
    Row.TextBytes = Image.Text.size();
    Row.Gadgets = gadgetCount(Image.Text);
    Row.DynInstructions = Ref.Instructions;
    std::tie(Row.XMax, Row.Median) = countSpread(P);
    Row.Cycles = Ref.cycles();
    Row.VariantMatches = !VRef.Trapped && VRef.Checksum == Ref.Checksum &&
                         VRef.ExitCode == Ref.ExitCode;
  });
  return Rows;
}
