//===-- diversity/NopInsertion.cpp - Profile-guided NOP insertion ----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "diversity/NopInsertion.h"

#include "analysis/Analysis.h"
#include "obs/Metrics.h"

#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>

using namespace pgsd;
using namespace pgsd::diversity;
using namespace pgsd::mir;

DiversityOptions DiversityOptions::uniform(double P) {
  DiversityOptions Opts;
  Opts.Model = ProbabilityModel::Uniform;
  Opts.PMin = P;
  Opts.PMax = P;
  return Opts;
}

DiversityOptions DiversityOptions::profiled(ProbabilityModel Model,
                                            double PMin, double PMax) {
  assert(Model != ProbabilityModel::Uniform && "use uniform()");
  DiversityOptions Opts;
  Opts.Model = Model;
  Opts.PMin = PMin;
  Opts.PMax = PMax;
  return Opts;
}

std::string DiversityOptions::label() const {
  char Buf[64];
  if (Model == ProbabilityModel::Uniform) {
    std::snprintf(Buf, sizeof(Buf), "pNOP=%.0f%%", PMax * 100.0);
  } else {
    std::snprintf(Buf, sizeof(Buf), "pNOP=%.0f-%.0f%%%s", PMin * 100.0,
                  PMax * 100.0,
                  Model == ProbabilityModel::Linear ? " (linear)" : "");
  }
  return Buf;
}

NopProbability::NopProbability(uint64_t MaxCount,
                               const DiversityOptions &Opts)
    : Budget(Opts), XMax(MaxCount),
      LogXMax(std::log1p(static_cast<double>(MaxCount))) {}

double NopProbability::operator()(uint64_t Count) const {
  switch (Budget.Model) {
  case ProbabilityModel::Uniform:
    return Budget.PMax;
  case ProbabilityModel::Linear: {
    if (XMax == 0)
      return Budget.PMax;
    double Frac = static_cast<double>(Count) / static_cast<double>(XMax);
    return Budget.PMax - (Budget.PMax - Budget.PMin) * Frac;
  }
  case ProbabilityModel::Log: {
    if (XMax == 0)
      return Budget.PMax;
    double Frac = std::log1p(static_cast<double>(Count)) / LogXMax;
    return Budget.PMax - (Budget.PMax - Budget.PMin) * Frac;
  }
  }
  return Budget.PMax;
}

double diversity::nopProbability(uint64_t Count, uint64_t MaxCount,
                                 const DiversityOptions &Opts) {
  return NopProbability(MaxCount, Opts)(Count);
}

InsertionStats diversity::insertNops(const MModule &Baseline, MModule &Out,
                                     const DiversityOptions &Opts,
                                     Rng &Generator) {
  assert(&Baseline != &Out && "insertNops writes a new module");
  InsertionStats Stats;
  unsigned NumNops =
      Opts.IncludeXchgNops ? x86::NumNopKinds : x86::NumDefaultNopKinds;

  // Telemetry is sampled per block at most (never per instruction) and
  // only when collection is on.
  const bool Obs = obs::enabled();
  // Deciles of pNOP in percent; the last implicit bucket catches >100.
  static constexpr double PnopBuckets[] = {10, 20, 30, 40, 50,
                                           60, 70, 80, 90, 100};

  // The paper's x_max: the hottest basic block in the whole program.
  uint64_t MaxCount = 0;
  for (const MFunction &F : Baseline.Functions)
    for (const MBasicBlock &BB : F.Blocks)
      MaxCount = std::max(MaxCount, BB.ProfileCount);
  const NopProbability PNopOf(MaxCount, Opts);

  Out.Name = Baseline.Name;
  Out.Globals = Baseline.Globals;
  Out.EntryFunction = Baseline.EntryFunction;
  Out.NumProfCounters = Baseline.NumProfCounters;
  Out.Functions.resize(Baseline.Functions.size());

  // Candidates may land anywhere -- including between a cmp and its
  // jcc -- only because every Table 1 NOP leaves EFLAGS alone. Ask the
  // analyzer, once per kind, instead of trusting the table, so a future
  // flag-touching candidate is rejected here rather than discovered as
  // a broken variant downstream.
  std::array<bool, x86::NumNopKinds> Neutral{};
  for (unsigned K = 0; K != NumNops; ++K) {
    MInstr Nop;
    Nop.Op = MOp::Nop;
    Nop.NopK = static_cast<x86::NopKind>(K);
    Neutral[K] = analysis::flagEffect(Nop) == analysis::FlagEffect::Neutral;
  }

  // The NOP drawn before each instruction of the block being written,
  // or NoNop: a block's draws come first so its instructions are
  // allocated once, at their final count.
  constexpr uint8_t NoNop = 0xff;
  thread_local std::vector<uint8_t> Drawn;
  // Draw from a local copy: stores to Drawn cannot alias it, so its
  // state stays in registers across a block's draws.
  Rng G = Generator;

  for (size_t FI = 0; FI != Baseline.Functions.size(); ++FI) {
    const MFunction &F = Baseline.Functions[FI];
    MFunction &OF = Out.Functions[FI];
    OF.Name = F.Name;
    OF.NumParams = F.NumParams;
    OF.FrameBytes = F.FrameBytes;
    OF.ValueSlotsLowDisp = F.ValueSlotsLowDisp;
    OF.UsesEbx = F.UsesEbx;
    OF.UsesEsi = F.UsesEsi;
    OF.UsesEdi = F.UsesEdi;
    OF.Blocks.resize(F.Blocks.size());
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      const MBasicBlock &BB = F.Blocks[B];
      MBasicBlock &OB = OF.Blocks[B];
      OB.Name = BB.Name;
      OB.ProfileCount = BB.ProfileCount;
      const double PNop = PNopOf(BB.ProfileCount);
      if (Obs)
        obs::histogramObserve("diversity.pnop_percent", PNop * 100.0,
                              PnopBuckets);
      // Algorithm 1's roll as one integer test per site.
      const Rng::Bernoulli Roll = Rng::bernoulli(PNop);
      const size_t N = BB.Instrs.size();
      Drawn.assign(N, NoNop);
      uint8_t *Draw = Drawn.data();
      size_t Accepted = 0;
      Stats.CandidateSites += N;
      for (size_t I = 0; I != N; ++I) {
        // Algorithm 1: roll, then pick a candidate NOP uniformly.
        if (!G.nextBernoulli(Roll))
          continue;
        const auto Kind = static_cast<uint8_t>(G.nextBelow(NumNops));
        if (Neutral[Kind]) {
          ++Stats.NopsInserted;
          ++Stats.PerKind[Kind];
          Draw[I] = Kind;
          ++Accepted;
        } else {
          ++Stats.NopsRejected;
        }
      }
      // No branch per site: each site writes a NOP's kind into the next
      // slot, a default MInstr (a NOP), and the cursor keeps that slot
      // only where a NOP was drawn; else the instruction overwrites it.
      OB.Instrs.clear();
      OB.Instrs.resize(N + Accepted);
      MInstr *Slot = OB.Instrs.data();
      for (size_t I = 0; I != N; ++I) {
        Slot->NopK = static_cast<x86::NopKind>(Drawn[I] & 7);
        Slot += Drawn[I] != NoNop;
        *Slot++ = BB.Instrs[I];
      }
    }
  }
  Generator = G;
  if (Obs) {
    obs::counterAdd("diversity.candidate_sites", Stats.CandidateSites);
    obs::counterAdd("diversity.nops_accepted", Stats.NopsInserted);
    obs::counterAdd("diversity.nops_rejected", Stats.NopsRejected);
  }
  assert(analysis::checkEflags(Out).ok() &&
         "NOP insertion broke a flag def-use chain");
  return Stats;
}

BlockShiftStats diversity::insertBlockShift(MModule &M, Rng &Generator,
                                            unsigned MaxPadding,
                                            bool IncludeXchgNops) {
  assert(MaxPadding >= 1 && "padding must be at least one instruction");
  BlockShiftStats Stats;
  unsigned NumNops =
      IncludeXchgNops ? x86::NumNopKinds : x86::NumDefaultNopKinds;

  for (MFunction &F : M.Functions) {
    // Prepend [jmp over-pad] and [pad...] blocks; original blocks and
    // every branch target shift by two.
    for (MBasicBlock &BB : F.Blocks)
      for (MInstr &I : BB.Instrs)
        if (I.Op == MOp::Jmp || I.Op == MOp::Jcc)
          I.Imm += 2;

    MBasicBlock Entry;
    Entry.Name = "shift.entry";
    Entry.ProfileCount = F.Blocks.front().ProfileCount;
    MInstr J;
    J.Op = MOp::Jmp;
    J.Imm = 2;
    Entry.Instrs.push_back(J);

    MBasicBlock Pad;
    Pad.Name = "shift.pad";
    Pad.ProfileCount = 0; // never executed: maximally cold
    unsigned PadLen =
        1 + static_cast<unsigned>(Generator.nextBelow(MaxPadding));
    for (unsigned I = 0; I != PadLen; ++I) {
      MInstr Nop;
      Nop.Op = MOp::Nop;
      Nop.NopK = static_cast<x86::NopKind>(Generator.nextBelow(NumNops));
      Pad.Instrs.push_back(Nop);
      ++Stats.PaddingInstrs;
    }
    // The pad block is jumped over but still needs a terminator for the
    // verifier (and for an attacker landing in it, it falls through).
    MInstr PadJ;
    PadJ.Op = MOp::Jmp;
    PadJ.Imm = 2;
    Pad.Instrs.push_back(PadJ);

    F.Blocks.insert(F.Blocks.begin(), {std::move(Entry), std::move(Pad)});
    ++Stats.FunctionsShifted;
  }
  assert(mir::verify(M).empty() && "block shifting broke the module");
  assert(analysis::checkEflags(M).ok() &&
         "block shifting broke a flag def-use chain");
  return Stats;
}
