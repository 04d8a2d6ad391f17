//===-- diversity/Transform.cpp - Composable transform pipeline ------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "diversity/Transform.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace pgsd;
using namespace pgsd::diversity;

const char *diversity::transformKindName(TransformKind K) {
  switch (K) {
  case TransformKind::Nop:
    return "nop";
  case TransformKind::Shift:
    return "shift";
  case TransformKind::Sched:
    return "sched";
  case TransformKind::Regs:
    return "regs";
  }
  return "?";
}

bool diversity::parseTransformList(const std::string &Text,
                                   std::vector<TransformKind> &Out,
                                   std::string *Error) {
  std::vector<TransformKind> List;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Name = Text.substr(Pos, Comma - Pos);
    bool Known = false;
    for (unsigned K = 0; K != NumTransformKinds; ++K) {
      TransformKind Kind = static_cast<TransformKind>(K);
      if (Name != transformKindName(Kind))
        continue;
      Known = true;
      if (std::find(List.begin(), List.end(), Kind) != List.end()) {
        if (Error)
          *Error = "duplicate transform '" + Name + "'";
        return false;
      }
      List.push_back(Kind);
      break;
    }
    if (!Known) {
      if (Error)
        *Error = Name.empty() ? std::string("empty transform name")
                              : "unknown transform '" + Name + "'";
      return false;
    }
    Pos = Comma + 1;
  }
  if (List.empty()) {
    if (Error)
      *Error = "empty transform list";
    return false;
  }
  Out = std::move(List);
  return true;
}

namespace {

class NopTransform final : public Transform {
public:
  TransformKind kind() const override { return TransformKind::Nop; }
  void apply(mir::MModule &M, Rng &Generator, const DiversityOptions &Opts,
             PipelineStats &Stats) const override {
    const mir::MModule In = std::move(M);
    applyTo(In, M, Generator, Opts, Stats);
  }
  void applyTo(const mir::MModule &In, mir::MModule &Out, Rng &Generator,
               const DiversityOptions &Opts,
               PipelineStats &Stats) const override {
    Stats.Nop = insertNops(In, Out, Opts, Generator);
    if (obs::enabled()) {
      obs::counterAdd("diversity.nop.candidate_sites",
                      Stats.Nop.CandidateSites);
      obs::counterAdd("diversity.nop.inserted", Stats.Nop.NopsInserted);
      obs::counterAdd("diversity.nop.rejected", Stats.Nop.NopsRejected);
    }
  }
};

class ShiftTransform final : public Transform {
public:
  TransformKind kind() const override { return TransformKind::Shift; }
  void apply(mir::MModule &M, Rng &Generator, const DiversityOptions &Opts,
             PipelineStats &Stats) const override {
    Stats.Shift =
        insertBlockShift(M, Generator, 12, Opts.IncludeXchgNops);
    if (obs::enabled()) {
      obs::counterAdd("diversity.shift.functions_shifted",
                      Stats.Shift.FunctionsShifted);
      obs::counterAdd("diversity.shift.padding_instrs",
                      Stats.Shift.PaddingInstrs);
    }
  }
};

class SchedTransform final : public Transform {
public:
  TransformKind kind() const override { return TransformKind::Sched; }
  void apply(mir::MModule &M, Rng &Generator, const DiversityOptions &Opts,
             PipelineStats &Stats) const override {
    Stats.Sched = randomizeSchedule(M, Opts, Generator);
    if (obs::enabled()) {
      obs::counterAdd("diversity.sched.blocks_considered",
                      Stats.Sched.BlocksConsidered);
      obs::counterAdd("diversity.sched.blocks_randomized",
                      Stats.Sched.BlocksRandomized);
      obs::counterAdd("diversity.sched.instrs_permuted",
                      Stats.Sched.InstrsPermuted);
    }
  }
};

class RegsTransform final : public Transform {
public:
  TransformKind kind() const override { return TransformKind::Regs; }
  void apply(mir::MModule &M, Rng &Generator, const DiversityOptions &,
             PipelineStats &Stats) const override {
    Stats.Regs = shuffleRegisters(M, Generator);
    if (obs::enabled()) {
      obs::counterAdd("diversity.regs.functions_considered",
                      Stats.Regs.FunctionsConsidered);
      obs::counterAdd("diversity.regs.functions_shuffled",
                      Stats.Regs.FunctionsShuffled);
      obs::counterAdd("diversity.regs.regs_remapped",
                      Stats.Regs.RegsRemapped);
    }
  }
};

} // namespace

const Transform &diversity::transformFor(TransformKind K) {
  static const NopTransform NopT;
  static const ShiftTransform ShiftT;
  static const SchedTransform SchedT;
  static const RegsTransform RegsT;
  switch (K) {
  case TransformKind::Nop:
    return NopT;
  case TransformKind::Shift:
    return ShiftT;
  case TransformKind::Sched:
    return SchedT;
  case TransformKind::Regs:
    return RegsT;
  }
  return NopT;
}

bool Pipeline::contains(TransformKind K) const {
  return std::find(Kinds.begin(), Kinds.end(), K) != Kinds.end();
}

std::string Pipeline::label() const {
  std::string L;
  for (TransformKind K : Kinds) {
    if (!L.empty())
      L += '+';
    L += transformKindName(K);
  }
  return L;
}

mir::MModule Pipeline::run(const mir::MModule &Baseline,
                           const DiversityOptions &Opts, uint64_t Seed,
                           PipelineStats *Stats) const {
  assert(!Kinds.empty() && "empty pipeline");
  PipelineStats Local;
  PipelineStats &S = Stats ? *Stats : Local;
  S = PipelineStats();
  mir::MModule Variant;
  // Historical single-transform streams reproduce byte-for-byte: {nop}
  // draws Rng(Seed), {shift} draws Rng(Seed ^ 0xb10c). Everything else
  // -- multi-transform lists and the history-free sched/regs
  // singletons -- draws the kind-keyed sub-stream
  // Rng(Seed).split(1 + K), so a transform's stream does not depend on
  // what else is in the list.
  if (Kinds.size() == 1 && (Kinds[0] == TransformKind::Nop ||
                            Kinds[0] == TransformKind::Shift)) {
    Rng Generator(Kinds[0] == TransformKind::Nop ? Seed : Seed ^ 0xb10cull);
    transformFor(Kinds[0]).applyTo(Baseline, Variant, Generator, Opts, S);
    return Variant;
  }
  Rng Base(Seed);
  for (size_t I = 0; I != Kinds.size(); ++I) {
    const Transform &T = transformFor(Kinds[I]);
    Rng Generator = Base.split(1 + static_cast<uint64_t>(Kinds[I]));
    if (I == 0)
      T.applyTo(Baseline, Variant, Generator, Opts, S);
    else
      T.apply(Variant, Generator, Opts, S);
  }
  return Variant;
}
