//===-- driver/Driver.cpp - End-to-end pipeline facade ---------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "analysis/Analysis.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "lir/ISel.h"
#include "mexec/RunMemo.h"
#include "obs/Metrics.h"
#include "passes/Passes.h"
#include "verify/BaselineCache.h"

#include <cstdio>
#include <optional>
#include <utility>

using namespace pgsd;
using namespace pgsd::driver;

const std::vector<codegen::FunctionCode> *
BaselineCode::get(const mir::MModule &MIR) const {
  if (!S)
    return nullptr;
  std::call_once(S->Once, [&] {
    S->Functions.resize(MIR.Functions.size());
    for (size_t F = 0; F != MIR.Functions.size(); ++F) {
      codegen::emitFunction(MIR.Functions[F], S->Functions[F]);
      // The emitter reserves its worst case; the copy kept for the
      // program's lifetime keeps only its bytes.
      S->Functions[F].Bytes.shrink_to_fit();
    }
  });
  return &S->Functions;
}

Program driver::compileProgram(std::string_view Source,
                               const std::string &Name, bool Optimize) {
  Program P;
  P.Name = Name;
  std::vector<frontend::Diag> Diags;
  {
    obs::Span S("pipeline.frontend");
    P.IR = frontend::compileToIR(Source, Name, Diags);
  }
  if (!Diags.empty()) {
    P.Diags.add(verify::ErrorCode::ParseError,
                frontend::formatDiags(Diags));
    return P;
  }
  std::string Problem = ir::verify(P.IR);
  if (!Problem.empty()) {
    P.Diags.add(verify::ErrorCode::IRInvalid,
                "internal error: IR does not verify: " + Problem);
    return P;
  }
  if (Optimize) {
    obs::Span S("pipeline.passes");
    passes::optimize(P.IR);
  }
  {
    obs::Span S("pipeline.isel");
    P.MIR = lir::selectInstructions(P.IR);
    // Passes expose each other's opportunities (a dead store uncovers a
    // dead constant materialization); iterate to a bounded fixpoint.
    for (unsigned Iter = 0; Iter != 4 && lir::peephole(P.MIR) != 0;
         ++Iter)
      ;
  }
  Problem = mir::verify(P.MIR);
  if (!Problem.empty()) {
    P.Diags.add(verify::ErrorCode::MIRInvalid,
                "internal error: MIR does not verify: " + Problem);
    return P;
  }
  // The baseline MIR must already uphold every invariant the analyzer
  // proves; a diagnostic here is a backend bug, not a diversity bug.
  {
    obs::Span S("pipeline.analyze");
    P.Diags.merge(analysis::analyzeModule(P.MIR));
  }
  obs::counterAdd("driver.programs_compiled");
  return P;
}

bool driver::profileAndStamp(Program &P,
                             const std::vector<int32_t> &TrainInput) {
  obs::Span S("pipeline.profile");
  mexec::RunOptions Opts;
  Opts.Input = TrainInput;
  profile::ProfileData Data = profile::profileModule(P.MIR, Opts);
  if (Data.empty() || !profile::applyCounts(P.MIR, Data))
    return false;
  P.HasProfile = true;
  obs::counterAdd("driver.programs_trained");
  return true;
}

Variant driver::makeVariant(const Program &P,
                            const diversity::Pipeline &Pipe,
                            const diversity::DiversityOptions &Opts,
                            uint64_t Seed,
                            const codegen::LinkOptions &Link) {
  Variant V;
  {
    obs::Span S("pipeline.diversify");
    V.MIR = Pipe.run(P.MIR, Opts, Seed, &V.Pipeline);
  }
  {
    obs::Span S("pipeline.emit");
    const std::vector<codegen::FunctionCode> *Base = nullptr;
    if (Pipe.kinds().size() == 1 &&
        Pipe.kinds()[0] == diversity::TransformKind::Nop)
      Base = P.Code.get(P.MIR);
    V.Image = Base ? codegen::linkSpliced(V.MIR, P.MIR, *Base, Link)
                   : codegen::link(V.MIR, Link);
  }
  return V;
}

Variant driver::makeVariant(const Program &P,
                            const diversity::DiversityOptions &Opts,
                            uint64_t Seed,
                            const codegen::LinkOptions &Link) {
  return makeVariant(P, diversity::Pipeline(), Opts, Seed, Link);
}

codegen::Image driver::linkBaseline(const Program &P,
                                    const codegen::LinkOptions &Link) {
  obs::Span S("pipeline.emit");
  return codegen::link(P.MIR, Link);
}

mexec::RunResult driver::execute(const mir::MModule &MIR,
                                 const std::vector<int32_t> &Input,
                                 bool CollectOutput, mexec::Engine E) {
  mexec::RunOptions Opts;
  Opts.Input = Input;
  Opts.CollectOutput = CollectOutput;
  if (E == mexec::Engine::Reference)
    return mexec::run(MIR, Opts);
  return mexec::runMemoized(MIR, Opts);
}

VerifiedVariant
driver::makeVariantVerified(const Program &P,
                            const diversity::Pipeline &Pipe,
                            const diversity::DiversityOptions &Opts,
                            uint64_t Seed,
                            const verify::VerifyOptions &VOpts,
                            const codegen::LinkOptions &Link) {
  VerifiedVariant Out;
  verify::VerifyOptions Effective = VOpts;
  Effective.Link = Link;
  // Every retry attempt diffs against the same baseline on the same
  // battery; share one baseline run cache across the whole retry loop
  // (unless the caller -- e.g. makeVariantsBatch -- already supplied a
  // wider-scoped one). The process-wide run memo carries its runs across
  // calls, so repeated calls for one program run its baseline battery
  // once.
  std::optional<verify::BaselineCache> LocalCache;
  if (!Effective.Cache)
    Effective.Cache = &LocalCache.emplace(P.MIR, Effective);
  // A local cache's accounting is final once the attempts are done; a
  // caller's cache is exported by the caller.
  auto ExportLocalCache = [&] {
    if (!LocalCache)
      return;
    obs::counterAdd("verify.diff_identical", LocalCache->identical());
  };
  // One schedule object walks the attempt seeds; with the default
  // SeedStride of 0 this reproduces the historical
  // deriveRetrySeed(Seed, Attempt) sequence exactly.
  verify::RetrySchedule Schedule(Seed, VOpts.MaxAttempts,
                                 VOpts.SeedStride);
  while (!Schedule.exhausted()) {
    unsigned Attempt = Schedule.attemptsMade();
    uint64_t S = Schedule.next();
    Variant V = makeVariant(P, Pipe, Opts, S, Link);
    if (Effective.InjectFault)
      Effective.InjectFault(V.MIR, V.Image, S);
    obs::counterAdd("verify.attempts");
    verify::Report R;
    bool ModuloNops = false;
    {
      obs::Span VS("pipeline.verify");
      R = verify::verifyVariant(P.MIR, V.MIR, V.Image, Effective,
                                V.Pipeline.Regs.Renamings, &ModuloNops);
    }
    Out.Attempts = Attempt + 1;
    if (R.ok()) {
      Out.V = std::move(V);
      Out.SeedUsed = S;
      Out.ModuloNops = ModuloNops;
      obs::counterAdd("verify.accepted");
      ExportLocalCache();
      return Out;
    }
    obs::counterAdd("verify.rejected_attempts");
    // Prefix each rejected attempt's diagnostics so a multi-attempt
    // report reads as a timeline.
    char Prefix[64];
    std::snprintf(Prefix, sizeof(Prefix), "attempt %u (seed %llu): ",
                  Attempt + 1, static_cast<unsigned long long>(S));
    for (verify::Diagnostic &D : R.Diags)
      Out.Report.add(D.Code, Prefix + D.Context);
  }
  // Every attempt failed: degrade to the undiversified baseline image
  // rather than shipping an unverified variant or nothing at all.
  obs::counterAdd("verify.fallbacks");
  ExportLocalCache();
  Out.UsedFallback = true;
  Out.SeedUsed = Seed;
  Out.V.MIR = P.MIR;
  Out.V.Image = linkBaseline(P, Link);
  Out.V.Pipeline = diversity::PipelineStats();
  Out.Report.add(verify::ErrorCode::RetriesExhausted,
                 "all " + std::to_string(Schedule.budget()) +
                     " attempts failed verification; emitting "
                     "undiversified baseline image");
  return Out;
}
