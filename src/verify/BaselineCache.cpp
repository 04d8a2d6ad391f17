//===-- verify/BaselineCache.cpp - Shared baseline run cache ---------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "verify/BaselineCache.h"

#include "analysis/Analysis.h"
#include "mexec/RunMemo.h"

#include <cassert>

using namespace pgsd;
using namespace pgsd::verify;

struct BaselineCache::Entry {
  std::once_flag Once;
  mexec::RunResult Result;
  /// Release-published after the once body ran, so peek() can observe a
  /// completed Result without touching the once_flag.
  std::atomic<bool> Filled{false};
};

void verify::appendBatteryMaterial(
    std::string &Out, const std::vector<std::vector<int32_t>> &Battery,
    uint64_t MaxSteps) {
  // Every field is decimal and terminated, and each input carries its
  // length, so the serialization is prefix-free.
  Out += std::to_string(MaxSteps);
  Out += '\n';
  Out += std::to_string(Battery.size());
  Out += '\n';
  for (const std::vector<int32_t> &Input : Battery) {
    Out += std::to_string(Input.size());
    Out += ':';
    for (int32_t V : Input) {
      Out += std::to_string(V);
      Out += ',';
    }
    Out += '\n';
  }
}

BaselineCache::BaselineCache(const mir::MModule &BaselineMod,
                             const VerifyOptions &Opts)
    : Baseline(&BaselineMod), MaxSteps(Opts.MaxSteps) {
  Battery = Opts.InputBattery.empty() ? defaultInputBattery()
                                      : Opts.InputBattery;
  Entries = std::make_unique<Entry[]>(Battery.size());
}

BaselineCache::~BaselineCache() = default;

bool BaselineCache::analysisClean() const {
  std::call_once(AnalysisOnce,
                 [&] { Clean = analysis::analyzeModule(*Baseline).ok(); });
  return Clean;
}

bool BaselineCache::livenessProved() const {
  std::call_once(LivenessOnce, [&] {
    Liveness = analysis::analyzeModule(
                   *Baseline, analysis::AnalysisOptions::only(
                                  analysis::CheckerKind::RegLiveness))
                   .ok();
  });
  return Liveness;
}

const mexec::RunResult &BaselineCache::baselineRun(size_t Index) const {
  assert(Index < Battery.size() && "input index outside the battery");
  Entry &E = Entries[Index];
  bool IRan = false;
  std::call_once(E.Once, [&] {
    mexec::RunOptions Run;
    Run.Input = Battery[Index];
    Run.CollectOutput = true;
    Run.MaxSteps = MaxSteps;
    E.Result = mexec::runMemoized(*Baseline, Run);
    IRan = true;
  });
  if (IRan) {
    E.Filled.store(true, std::memory_order_release);
    Fills.fetch_add(1, std::memory_order_relaxed);
  } else {
    Hits.fetch_add(1, std::memory_order_relaxed);
  }
  return E.Result;
}

bool BaselineCache::prewarm(size_t Index, const mexec::RunResult &R) {
  assert(Index < Battery.size() && "input index outside the battery");
  Entry &E = Entries[Index];
  bool IRan = false;
  std::call_once(E.Once, [&] {
    E.Result = R;
    IRan = true;
  });
  if (IRan) {
    E.Filled.store(true, std::memory_order_release);
    Prewarmed.fetch_add(1, std::memory_order_relaxed);
  }
  return IRan;
}

const mexec::RunResult *BaselineCache::peek(size_t Index) const {
  assert(Index < Battery.size() && "input index outside the battery");
  const Entry &E = Entries[Index];
  if (!E.Filled.load(std::memory_order_acquire))
    return nullptr;
  return &E.Result;
}
