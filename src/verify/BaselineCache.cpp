//===-- verify/BaselineCache.cpp - Shared baseline run cache ---------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "verify/BaselineCache.h"

#include "analysis/Analysis.h"
#include "obs/Metrics.h"

#include <cassert>
#include <deque>
#include <mutex>

using namespace pgsd;
using namespace pgsd::verify;

struct BaselineCache::Entry {
  std::once_flag Once;
  mexec::RunResult Result;
  /// Release-published after the once body ran, so peek() can observe a
  /// completed Result without touching the once_flag.
  std::atomic<bool> Filled{false};
};

namespace {

using Stored = BaselineCache::Stored;

/// The process-wide battery memo: (key material, complete battery)
/// pairs in insertion order, so eviction drops the front.
struct BatteryMemo {
  std::mutex Lock;
  std::deque<std::pair<std::string, std::shared_ptr<const Stored>>> Table;

  std::shared_ptr<const Stored> find(const std::string &Key) {
    std::lock_guard<std::mutex> G(Lock);
    for (const auto &[K, R] : Table)
      if (K == Key)
        return R;
    return nullptr;
  }

  void store(const std::string &Key, std::shared_ptr<const Stored> R) {
    std::lock_guard<std::mutex> G(Lock);
    for (const auto &Entry : Table)
      if (Entry.first == Key)
        return; // A concurrent twin stored the same battery first.
    Table.emplace_back(Key, std::move(R));
    if (Table.size() > BaselineCache::MemoCapacity)
      Table.pop_front();
  }
};

BatteryMemo &memo() {
  static BatteryMemo M;
  return M;
}

/// Everything a baseline battery is a function of. The print cannot
/// contain NUL, so the module and the remaining fields never blur.
std::string memoKey(const mir::MModule &Baseline,
                    const std::vector<std::vector<int32_t>> &Battery,
                    uint64_t MaxSteps) {
  std::string K = mir::print(Baseline);
  K += '\0';
  appendBatteryMaterial(K, Battery, MaxSteps);
  return K;
}

} // namespace

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
                             const VerifyOptions &Opts, Memo M)
    : Baseline(&BaselineMod), MaxSteps(Opts.MaxSteps), Mode(M) {
  Battery = Opts.InputBattery.empty() ? defaultInputBattery()
                                      : Opts.InputBattery;
  Entries = std::make_unique<Entry[]>(Battery.size());
}

BaselineCache::~BaselineCache() = default;

const BaselineCache::Stored *BaselineCache::recalled() const {
  if (Mode != Memo::Shared)
    return nullptr;
  std::call_once(MemoOnce, [&] {
    obs::Span S("verify.baseline_memo_lookup");
    MemoKey = memoKey(*Baseline, Battery, MaxSteps);
    Recalled = memo().find(MemoKey);
    Consulted.store(true, std::memory_order_release);
  });
  return Recalled.get();
}

const BaselineCache::Stored *BaselineCache::recalledIfConsulted() const {
  return Consulted.load(std::memory_order_acquire) ? Recalled.get()
                                                   : nullptr;
}

uint64_t BaselineCache::reused() const {
  return recalledIfConsulted() ? Battery.size() : 0;
}

uint64_t BaselineCache::recall() const {
  recalled();
  return reused();
}

void BaselineCache::settle() const {
  // acq_rel: the increment that completes the battery synchronizes with
  // every earlier one, so all entries' Results are visible to it. Every
  // installing call consulted the memo first, so MemoKey is set.
  if (Settled.fetch_add(1, std::memory_order_acq_rel) + 1 != Battery.size() ||
      Mode != Memo::Shared)
    return;
  auto Complete = std::make_shared<Stored>();
  Complete->reserve(Battery.size());
  for (size_t I = 0; I != Battery.size(); ++I)
    Complete->push_back(Entries[I].Result);
  memo().store(MemoKey, std::move(Complete));
}

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
  if (const Stored *S = recalled()) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    return (*S)[Index];
  }
  Entry &E = Entries[Index];
  bool IRan = false;
  std::call_once(E.Once, [&] {
    std::call_once(CompileOnce, [&] {
      obs::Span S("verify.baseline_compile");
      Compiled.emplace(*Baseline);
    });
    mexec::RunOptions Run;
    Run.Input = Battery[Index];
    Run.CollectOutput = true;
    Run.MaxSteps = MaxSteps;
    E.Result = Compiled->run(Run);
    IRan = true;
  });
  if (IRan) {
    E.Filled.store(true, std::memory_order_release);
    Fills.fetch_add(1, std::memory_order_relaxed);
    settle();
  } else {
    Hits.fetch_add(1, std::memory_order_relaxed);
  }
  return E.Result;
}

bool BaselineCache::prewarm(size_t Index, const mexec::RunResult &R) {
  assert(Index < Battery.size() && "input index outside the battery");
  if (recalled())
    return false; // Every entry is already installed.
  Entry &E = Entries[Index];
  bool IRan = false;
  std::call_once(E.Once, [&] {
    E.Result = R;
    IRan = true;
  });
  if (IRan) {
    E.Filled.store(true, std::memory_order_release);
    Prewarmed.fetch_add(1, std::memory_order_relaxed);
    settle();
  }
  return IRan;
}

const mexec::RunResult *BaselineCache::peek(size_t Index) const {
  assert(Index < Battery.size() && "input index outside the battery");
  if (const Stored *S = recalledIfConsulted())
    return &(*S)[Index];
  const Entry &E = Entries[Index];
  if (!E.Filled.load(std::memory_order_acquire))
    return nullptr;
  return &E.Result;
}
