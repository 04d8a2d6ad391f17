//===-- mexec/RunMemo.cpp - Runs of NOP-only variants, derived -------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "mexec/RunMemo.h"

#include "mexec/Precompiled.h"
#include "obs/Metrics.h"
#include "x86/Nops.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <optional>

using namespace pgsd;
using namespace pgsd::mexec;
using namespace pgsd::mir;

namespace {

/// One stored run of a NOP-free module. Immutable once in the memo.
struct Entry {
  uint64_t Digest = 0; ///< mir::hashModuloNops of Base.
  MModule Base;        ///< The module with its NOPs deleted.
  std::vector<int32_t> Input;
  uint64_t MaxSteps = 0;
  uint32_t MaxCallDepth = 0;
  RunResult Run;                ///< Base's run, with its output.
  std::vector<uint64_t> Counts; ///< Entries into each segment of Base.
  /// Counts are numbered as forEachSegmentInstr numbers Base.
  bool Segmented = false;

  bool matches(uint64_t D, const std::vector<int32_t> &In, uint64_t Steps,
               uint32_t Depth) const {
    return Digest == D && MaxSteps == Steps && MaxCallDepth == Depth &&
           Input == In;
  }
};

/// The process-wide memo: RunMemoCapacity slots, least recently used
/// evicted first.
class Memo {
public:
  std::shared_ptr<const Entry> find(uint64_t Digest, const RunOptions &Opts) {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (Slot &S : Slots) {
      if (S.E->matches(Digest, Opts.Input, Opts.MaxSteps,
                       Opts.MaxCallDepth)) {
        S.LastUse = ++Clock;
        return S.E;
      }
    }
    return nullptr;
  }

  void insert(std::shared_ptr<const Entry> E) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Slot *Victim = nullptr;
    for (Slot &S : Slots)
      if (S.E->matches(E->Digest, E->Input, E->MaxSteps, E->MaxCallDepth))
        Victim = &S; // a concurrent fill of the same pair
    if (!Victim && Slots.size() == RunMemoCapacity)
      Victim = &*std::min_element(
          Slots.begin(), Slots.end(),
          [](const Slot &A, const Slot &B) { return A.LastUse < B.LastUse; });
    if (!Victim)
      Victim = &Slots.emplace_back();
    Victim->E = std::move(E);
    Victim->LastUse = ++Clock;
  }

private:
  struct Slot {
    std::shared_ptr<const Entry> E;
    uint64_t LastUse = 0;
  };
  std::mutex Mutex;
  std::vector<Slot> Slots;
  uint64_t Clock = 0;
};

Memo &memo() {
  static Memo M;
  return M;
}

MModule stripNops(const MModule &M) {
  MModule Out = M;
  for (MFunction &F : Out.Functions)
    for (MBasicBlock &BB : F.Blocks)
      std::erase_if(BB.Instrs,
                    [](const MInstr &I) { return I.Op == MOp::Nop; });
  return Out;
}

/// Runs the NOP-free form of \p M, counting segment entries, and stores
/// the run. Null when \p M is not that form plus single NOPs.
std::shared_ptr<const Entry> fill(const MModule &M, uint64_t Digest,
                                  const RunOptions &Opts) {
  auto E = std::make_shared<Entry>();
  E->Base = stripNops(M);
  if (!mir::equalModuloNops(E->Base, M))
    return nullptr;
  E->Digest = Digest;
  E->Input = Opts.Input;
  E->MaxSteps = Opts.MaxSteps;
  E->MaxCallDepth = Opts.MaxCallDepth;
  // Output is kept whether or not this caller wants it, so one entry
  // answers both kinds of call; block counts are the first segment
  // counts.
  RunOptions Counted = Opts;
  Counted.CollectOutput = true;
  Counted.CollectBlockCounts = false;
  Precompiled P(E->Base);
  E->Run = P.runCountingSegments(Counted, E->Counts);
  E->Segmented = P.numSegments() ==
                 forEachSegmentInstr(E->Base, [](uint32_t, const MInstr &) {});
  obs::counterAdd("mexec.run_memo.fills");
  memo().insert(E);
  return E;
}

/// The run of \p M, which is E.Base plus single NOPs, or nullopt when it
/// cannot be derived.
std::optional<RunResult> derive(const Entry &E, const MModule &M,
                                const RunOptions &Opts) {
  const CostModel C;
  const bool Usable = !E.Run.Trapped && E.Segmented;
  uint64_t Nops = 0, Instrs = 0, Cycles = 0;
  forEachSegmentInstr(M, [&](uint32_t Seg, const MInstr &I) {
    if (I.Op != MOp::Nop)
      return;
    ++Nops;
    if (!Usable)
      return;
    assert(Seg < E.Counts.size() && "segment numbering out of step");
    const uint64_t N = E.Counts[Seg];
    Instrs += N;
    Cycles += N * (x86::nopInfo(I.NopK).LocksBus ? C.XchgNop : C.Nop);
  });
  // Without NOPs the module runs exactly as Base, trap included.
  if (Nops != 0 &&
      (!Usable || E.Run.Instructions + Instrs > Opts.MaxSteps))
    return std::nullopt;

  const RunResult &B = E.Run;
  RunResult R;
  R.Trapped = B.Trapped;
  R.Trap = B.Trap;
  R.TrapReason = B.TrapReason;
  R.ExitCode = B.ExitCode;
  R.Cycles10 = B.Cycles10 + Cycles;
  R.Instructions = B.Instructions + Instrs;
  R.Checksum = B.Checksum;
  if (Opts.CollectOutput)
    R.Output = B.Output;
  R.Counters = B.Counters;
  if (Opts.CollectBlockCounts) {
    const uint64_t *Next = E.Counts.data();
    R.BlockCounts.resize(M.Functions.size());
    for (size_t F = 0; F != M.Functions.size(); ++F) {
      R.BlockCounts[F].assign(Next, Next + M.Functions[F].Blocks.size());
      Next += M.Functions[F].Blocks.size();
    }
  }
  return R;
}

} // namespace

RunResult mexec::runMemoized(const MModule &M, const RunOptions &Opts) {
  auto Plain = [&] {
    obs::counterAdd("mexec.run_memo.fallbacks");
    return Precompiled(M, Opts.Costs).run(Opts);
  };
  if (Opts.Cancel || !(Opts.Costs == CostModel()))
    return Plain();
  const uint64_t Digest = mir::hashModuloNops(M);
  std::shared_ptr<const Entry> E = memo().find(Digest, Opts);
  if (E && !mir::equalModuloNops(E->Base, M))
    return Plain();
  if (!E && !(E = fill(M, Digest, Opts)))
    return Plain();
  std::optional<RunResult> R = derive(*E, M, Opts);
  if (!R)
    return Plain();
  obs::counterAdd("mexec.run_memo.derived");
  return std::move(*R);
}
