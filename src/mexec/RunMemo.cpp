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
#include <cstdint>
#include <future>
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
  /// The module with its NOPs deleted: one copy per module, shared by
  /// the entries of all its inputs.
  std::shared_ptr<const MModule> Base;
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
/// evicted first, and the fills in flight, so that concurrent misses on
/// one pair wait for a single fill instead of each running the base.
class Memo {
public:
  /// The entry for (\p Digest, \p Opts): a stored one, or the result of
  /// the fill of that pair already in flight, awaited without the lock
  /// (null when that fill found nothing to store). When there is
  /// neither, returns null with \p Claimed set: the caller fills the
  /// pair and must then call publish(). A claim also sets \p Sibling to
  /// the NOP-free copy a stored entry of another input keeps for the
  /// same digest, if any, for the fill to share.
  std::shared_ptr<const Entry> find(uint64_t Digest, const RunOptions &Opts,
                                    bool &Claimed,
                                    std::shared_ptr<const MModule> &Sibling) {
    std::shared_future<std::shared_ptr<const Entry>> Pending;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      for (Slot &S : Slots) {
        if (S.E->matches(Digest, Opts.Input, Opts.MaxSteps,
                         Opts.MaxCallDepth)) {
          S.LastUse = ++Clock;
          return S.E;
        }
        if (!Sibling && S.E->Digest == Digest)
          Sibling = S.E->Base;
      }
      for (const Fill &F : Fills) {
        if (F.matches(Digest, Opts)) {
          Pending = F.Result;
          break;
        }
      }
      if (!Pending.valid()) {
        Fill &F = Fills.emplace_back();
        F.Digest = Digest;
        F.Opts = &Opts;
        F.Result = F.Done.get_future().share();
        Claimed = true;
        return nullptr;
      }
    }
    return Pending.get();
  }

  /// Ends the fill of (\p Digest, \p Opts) that find() handed out,
  /// storing \p E when it is not null and waking its waiters. When a
  /// concurrent fill of another input stored its own copy of the same
  /// NOP-free module first, \p E adopts that copy.
  void publish(uint64_t Digest, const RunOptions &Opts,
               std::shared_ptr<Entry> E) {
    std::promise<std::shared_ptr<const Entry>> Done;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = std::find_if(Fills.begin(), Fills.end(), [&](const Fill &F) {
        return F.matches(Digest, Opts);
      });
      assert(It != Fills.end() && "publish without a claimed fill");
      Done = std::move(It->Done);
      Fills.erase(It);
      if (E) {
        for (const Slot &S : Slots) {
          if (S.E->Digest == Digest && S.E->Base != E->Base &&
              mir::equalModuloNops(*S.E->Base, *E->Base)) {
            E->Base = S.E->Base;
            break;
          }
        }
        insert(E);
      }
    }
    Done.set_value(std::move(E));
  }

private:
  struct Slot {
    std::shared_ptr<const Entry> E;
    uint64_t LastUse = 0;
  };
  /// A fill in flight. Opts points into the filling caller's frame,
  /// which outlives the fill.
  struct Fill {
    uint64_t Digest = 0;
    const RunOptions *Opts = nullptr;
    std::promise<std::shared_ptr<const Entry>> Done;
    std::shared_future<std::shared_ptr<const Entry>> Result;

    bool matches(uint64_t D, const RunOptions &O) const {
      return Digest == D && Opts->MaxSteps == O.MaxSteps &&
             Opts->MaxCallDepth == O.MaxCallDepth && Opts->Input == O.Input;
    }
  };

  /// Stores \p E in the least recently used slot. Called with the lock.
  void insert(std::shared_ptr<const Entry> E) {
    Slot *Victim = nullptr;
    if (Slots.size() == RunMemoCapacity)
      Victim = &*std::min_element(
          Slots.begin(), Slots.end(),
          [](const Slot &A, const Slot &B) { return A.LastUse < B.LastUse; });
    else
      Victim = &Slots.emplace_back();
    Victim->E = std::move(E);
    Victim->LastUse = ++Clock;
  }

  std::mutex Mutex;
  std::vector<Slot> Slots;
  std::vector<Fill> Fills;
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

/// Runs the NOP-free form of \p M, counting segment entries: \p Sibling
/// when M is it plus single NOPs, else a fresh copy. Null when \p M is
/// not that form plus single NOPs.
std::shared_ptr<Entry> fill(const MModule &M, uint64_t Digest,
                            const RunOptions &Opts,
                            std::shared_ptr<const MModule> Sibling) {
  auto E = std::make_shared<Entry>();
  if (Sibling && mir::equalModuloNops(*Sibling, M))
    E->Base = std::move(Sibling);
  else if (auto Own = std::make_shared<const MModule>(stripNops(M));
           mir::equalModuloNops(*Own, M)) {
    E->Base = std::move(Own);
    obs::counterAdd("mexec.run_memo.copies");
  } else {
    return nullptr;
  }
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
  Precompiled P(*E->Base);
  E->Run = P.runCountingSegments(Counted, E->Counts);
  E->Segmented = P.numSegments() ==
                 forEachSegmentInstr(*E->Base, [](uint32_t, const MInstr &) {});
  obs::counterAdd("mexec.run_memo.fills");
  return E;
}

/// The run of \p M derived from \p E, or nullopt when \p M is not E.Base
/// plus single NOPs or its run cannot be derived. One walk checks
/// mir::equalModuloNops against E.Base and charges each NOP its
/// segment's entries, numbering segments as forEachSegmentInstr does.
std::optional<RunResult> derive(const Entry &E, const MModule &M,
                                const RunOptions &Opts) {
  const CostModel C;
  const bool Usable = !E.Run.Trapped && E.Segmented;
  uint64_t Nops = 0, Instrs = 0, Cycles = 0;
  uint32_t Next = 0;
  for (const MFunction &F : M.Functions)
    Next += static_cast<uint32_t>(F.Blocks.size());
  uint32_t Block = UINT32_MAX, Seg = 0;
  const bool Equal = mir::equalModuloNops(
      *E.Base, M, [&](uint32_t FlatBlock, const MInstr &I, bool Last) {
        if (FlatBlock != Block)
          Block = Seg = FlatBlock;
        if (I.Op != MOp::Nop) {
          if (endsSegment(I) && !Last)
            Seg = Next++;
          return;
        }
        ++Nops;
        if (!Usable)
          return;
        assert(Seg < E.Counts.size() && "segment numbering out of step");
        const uint64_t N = E.Counts[Seg];
        Instrs += N;
        Cycles += N * (x86::nopInfo(I.NopK).LocksBus ? C.XchgNop : C.Nop);
      });
  // Without NOPs the module runs exactly as Base, trap included.
  if (!Equal || (Nops != 0 && (!Usable ||
                               E.Run.Instructions + Instrs > Opts.MaxSteps)))
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
    const uint64_t *Counts = E.Counts.data();
    R.BlockCounts.resize(M.Functions.size());
    for (size_t F = 0; F != M.Functions.size(); ++F) {
      R.BlockCounts[F].assign(Counts, Counts + M.Functions[F].Blocks.size());
      Counts += M.Functions[F].Blocks.size();
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
  // A fill that found nothing to store hands its waiters null; they
  // look again, and one of them claims the next fill.
  std::shared_ptr<const Entry> E;
  std::shared_ptr<const MModule> Sibling;
  bool Claimed = false;
  while (!E && !Claimed)
    E = memo().find(Digest, Opts, Claimed, Sibling);
  if (Claimed) {
    std::shared_ptr<Entry> Filled;
    try {
      Filled = fill(M, Digest, Opts, std::move(Sibling));
    } catch (...) {
      memo().publish(Digest, Opts, nullptr);
      throw;
    }
    memo().publish(Digest, Opts, Filled);
    if (!Filled)
      return Plain();
    E = std::move(Filled);
  }
  std::optional<RunResult> R = derive(*E, M, Opts);
  if (!R)
    return Plain();
  obs::counterAdd("mexec.run_memo.derived");
  return std::move(*R);
}
