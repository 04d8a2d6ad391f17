//===-- nvx/Nvx.cpp - N-variant lockstep execution -------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "nvx/Nvx.h"

#include "driver/Batch.h"
#include "mexec/Precompiled.h"
#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Time.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

using namespace pgsd;
using namespace pgsd::nvx;

const char *nvx::votePolicyName(VotePolicy P) {
  switch (P) {
  case VotePolicy::Majority:
    return "majority";
  case VotePolicy::Unanimous:
    return "unanimous";
  }
  return "unknown";
}

bool nvx::parseVotePolicy(const std::string &Name, VotePolicy &Out) {
  if (Name == "majority") {
    Out = VotePolicy::Majority;
    return true;
  }
  if (Name == "unanimous") {
    Out = VotePolicy::Unanimous;
    return true;
  }
  return false;
}

const char *nvx::roundOutcomeName(RoundOutcome O) {
  switch (O) {
  case RoundOutcome::Consensus:
    return "consensus";
  case RoundOutcome::MaskedFault:
    return "masked-fault";
  case RoundOutcome::NoQuorum:
    return "no-quorum";
  }
  return "unknown";
}

Signature nvx::signatureOf(const mexec::RunResult &R) {
  Signature S;
  S.Trapped = R.Trapped;
  S.Trap = R.Trap;
  S.ExitCode = R.ExitCode;
  S.Checksum = R.Checksum;
  S.Output = R.Output;
  return S;
}

VoteResult nvx::vote(const std::vector<Signature> &Sigs,
                     VotePolicy Policy) {
  VoteResult V;
  V.Divergent.assign(Sigs.size(), 0);
  if (Sigs.empty())
    return V; // NoQuorum: nobody voted.

  // Plurality by pairwise comparison; K is small (a handful of
  // replicas), so O(K^2) beats hashing whole output strings.
  for (size_t I = 0; I != Sigs.size(); ++I) {
    unsigned Count = 0;
    for (const Signature &S : Sigs)
      if (S == Sigs[I])
        ++Count;
    if (Count > V.WinnerCount) {
      V.WinnerCount = Count;
      V.WinnerIndex = I;
    }
  }
  for (size_t I = 0; I != Sigs.size(); ++I)
    V.Divergent[I] = Sigs[I] == Sigs[V.WinnerIndex] ? 0 : 1;

  if (V.WinnerCount == Sigs.size())
    V.Outcome = RoundOutcome::Consensus;
  else if (Policy == VotePolicy::Majority &&
           2 * V.WinnerCount > Sigs.size())
    V.Outcome = RoundOutcome::MaskedFault;
  else
    V.Outcome = RoundOutcome::NoQuorum; // Unanimous, or no majority.
  return V;
}

namespace {

/// One replica slot. Slots live in a fixed-size vector that is never
/// resized, so the Precompiled stream's back-pointer into MIR stays
/// valid for the slot's lifetime; (re)installing a module resets the
/// engine first.
struct Replica {
  mir::MModule MIR;
  std::unique_ptr<mexec::Precompiled> Compiled;
  uint64_t Seed = 0;
  unsigned LostVotes = 0; ///< Consecutive divergences.
  bool Alive = false;
};

/// Drops a (possibly tampered or respawned) module into \p Slot and
/// precompiles it. Returns false -- leaving the slot dead, engine-less
/// -- when the module no longer passes mir::verify: the reference
/// engine asserts module validity and the fast engine assumes it, so a
/// corrupted module must be rejected at load time, never executed.
bool installModule(Replica &Slot, mir::MModule &&M, uint64_t Seed) {
  Slot.Compiled.reset();
  Slot.MIR = std::move(M);
  Slot.Seed = Seed;
  Slot.LostVotes = 0;
  Slot.Alive = mir::verify(Slot.MIR).empty();
  if (Slot.Alive)
    Slot.Compiled = std::make_unique<mexec::Precompiled>(Slot.MIR);
  return Slot.Alive;
}

/// Histogram bounds for nvx.vote_latency_seconds: sub-millisecond
/// rounds up to watchdog-scale stalls.
constexpr double VoteLatencyBounds[] = {0.0001, 0.001, 0.01,
                                        0.1,    1.0,   10.0};

} // namespace

NvxResult nvx::runLockstep(const driver::Program &P,
                           const std::vector<std::vector<int32_t>> &Battery,
                           const NvxOptions &Opts) {
  NvxResult R;
  const unsigned K = Opts.Replicas == 0 ? 1 : Opts.Replicas;
  R.ReplicasRequested = K;

  const std::vector<std::vector<int32_t>> &Inputs =
      Battery.empty() ? verify::defaultInputBattery() : Battery;

  const bool Obs = obs::enabled();

  // Respawn verification: the nvx-level RetrySchedule is the bounded
  // retry (fresh base seed per attempt, seed-space backoff), so the
  // inner factory gets exactly one attempt per drawn seed.
  verify::VerifyOptions RespawnVerify = Opts.Verify;
  RespawnVerify.MaxAttempts = 1;
  // Respawn base-seed cursor: starts past the spawn seeds and advances
  // by one budget per ejection, so successive respawns (and reruns with
  // the same options) draw a deterministic, non-overlapping sequence.
  uint64_t RespawnCursor = Opts.BaseSeed + K;
  const unsigned RespawnBudget =
      Opts.RespawnAttempts == 0 ? 1 : Opts.RespawnAttempts;

  std::vector<Replica> Slots(K);

  auto respawnSlot = [&](Replica &Slot) {
    ++R.Ejections;
    verify::RetrySchedule Schedule(RespawnCursor, RespawnBudget,
                                   Opts.RespawnSeedStride);
    RespawnCursor += RespawnBudget;
    while (!Schedule.exhausted()) {
      uint64_t S = Schedule.next();
      driver::VerifiedVariant VV = driver::makeVariantVerified(
          P, Opts.Pipeline, Opts.Diversity, S, RespawnVerify, Opts.Link);
      // Only a verified *diversified* replacement may join the quorum;
      // a baseline fallback would weaken the population it monitors.
      if (VV.ok() && installModule(Slot, std::move(VV.V.MIR), S)) {
        ++R.Respawns;
        return true;
      }
    }
    ++R.RespawnFailures;
    Slot.Alive = false;
    Slot.Compiled.reset();
    return false;
  };

  // --- Spawn phase: K verified replicas via the parallel factory. ---
  {
    obs::Span S(Obs ? "nvx.spawn" : nullptr);
    double SpawnStart = support::monotonicSeconds();
    std::vector<uint64_t> Seeds(K);
    for (unsigned I = 0; I != K; ++I)
      Seeds[I] = Opts.BaseSeed + I;
    driver::BatchOptions BOpts;
    BOpts.Jobs = Opts.Jobs;
    BOpts.Verify = Opts.Verify;
    BOpts.Link = Opts.Link;
    driver::BatchResult Batch = driver::makeVariantsBatch(
        P, Opts.Pipeline, Opts.Diversity, Seeds, BOpts);
    for (unsigned I = 0; I != K; ++I) {
      driver::VerifiedVariant &VV = Batch.Variants[I];
      if (VV.UsedFallback)
        ++R.SpawnFallbacks;
      installModule(Slots[I], std::move(VV.V.MIR), VV.SeedUsed);
      if (Opts.TamperReplica && Slots[I].Alive) {
        // The seam mutates the module after verification -- exactly the
        // window an attacker or bitflip would hit. Reinstall to re-run
        // the load-time check and rebuild the engine over the mutation.
        mir::MModule Tampered = std::move(Slots[I].MIR);
        Opts.TamperReplica(I, Tampered);
        if (!installModule(Slots[I], std::move(Tampered), VV.SeedUsed)) {
          ++R.LoadRejections;
          respawnSlot(Slots[I]);
        }
      }
    }
    R.SpawnWallSeconds = support::elapsedSeconds(
        SpawnStart, support::monotonicSeconds());
  }

  // --- Lockstep phase. ---
  const unsigned PoolJobs =
      Opts.Jobs == 0
          ? std::min(K, support::ThreadPool::defaultConcurrency())
          : Opts.Jobs;
  std::unique_ptr<support::ThreadPool> Pool;
  if (PoolJobs > 1)
    Pool = std::make_unique<support::ThreadPool>(PoolJobs);
  // The watchdog needs the monitor thread free to watch the clock, so
  // inline (Jobs == 1) sessions run on step budgets alone.
  const bool UseWatchdog = Pool && Opts.TimeoutSeconds > 0.0;

  std::mutex RoundMutex;
  std::condition_variable RoundDone;

  obs::Span LockstepSpan(Obs ? "nvx.lockstep" : nullptr);
  double LockstepStart = support::monotonicSeconds();
  double LockstepCpuStart = support::processCpuSeconds();
  R.Records.reserve(Inputs.size());
  for (size_t InputIdx = 0; InputIdx != Inputs.size(); ++InputIdx) {
    double RoundStart = support::monotonicSeconds();
    std::atomic<bool> CancelFlag{false};
    std::vector<mexec::RunResult> Results(K);
    std::vector<unsigned> Voters; // Slot indices that ran this round.
    for (unsigned I = 0; I != K; ++I)
      if (Slots[I].Alive)
        Voters.push_back(I);

    mexec::RunOptions RO;
    RO.Input = Inputs[InputIdx];
    RO.MaxSteps = Opts.StepBudget;
    RO.CollectOutput = true;
    RO.Cancel = &CancelFlag;

    if (Pool) {
      unsigned Done = 0;
      for (unsigned I : Voters)
        Pool->enqueue([&, I] {
          mexec::RunResult RR;
          try {
            RR = Slots[I].Compiled->run(RO);
          } catch (...) {
            // The vote must make progress even if a replica run throws
            // (bad_alloc under memory pressure): synthesize a trapped
            // result -- it loses the vote like any other fault.
            RR.Trapped = true;
            RR.Trap = mexec::TrapKind::BadInstruction;
            RR.TrapReason = "replica execution threw";
          }
          std::unique_lock<std::mutex> Lock(RoundMutex);
          Results[I] = std::move(RR);
          ++Done;
          RoundDone.notify_all();
        });
      std::unique_lock<std::mutex> Lock(RoundMutex);
      auto AllDone = [&] { return Done == Voters.size(); };
      if (UseWatchdog &&
          !RoundDone.wait_for(Lock,
                              std::chrono::duration<double>(
                                  Opts.TimeoutSeconds),
                              AllDone)) {
        // Timeout: cancel every straggler, then drain. The cancel flag
        // bounds the drain -- a looping replica reaches a poll point
        // within CancelPollStride instructions.
        CancelFlag.store(true, std::memory_order_relaxed);
        RoundDone.wait(Lock, AllDone);
      } else if (!UseWatchdog) {
        RoundDone.wait(Lock, AllDone);
      }
    } else {
      for (unsigned I : Voters)
        Results[I] = Slots[I].Compiled->run(RO);
    }

    // --- Vote. ---
    std::vector<Signature> Sigs;
    Sigs.reserve(Voters.size());
    for (unsigned I : Voters)
      Sigs.push_back(signatureOf(Results[I]));
    VoteResult V = vote(Sigs, Opts.Policy);

    RoundRecord Rec;
    Rec.InputIndex = InputIdx;
    Rec.Outcome = V.Outcome;
    Rec.Voters = static_cast<unsigned>(Voters.size());
    for (size_t VI = 0; VI != Voters.size(); ++VI) {
      if (Results[Voters[VI]].Trap == mexec::TrapKind::Cancelled)
        ++Rec.Timeouts;
      if (V.Divergent[VI])
        ++Rec.Divergent;
    }

    ++R.Rounds;
    switch (V.Outcome) {
    case RoundOutcome::Consensus:
      ++R.ConsensusRounds;
      break;
    case RoundOutcome::MaskedFault:
      ++R.MaskedFaultRounds;
      break;
    case RoundOutcome::NoQuorum:
      ++R.NoQuorumRounds;
      break;
    }
    R.Divergences += Rec.Divergent;
    R.Timeouts += Rec.Timeouts;

    // --- Degrade: eject persistent losers, respawn replacements. ---
    for (size_t VI = 0; VI != Voters.size(); ++VI) {
      Replica &Slot = Slots[Voters[VI]];
      if (!V.Divergent[VI]) {
        Slot.LostVotes = 0;
        continue;
      }
      if (++Slot.LostVotes >= (Opts.EjectAfter == 0 ? 1u
                                                    : Opts.EjectAfter))
        respawnSlot(Slot);
    }

    double RoundWall = support::elapsedSeconds(
        RoundStart, support::monotonicSeconds());
    if (Obs)
      obs::histogramObserve("nvx.vote_latency_seconds", RoundWall,
                            VoteLatencyBounds);
    R.Records.push_back(Rec);
  }

  R.LockstepWallSeconds = support::elapsedSeconds(
      LockstepStart, support::monotonicSeconds());
  R.LockstepCpuSeconds = support::elapsedSeconds(
      LockstepCpuStart, support::processCpuSeconds());

  for (const Replica &Slot : Slots)
    if (Slot.Alive) {
      ++R.ActiveReplicas;
      R.FinalSeeds.push_back(Slot.Seed);
    }

  if (Obs) {
    obs::counterAdd("nvx.rounds", R.Rounds);
    obs::counterAdd("nvx.rounds_consensus", R.ConsensusRounds);
    obs::counterAdd("nvx.rounds_masked", R.MaskedFaultRounds);
    obs::counterAdd("nvx.rounds_no_quorum", R.NoQuorumRounds);
    obs::counterAdd("nvx.divergences", R.Divergences);
    obs::counterAdd("nvx.timeouts", R.Timeouts);
    obs::counterAdd("nvx.ejections", R.Ejections);
    obs::counterAdd("nvx.respawns", R.Respawns);
    obs::counterAdd("nvx.respawn_failures", R.RespawnFailures);
    obs::counterAdd("nvx.load_rejections", R.LoadRejections);
    obs::counterAdd("nvx.spawn_fallbacks", R.SpawnFallbacks);
    obs::gaugeSet("nvx.replicas", R.ReplicasRequested);
    obs::gaugeSet("nvx.active_replicas", R.ActiveReplicas);
  }
  return R;
}
