//===-- tools/metrics_check.cpp - Validate exported metrics JSON -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Standalone validator for pgsd-metrics-v1 files:
//
//   metrics_check metrics.json [--batch] [--nvx] [--equiv] [--transforms]
//                              [--gadget] [--serve] [--diversify]
//
// Checks, in order:
//  1. The file is syntactically valid JSON (obs::validateJson, the same
//     RFC 8259 scanner ObsTest pins).
//  2. The schema marker and the four required top-level sections are
//     present.
//  3. With --batch (the file came from `pgsdc batch --metrics`): the
//     coordinator phases batch.setup + batch.fanout partition the batch
//     window, so their wall sum must land within 10% of the
//     batch.wall_seconds gauge, and the verify counters must be present.
//     A batch that trained (driver.programs_trained is nonzero: it was
//     given --input) must also carry the training run's pipeline.profile
//     phase, which is often most of its wall time; a batch without
//     --input, or given a saved --profile, trains nothing.
//     Every attempt ends admission's static part exactly one way, so
//     verify.diff_identical (settled by mir::equalModuloNops before the
//     static stages) + verify.static_rejections (refuted by the
//     analyzer) + equiv.modules_checked (handed to the prover, which
//     batch and serve always run) must equal batch.attempts_total.
//  4. With --nvx (the file came from `pgsdc nvx --metrics`): the vote
//     outcome counters must partition nvx.rounds exactly, ejections
//     cannot exceed respawns plus the replica count (every ejection
//     either got a replacement or left a hole no bigger than the
//     population), and the vote-latency histogram must have observed
//     exactly one value per round.
//  5. With --equiv (the file came from a run exercising the translation
//     validator, e.g. `pgsdc equiv --metrics` or `pgsdc verify
//     --metrics`): the per-module verdict counters must partition
//     equiv.modules_checked exactly, a clean run must report zero
//     refuted and zero aborted modules, and the per-function proof-time
//     histogram must be present.
//  6. With --transforms (the file came from a run through the diversity
//     pipeline, e.g. `pgsdc verify --transforms=... --metrics`): each
//     transform family that ran must export its full diversity.<name>.*
//     counter set, and the budget invariants must hold -- nops inserted
//     cannot exceed candidate sites, blocks randomized cannot exceed
//     blocks considered, functions shuffled cannot exceed functions
//     considered.
//  7. With --gadget (the file came from a run through the gadget
//     scanner, e.g. `pgsdc gadgets --seeds N --metrics`): the scan
//     counters must be present, and decoded bytes can never exceed
//     scanned bytes (the decode-once invariant: a full scan decodes the
//     whole image, a Survivor probe only the offsets it reaches).
//  8. With --serve (the file came from `pgsdc serve --metrics`): the
//     per-request outcome counters must partition serve.requests
//     exactly (served + shed + failed = requests, with served =
//     cache_hits + cache_fills), the request-latency histogram must
//     have observed exactly one value per served request, and the
//     queue's peak depth can never exceed its capacity.
//     verify.diff_identical must be present, and the same three
//     counters as in step 3 must partition the fill attempts
//     (verify.attempts).
//  9. Always, when the run memo reports: every mexec::runMemoized call
//     (a fast-engine driver::execute, or a baseline battery entry that
//     batch, serve and verify fill through it) is answered by a
//     derivation or a plain run, and a fill happens only inside such a
//     call, so mexec.run_memo.fills <= derived + fallbacks. With
//     --diversify (the file came from `pgsdc diversify --metrics`, which
//     runs the baseline and the variant on the given input), the
//     counters must be present and answer exactly those two calls.
//
// Exit 0 on success, 1 with a diagnostic on the first failed check.
// Key lookups scan for the literal `"<key>": ` the deterministic obs
// exporter emits (sorted keys, fixed spacing), which keeps this tool
// dependency-free; the full-document validation in step 1 guarantees the
// scan operates on well-formed JSON.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace pgsd;

namespace {

int fail(const std::string &Msg) {
  std::fprintf(stderr, "metrics_check: %s\n", Msg.c_str());
  return 1;
}

/// Finds the numeric value following `"<key>": ` anywhere in \p Text.
/// Returns false when the key is absent.
bool findNumber(const std::string &Text, const std::string &Key,
                double &Out) {
  std::string Needle = "\"" + Key + "\": ";
  size_t Pos = Text.find(Needle);
  if (Pos == std::string::npos)
    return false;
  Out = std::strtod(Text.c_str() + Pos + Needle.size(), nullptr);
  return true;
}

bool hasKey(const std::string &Text, const std::string &Key) {
  return Text.find("\"" + Key + "\"") != std::string::npos;
}

/// Checks that the attempts counted under \p AttemptsKey are
/// partitioned by how admission's static part ended: settled modulo
/// NOPs before it (verify.diff_identical), rejected by the analyzer
/// (verify.static_rejections), or handed to the prover
/// (equiv.modules_checked; the prover is always on in batch and serve).
/// Counters other than verify.diff_identical are absent when zero.
/// Returns the process exit code (0 when the partition holds).
int checkAttemptPartition(const std::string &Text, const char *AttemptsKey) {
  double Identical = 0, Attempts = 0, Static = 0, Proved = 0;
  if (!findNumber(Text, "verify.diff_identical", Identical))
    return fail("metrics missing \"verify.diff_identical\"");
  (void)findNumber(Text, AttemptsKey, Attempts);
  (void)findNumber(Text, "verify.static_rejections", Static);
  (void)findNumber(Text, "equiv.modules_checked", Proved);
  if (Identical + Static + Proved != Attempts) {
    std::fprintf(stderr,
                 "metrics_check: verify.diff_identical %.0f + "
                 "verify.static_rejections %.0f + equiv.modules_checked "
                 "%.0f do not partition %s %.0f\n",
                 Identical, Static, Proved, AttemptsKey, Attempts);
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: metrics_check <metrics.json> [--batch] "
                         "[--nvx] [--equiv] [--transforms] [--gadget] "
                         "[--serve] [--diversify]\n");
    return 1;
  }
  bool Batch = false, Nvx = false, Equiv = false, Transforms = false,
       Gadget = false, Serve = false, Diversify = false;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--batch") == 0)
      Batch = true;
    else if (std::strcmp(Argv[I], "--nvx") == 0)
      Nvx = true;
    else if (std::strcmp(Argv[I], "--equiv") == 0)
      Equiv = true;
    else if (std::strcmp(Argv[I], "--transforms") == 0)
      Transforms = true;
    else if (std::strcmp(Argv[I], "--gadget") == 0)
      Gadget = true;
    else if (std::strcmp(Argv[I], "--serve") == 0)
      Serve = true;
    else if (std::strcmp(Argv[I], "--diversify") == 0)
      Diversify = true;
    else
      return fail(std::string("unknown option '") + Argv[I] + "'");
  }

  std::ifstream In(Argv[1], std::ios::binary);
  if (!In)
    return fail(std::string("cannot read '") + Argv[1] + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();

  std::string Error;
  if (!obs::validateJson(Text, &Error))
    return fail("invalid JSON: " + Error);

  if (!hasKey(Text, "pgsd-metrics-v1"))
    return fail("missing schema marker \"pgsd-metrics-v1\"");
  for (const char *Section :
       {"counters", "gauges", "phases", "histograms"})
    if (!hasKey(Text, Section))
      return fail(std::string("missing required section \"") + Section +
                  "\"");

  if (Batch) {
    for (const char *Key :
         {"batch.seeds", "batch.accepted", "batch.attempts_total",
          "verify.baseline_cache.hits", "verify.baseline_cache.fills",
          "verify.diff_identical", "batch.setup", "batch.fanout"})
      if (!hasKey(Text, Key))
        return fail(std::string("batch metrics missing \"") + Key + "\"");
    double Trained = 0;
    if (findNumber(Text, "driver.programs_trained", Trained) && Trained > 0 &&
        !hasKey(Text, "pipeline.profile"))
      return fail("batch metrics missing \"pipeline.profile\" though "
                  "driver.programs_trained is nonzero");
    if (int Rc = checkAttemptPartition(Text, "batch.attempts_total"))
      return Rc;

    // The batch wall clock starts after Sinks allocation and stops
    // before finalize, and setup/fanout are the only phases the
    // coordinator thread times in between, so their sum must reproduce
    // the batch.wall_seconds gauge to within scheduling noise (10%).
    double Wall = 0.0;
    if (!findNumber(Text, "batch.wall_seconds", Wall))
      return fail("batch metrics missing \"batch.wall_seconds\"");
    // Phases serialize as {"count": N, "wall_s": W, ...}; the first
    // wall_s after each phase key is that phase's wall time.
    auto PhaseWall = [&](const char *Name, double &Out) {
      size_t Pos = Text.find(std::string("\"") + Name + "\"");
      if (Pos == std::string::npos)
        return false;
      std::string Tail = Text.substr(Pos);
      return findNumber(Tail, "wall_s", Out);
    };
    double Setup = 0.0, Fanout = 0.0;
    if (!PhaseWall("batch.setup", Setup) ||
        !PhaseWall("batch.fanout", Fanout))
      return fail("cannot read batch.setup/batch.fanout wall times");
    double Sum = Setup + Fanout;
    double Slack = 0.10 * Wall + 1e-4; // floor for sub-ms batches
    if (Sum < Wall - Slack || Sum > Wall + Slack) {
      std::fprintf(stderr,
                   "metrics_check: phase sum %.6fs (setup %.6fs + fanout "
                   "%.6fs) disagrees with batch.wall_seconds %.6fs by "
                   "more than 10%%\n",
                   Sum, Setup, Fanout, Wall);
      return 1;
    }
  }

  if (Nvx) {
    for (const char *Key :
         {"nvx.rounds", "nvx.rounds_consensus", "nvx.rounds_masked",
          "nvx.rounds_no_quorum", "nvx.divergences", "nvx.timeouts",
          "nvx.ejections", "nvx.respawns", "nvx.respawn_failures",
          "nvx.replicas", "nvx.active_replicas",
          "nvx.vote_latency_seconds"})
      if (!hasKey(Text, Key))
        return fail(std::string("nvx metrics missing \"") + Key + "\"");

    // Every round is classified exactly once, so the three outcome
    // counters must partition nvx.rounds.
    double Rounds = 0, Consensus = 0, Masked = 0, NoQuorum = 0;
    if (!findNumber(Text, "nvx.rounds", Rounds) ||
        !findNumber(Text, "nvx.rounds_consensus", Consensus) ||
        !findNumber(Text, "nvx.rounds_masked", Masked) ||
        !findNumber(Text, "nvx.rounds_no_quorum", NoQuorum))
      return fail("cannot read nvx round counters");
    if (Consensus + Masked + NoQuorum != Rounds) {
      std::fprintf(stderr,
                   "metrics_check: nvx outcome counters %.0f + %.0f + "
                   "%.0f do not partition nvx.rounds %.0f\n",
                   Consensus, Masked, NoQuorum, Rounds);
      return 1;
    }

    // Every ejection either got a respawned replacement or left a hole,
    // and there are at most nvx.replicas holes to leave.
    double Ejections = 0, Respawns = 0, Replicas = 0;
    if (!findNumber(Text, "nvx.ejections", Ejections) ||
        !findNumber(Text, "nvx.respawns", Respawns) ||
        !findNumber(Text, "nvx.replicas", Replicas))
      return fail("cannot read nvx ejection/respawn counters");
    if (Ejections > Respawns + Replicas) {
      std::fprintf(stderr,
                   "metrics_check: nvx.ejections %.0f exceeds "
                   "nvx.respawns %.0f + nvx.replicas %.0f\n",
                   Ejections, Respawns, Replicas);
      return 1;
    }

    // The monitor observes one vote latency per round.
    size_t HistPos = Text.find("\"nvx.vote_latency_seconds\"");
    double HistTotal = 0;
    if (HistPos == std::string::npos ||
        !findNumber(Text.substr(HistPos), "total", HistTotal))
      return fail("cannot read nvx.vote_latency_seconds total");
    if (HistTotal != Rounds) {
      std::fprintf(stderr,
                   "metrics_check: nvx.vote_latency_seconds total %.0f "
                   "disagrees with nvx.rounds %.0f\n",
                   HistTotal, Rounds);
      return 1;
    }
  }

  if (Equiv) {
    for (const char *Key :
         {"equiv.modules_checked", "equiv.modules_proved",
          "equiv.function_seconds"})
      if (!hasKey(Text, Key))
        return fail(std::string("equiv metrics missing \"") + Key +
                    "\"");

    // Every checked module gets exactly one verdict, so the three
    // verdict counters must partition equiv.modules_checked. Refuted
    // and aborted are absent from the sorted counter map when zero.
    double Checked = 0, Proved = 0, Refuted = 0, Aborted = 0;
    if (!findNumber(Text, "equiv.modules_checked", Checked) ||
        !findNumber(Text, "equiv.modules_proved", Proved))
      return fail("cannot read equiv module counters");
    (void)findNumber(Text, "equiv.modules_refuted", Refuted);
    (void)findNumber(Text, "equiv.modules_aborted", Aborted);
    if (Proved + Refuted + Aborted != Checked) {
      std::fprintf(stderr,
                   "metrics_check: equiv verdict counters %.0f + %.0f + "
                   "%.0f do not partition equiv.modules_checked %.0f\n",
                   Proved, Refuted, Aborted, Checked);
      return 1;
    }

    // --equiv asserts a *clean* run: translation validation accepted
    // every module it saw and never ran out of budget.
    if (Refuted != 0 || Aborted != 0) {
      std::fprintf(stderr,
                   "metrics_check: clean equiv run expected, but %.0f "
                   "module(s) refuted and %.0f aborted\n",
                   Refuted, Aborted);
      return 1;
    }

    // The prover times every function pair it compares.
    size_t HistPos = Text.find("\"equiv.function_seconds\"");
    double HistTotal = 0;
    if (HistPos == std::string::npos ||
        !findNumber(Text.substr(HistPos), "total", HistTotal))
      return fail("cannot read equiv.function_seconds total");
    if (HistTotal < Checked) {
      std::fprintf(stderr,
                   "metrics_check: equiv.function_seconds total %.0f is "
                   "below equiv.modules_checked %.0f (at least one "
                   "function per module)\n",
                   HistTotal, Checked);
      return 1;
    }
  }

  if (Transforms) {
    // Each transform exports its counter family as an all-or-nothing
    // set; budget-gated quantities can never exceed their candidates.
    // A metrics file may cover any pipeline subset, but at least one
    // family must be present or --transforms was the wrong flag.
    struct Family {
      const char *Considered; ///< Counter for the candidate pool.
      const char *Applied;    ///< Counter gated by the budget.
      const char *Extra;      ///< Third family member (presence only).
    };
    const Family Families[] = {
        {"diversity.nop.candidate_sites", "diversity.nop.inserted",
         "diversity.nop.rejected"},
        {"diversity.shift.functions_shifted",
         "diversity.shift.padding_instrs", nullptr},
        {"diversity.sched.blocks_considered",
         "diversity.sched.blocks_randomized",
         "diversity.sched.instrs_permuted"},
        {"diversity.regs.functions_considered",
         "diversity.regs.functions_shuffled",
         "diversity.regs.regs_remapped"},
    };
    unsigned Present = 0;
    for (const Family &F : Families) {
      bool HasConsidered = hasKey(Text, F.Considered);
      bool HasApplied = hasKey(Text, F.Applied);
      bool HasExtra = !F.Extra || hasKey(Text, F.Extra);
      if (!HasConsidered && !HasApplied)
        continue;
      if (!HasConsidered || !HasApplied || !HasExtra)
        return fail(std::string("incomplete counter family for \"") +
                    F.Considered + "\"");
      ++Present;
    }
    if (Present == 0)
      return fail("no diversity.<transform>.* counters present");

    // shift's pair is (shifted functions, padding emitted) -- padding
    // grows with functions, not the other way round -- so the budget
    // ordering below applies to the other three families only.
    const Family Ordered[] = {Families[0], Families[2], Families[3]};
    for (const Family &F : Ordered) {
      double Considered = 0, Applied = 0;
      if (!findNumber(Text, F.Considered, Considered) ||
          !findNumber(Text, F.Applied, Applied))
        continue; // family absent; checked above
      if (Applied > Considered) {
        std::fprintf(stderr,
                     "metrics_check: %s %.0f exceeds %s %.0f\n",
                     F.Applied, Applied, F.Considered, Considered);
        return 1;
      }
    }
  }

  if (Gadget) {
    for (const char *Key :
         {"gadget.scans_full", "gadget.bytes_scanned",
          "gadget.bytes_decoded", "gadget.scan", "gadget.survivor"})
      if (!hasKey(Text, Key))
        return fail(std::string("gadget metrics missing \"") + Key +
                    "\"");

    // The decode-once invariant: every scan or probe decodes at most the
    // bytes it was handed, so the decoded total can never exceed the
    // scanned total.
    double Scanned = 0, Decoded = 0;
    if (!findNumber(Text, "gadget.bytes_scanned", Scanned) ||
        !findNumber(Text, "gadget.bytes_decoded", Decoded))
      return fail("cannot read gadget byte counters");
    if (Decoded > Scanned) {
      std::fprintf(stderr,
                   "metrics_check: gadget.bytes_decoded %.0f exceeds "
                   "gadget.bytes_scanned %.0f\n",
                   Decoded, Scanned);
      return 1;
    }
  }

  if (Serve) {
    // Every serve.* family is exported unconditionally (zero-valued
    // counters included), so absence is always a schema failure.
    for (const char *Key :
         {"serve.requests", "serve.served", "serve.cache_hits",
          "serve.cache_fills", "serve.shed", "serve.failed",
          "serve.store_corrupt", "serve.queue_capacity",
          "serve.queue_peak_depth", "verify.diff_identical"})
      if (!hasKey(Text, Key))
        return fail(std::string("serve metrics missing \"") + Key +
                    "\"");
    // verify.attempts is absent when no request needed a fill.
    if (int Rc = checkAttemptPartition(Text, "verify.attempts"))
      return Rc;

    // Every request ends exactly one way: served (from the store or a
    // fresh fill), shed by admission control, or failed. The outcome
    // counters must partition serve.requests.
    double Requests = 0, Served = 0, Hits = 0, Fills = 0, Shed = 0,
           Failed = 0;
    if (!findNumber(Text, "serve.requests", Requests) ||
        !findNumber(Text, "serve.served", Served) ||
        !findNumber(Text, "serve.cache_hits", Hits) ||
        !findNumber(Text, "serve.cache_fills", Fills) ||
        !findNumber(Text, "serve.shed", Shed) ||
        !findNumber(Text, "serve.failed", Failed))
      return fail("cannot read serve request counters");
    if (Hits + Fills > Requests) {
      std::fprintf(stderr,
                   "metrics_check: serve.cache_hits %.0f + "
                   "serve.cache_fills %.0f exceed serve.requests %.0f\n",
                   Hits, Fills, Requests);
      return 1;
    }
    if (Hits + Fills != Served) {
      std::fprintf(stderr,
                   "metrics_check: serve.cache_hits %.0f + "
                   "serve.cache_fills %.0f do not equal serve.served "
                   "%.0f\n",
                   Hits, Fills, Served);
      return 1;
    }
    if (Served + Shed + Failed != Requests) {
      std::fprintf(stderr,
                   "metrics_check: serve outcome counters %.0f + %.0f + "
                   "%.0f do not partition serve.requests %.0f\n",
                   Served, Shed, Failed, Requests);
      return 1;
    }

    // One latency observation per served request; a run that served
    // nothing legitimately exports no histogram.
    double HistTotal = 0;
    size_t HistPos = Text.find("\"serve.request_latency_seconds\"");
    if (HistPos != std::string::npos &&
        !findNumber(Text.substr(HistPos), "total", HistTotal))
      return fail("cannot read serve.request_latency_seconds total");
    if (HistTotal != Served) {
      std::fprintf(stderr,
                   "metrics_check: serve.request_latency_seconds total "
                   "%.0f disagrees with serve.served %.0f\n",
                   HistTotal, Served);
      return 1;
    }

    // Admission control's high-water mark is bounded by its capacity.
    double Capacity = 0, Peak = 0;
    if (!findNumber(Text, "serve.queue_capacity", Capacity) ||
        !findNumber(Text, "serve.queue_peak_depth", Peak))
      return fail("cannot read serve queue gauges");
    if (Peak > Capacity) {
      std::fprintf(stderr,
                   "metrics_check: serve.queue_peak_depth %.0f exceeds "
                   "serve.queue_capacity %.0f\n",
                   Peak, Capacity);
      return 1;
    }
  }

  {
    // Zero-valued counters are not exported, so each may be absent.
    double Fills = 0, Derived = 0, Fallbacks = 0;
    bool Any = findNumber(Text, "mexec.run_memo.fills", Fills);
    Any |= findNumber(Text, "mexec.run_memo.derived", Derived);
    Any |= findNumber(Text, "mexec.run_memo.fallbacks", Fallbacks);
    if (Fills > Derived + Fallbacks) {
      std::fprintf(stderr,
                   "metrics_check: mexec.run_memo.fills %.0f exceeds "
                   "derived %.0f + fallbacks %.0f\n",
                   Fills, Derived, Fallbacks);
      return 1;
    }
    if (Diversify && !Any)
      return fail("diversify metrics missing the mexec.run_memo counters");
    if (Diversify && Derived + Fallbacks != 2) {
      std::fprintf(stderr,
                   "metrics_check: mexec.run_memo derived %.0f + "
                   "fallbacks %.0f do not answer the 2 runs of "
                   "diversify\n",
                   Derived, Fallbacks);
      return 1;
    }
  }

  std::string Suffix;
  if (Batch)
    Suffix += " (batch invariants hold)";
  if (Nvx)
    Suffix += " (nvx invariants hold)";
  if (Equiv)
    Suffix += " (equiv invariants hold)";
  if (Transforms)
    Suffix += " (transforms invariants hold)";
  if (Gadget)
    Suffix += " (gadget invariants hold)";
  if (Serve)
    Suffix += " (serve invariants hold)";
  if (Diversify)
    Suffix += " (diversify invariants hold)";
  std::printf("metrics_check: %s OK%s\n", Argv[1], Suffix.c_str());
  return 0;
}
