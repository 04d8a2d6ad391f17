//===-- tests/ScannerParityTest.cpp - Fast-vs-reference scanner parity -----===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The decode-once scanner (gadget::ImageScan and the default free-
// function paths) must be byte-identical to the per-offset reference
// oracle (ScanOptions::ForceReference) on every query that feeds the
// paper's Table 2/3 numbers: gadget enumeration, NOP-normalized hashes,
// Survivor pairs, and multi-version threshold counts. Zero tolerance --
// any divergence here silently corrupts the security evaluation.
//
// Coverage:
//  * all 19 SPEC-like workloads x the four single-transform pipelines
//    (nop, shift, sched, regs), baseline and diversified images;
//  * 200 seeded MiniC fuzz programs with per-seed scan options
//    (window size, XCHG set, syscall terminators), checked per offset;
//  * parallel multi-version sweeps (Jobs > 1, shared original scan)
//    against both the serial fast path and the reference oracle, on
//    workloads and on fuzzed programs across the option space, with
//    unequal-length, empty and absent versions;
//  * Table 3's counts for three workloads pinned to fixed values, so the
//    identity the multi-version counter uses cannot drift unnoticed;
//  * the normalized hash recomputed from its definition (reversed FNV-1a
//    of the bytes minus Table 1 NOPs) at every offset, and the identity
//    relation it induces (equal hash exactly when equal normalized
//    bytes) across 25 versions of three workloads.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "obs/Metrics.h"
#include "gadget/Scanner.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"
#include "x86/Decoder.h"
#include "x86/Nops.h"

#include "MiniCFuzzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

using namespace pgsd;
using gadget::Gadget;
using gadget::ImageScan;
using gadget::ScanOptions;
using gadget::SurvivingGadget;

namespace {

/// Bytes of a workload's diversified .text under one single-transform
/// pipeline (uniform probabilities: no training profile required).
std::vector<uint8_t> variantText(const driver::Program &P,
                                 diversity::TransformKind Kind,
                                 uint64_t Seed) {
  diversity::Pipeline Pipe(std::vector<diversity::TransformKind>{Kind});
  auto Opts = diversity::DiversityOptions::uniform(0.3);
  return driver::makeVariant(P, Pipe, Opts, Seed).Image.Text;
}

void expectSameGadgets(const std::vector<Gadget> &Fast,
                       const std::vector<Gadget> &Ref,
                       const std::string &What) {
  ASSERT_EQ(Fast.size(), Ref.size()) << What;
  for (size_t I = 0; I != Fast.size(); ++I) {
    ASSERT_EQ(Fast[I].Offset, Ref[I].Offset) << What << " gadget " << I;
    ASSERT_EQ(Fast[I].Length, Ref[I].Length)
        << What << " offset " << Fast[I].Offset;
    ASSERT_EQ(+Fast[I].NumInstrs, +Ref[I].NumInstrs)
        << What << " offset " << Fast[I].Offset;
  }
}

void expectSameSurvivors(const std::vector<SurvivingGadget> &Fast,
                         const std::vector<SurvivingGadget> &Ref,
                         const std::string &What) {
  ASSERT_EQ(Fast.size(), Ref.size()) << What;
  for (size_t I = 0; I != Fast.size(); ++I) {
    ASSERT_EQ(Fast[I].Offset, Ref[I].Offset) << What << " survivor " << I;
    ASSERT_EQ(Fast[I].NormHash, Ref[I].NormHash)
        << What << " offset " << Fast[I].Offset;
  }
}

/// Per-offset contract check: ImageScan's instruction boundaries and the
/// full pass's (offset, hash) list against the reference oracle's
/// decodeGadgetAt / normalizedGadgetHash at *every* offset. The oracle
/// alone counts non-NOP instructions; HashIsReversedFnvOfNormalizedBytes
/// checks that count.
void expectOffsetParity(const std::vector<uint8_t> &Text,
                        const ScanOptions &Opts, const std::string &What) {
  ImageScan Scan(Text.data(), Text.size(), Opts);
  const std::vector<SurvivingGadget> Hashes =
      gadget::gadgetHashes(Text.data(), Text.size(), Opts);
  auto Listed = Hashes.begin();
  std::vector<std::pair<uint32_t, uint8_t>> RefInstrs, FastInstrs;
  for (size_t Offset = 0; Offset != Text.size(); ++Offset) {
    const auto At = static_cast<uint32_t>(Offset);
    bool RefOk =
        gadget::decodeGadgetAt(Text.data(), Text.size(), At, Opts, RefInstrs);
    bool FastOk = Scan.instructionsAt(At, FastInstrs);
    ASSERT_EQ(FastOk, RefOk) << What << " offset " << Offset;
    const bool InList = Listed != Hashes.end() && Listed->Offset == At;
    ASSERT_EQ(InList, RefOk) << What << " offset " << Offset;
    if (!RefOk)
      continue;
    ASSERT_EQ(FastInstrs, RefInstrs) << What << " offset " << Offset;
    uint64_t RefHash = 0;
    unsigned RefNonNop = 0;
    ASSERT_TRUE(gadget::normalizedGadgetHash(Text.data(), Text.size(), At,
                                             Opts, RefHash, RefNonNop));
    ASSERT_EQ(Listed->NormHash, RefHash) << What << " offset " << Offset;
    ++Listed;
  }
  ASSERT_TRUE(Listed == Hashes.end()) << What;
}

const diversity::TransformKind AllKinds[] = {
    diversity::TransformKind::Nop, diversity::TransformKind::Shift,
    diversity::TransformKind::Sched, diversity::TransformKind::Regs};

} // namespace

//===----------------------------------------------------------------------===//
// Workload battery: fast vs reference on every workload x pipeline
//===----------------------------------------------------------------------===//

TEST(ScannerParity, WorkloadSuiteAllPipelines) {
  ScanOptions Fast;
  ScanOptions Ref;
  Ref.ForceReference = true;
  unsigned Combos = 0;
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << W.Name;
    const std::vector<uint8_t> Base = driver::linkBaseline(P).Text;
    expectSameGadgets(gadget::scanGadgets(Base.data(), Base.size(), Fast),
                      gadget::scanGadgets(Base.data(), Base.size(), Ref),
                      W.Name + " baseline");
    for (diversity::TransformKind Kind : AllKinds) {
      const uint64_t Seed = 0x5EED + Combos;
      const std::vector<uint8_t> Div = variantText(P, Kind, Seed);
      expectSameGadgets(gadget::scanGadgets(Div.data(), Div.size(), Fast),
                        gadget::scanGadgets(Div.data(), Div.size(), Ref),
                        W.Name + " variant");
      expectSameSurvivors(
          gadget::survivingGadgets(Base, Div, Fast),
          gadget::survivingGadgets(Base, Div, Ref),
          W.Name + "/" + diversity::transformKindName(Kind));
      ++Combos;
    }
  }
  EXPECT_EQ(Combos, 19u * 4u);
}

//===----------------------------------------------------------------------===//
// Multi-version sweeps: serial, parallel, reference
//===----------------------------------------------------------------------===//

namespace {

/// Table 3's counts by definition, independent of the library's counter:
/// the reference oracle's gadgets of every version keyed by the exact
/// (offset, normalized hash) pair in an ordered map.
std::vector<uint64_t>
countByDefinition(const std::vector<std::vector<uint8_t>> &Versions,
                  const std::vector<unsigned> &Thresholds,
                  const ScanOptions &Opts) {
  ScanOptions Ref = Opts;
  Ref.ForceReference = true;
  std::map<std::pair<uint32_t, uint64_t>, unsigned> Occurrences;
  for (const std::vector<uint8_t> &Text : Versions)
    for (const Gadget &G : gadget::scanGadgets(Text.data(), Text.size(), Ref)) {
      uint64_t Hash = 0;
      unsigned NonNop = 0;
      if (gadget::normalizedGadgetHash(Text.data(), Text.size(), G.Offset,
                                       Ref, Hash, NonNop))
        ++Occurrences[{G.Offset, Hash}];
    }
  std::vector<uint64_t> Counts;
  for (unsigned T : Thresholds)
    Counts.push_back(static_cast<uint64_t>(std::count_if(
        Occurrences.begin(), Occurrences.end(),
        [T](const auto &E) { return E.second >= T; })));
  return Counts;
}

/// Both multi-version sweeps against the reference oracle under \p Opts
/// (whose Jobs and ForceReference are overridden here): gadgetsInAtLeast
/// at Jobs 1, 4 and 0 (all cores) and on the oracle against
/// countByDefinition, survivingGadgetsMulti at the same Jobs.
void expectSweepParity(const std::vector<uint8_t> &Original,
                       const std::vector<std::vector<uint8_t>> &Versions,
                       const std::vector<unsigned> &Thresholds,
                       ScanOptions Opts, const std::string &What) {
  ScanOptions Ref = Opts;
  Ref.ForceReference = true;
  Ref.Jobs = 1;
  const std::vector<uint64_t> WantCounts =
      countByDefinition(Versions, Thresholds, Opts);
  EXPECT_EQ(gadget::gadgetsInAtLeast(Versions, Thresholds, Ref), WantCounts)
      << What << " reference";
  const std::vector<std::vector<SurvivingGadget>> WantSurv =
      gadget::survivingGadgetsMulti(Original, Versions, Ref);
  ASSERT_EQ(WantSurv.size(), Versions.size()) << What;
  for (unsigned Jobs : {1u, 4u, 0u}) {
    Opts.Jobs = Jobs;
    const std::string Tag = What + " jobs=" + std::to_string(Jobs);
    EXPECT_EQ(gadget::gadgetsInAtLeast(Versions, Thresholds, Opts),
              WantCounts)
        << Tag;
    const auto Got = gadget::survivingGadgetsMulti(Original, Versions, Opts);
    ASSERT_EQ(Got.size(), WantSurv.size()) << Tag;
    for (size_t I = 0; I != Got.size(); ++I)
      expectSameSurvivors(Got[I], WantSurv[I],
                          Tag + " v" + std::to_string(I));
  }
}

} // namespace

TEST(ScannerParity, MultiVersionThresholdsAndSweeps) {
  // A handful of representative workloads (the full suite runs above);
  // N versions each, every execution strategy must agree exactly.
  const char *Names[] = {"470.lbm", "401.bzip2", "458.sjeng"};
  for (const char *Name : Names) {
    const workloads::Workload &W = workloads::specWorkload(Name);
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << Name;
    const std::vector<uint8_t> Base = driver::linkBaseline(P).Text;
    std::vector<std::vector<uint8_t>> Versions;
    for (uint64_t Seed = 1; Seed <= 8; ++Seed)
      Versions.push_back(
          variantText(P, diversity::TransformKind::Nop, Seed));
    expectSweepParity(Base, Versions, {1, 2, 5, 8, 9, 100}, ScanOptions(),
                      Name);
  }
}

TEST(ScannerParity, MultiVersionSweepsUnderVariedOptions) {
  // Every window size 1-12 crossed with both NOP sets and both
  // terminator sets, one fuzzed program per combination. Versions mix
  // the four single-transform pipelines, so their lengths differ, with
  // edited copies of the baseline that keep most offsets aligned: a
  // Table 1 NOP inserted mid-image lengthens every gadget straddling
  // it by one instruction (the window edge), and random overwrites
  // create and destroy gadgets in place.
  const std::vector<std::vector<uint8_t>> Nops = {
      {0x90}, {0x89, 0xE4}, {0x8D, 0x3F}, {0x87, 0xED}};
  unsigned Combos = 0;
  for (unsigned MaxInstrs = 1; MaxInstrs <= 12; ++MaxInstrs) {
    for (bool Xchg : {false, true}) {
      for (bool Syscall : {false, true}) {
        const uint64_t Seed = 1000 + Combos;
        MiniCFuzzer Fuzzer(Seed);
        driver::Program P = driver::compileProgram(
            Fuzzer.generate(), "fuzz-" + std::to_string(Seed),
            /*Optimize=*/(Seed & 1));
        ASSERT_TRUE(P.ok()) << "seed " << Seed;
        const std::vector<uint8_t> Base = driver::linkBaseline(P).Text;
        std::vector<std::vector<uint8_t>> Versions;
        for (diversity::TransformKind Kind : AllKinds)
          Versions.push_back(variantText(P, Kind, Seed * 8 + Versions.size()));
        Rng Gen(Seed);
        auto Below = [&Gen](size_t N) {
          return static_cast<size_t>(
              Gen.nextBelow(static_cast<uint32_t>(N)));
        };
        for (unsigned V = 0; V != 2; ++V) {
          std::vector<uint8_t> Edited = Base;
          const std::vector<uint8_t> &Nop = Nops[Below(Nops.size())];
          Edited.insert(Edited.begin() +
                            static_cast<ptrdiff_t>(Below(Edited.size())),
                        Nop.begin(), Nop.end());
          Versions.push_back(std::move(Edited));
        }
        std::vector<uint8_t> Overwritten = Base;
        for (unsigned K = 0; K != 4; ++K)
          Overwritten[Below(Overwritten.size())] =
              static_cast<uint8_t>(Gen.nextBelow(256));
        Versions.push_back(std::move(Overwritten));
        ScanOptions Opts;
        Opts.MaxInstrs = MaxInstrs;
        Opts.IncludeXchgNops = Xchg;
        Opts.IncludeSyscallGadgets = Syscall;
        expectSweepParity(Base, Versions, {0, 1, 2, 3, 7, 8}, Opts,
                          "fuzz seed " + std::to_string(Seed) + " w=" +
                              std::to_string(MaxInstrs) +
                              " x=" + std::to_string(Xchg) +
                              " s=" + std::to_string(Syscall));
        ++Combos;
      }
    }
  }
  EXPECT_EQ(Combos, 48u);
}

TEST(ScannerParity, MultiVersionUnequalEmptyAndAbsentVersions) {
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok());
  const std::vector<uint8_t> Base = driver::linkBaseline(P).Text;
  const std::vector<uint8_t> Nop =
      variantText(P, diversity::TransformKind::Nop, 11);
  std::vector<uint8_t> Grown =
      variantText(P, diversity::TransformKind::Shift, 12);
  Grown.insert(Grown.end(), Base.begin(), Base.end());
  // Shorter and longer than the original, the original itself, an empty
  // image, and a prefix cut mid-image.
  const std::vector<std::vector<uint8_t>> Versions = {
      Nop,
      Grown,
      Base,
      {},
      std::vector<uint8_t>(Nop.begin(), Nop.begin() + static_cast<ptrdiff_t>(
                                            Nop.size() / 3)),
      variantText(P, diversity::TransformKind::Regs, 13),
  };
  const std::vector<unsigned> Thresholds = {0, 1, 2, 3, 6, 7};
  ScanOptions Default;
  expectSweepParity(Base, Versions, Thresholds, Default, "unequal default");
  ScanOptions Narrow;
  Narrow.MaxInstrs = 3;
  Narrow.IncludeXchgNops = false;
  Narrow.IncludeSyscallGadgets = true;
  expectSweepParity(Base, Versions, Thresholds, Narrow, "unequal narrow");
  // An empty original leaves nothing to survive.
  expectSweepParity({}, Versions, Thresholds, Default, "empty original");

  // No versions at all: every threshold counts zero identities and the
  // Survivor sweep returns no lists.
  const std::vector<std::vector<uint8_t>> None;
  expectSweepParity(Base, None, Thresholds, Default, "no versions");
  EXPECT_EQ(gadget::gadgetsInAtLeast(None, Thresholds, Default),
            std::vector<uint64_t>(Thresholds.size(), 0));
  EXPECT_TRUE(gadget::survivingGadgetsMulti(Base, None, Default).empty());
}

TEST(ScannerParity, Table3CountsPinned) {
  // gadgetsInAtLeast(..., {2, 5, 12}) over Table 3's pNOP=0-30%
  // configuration, seeds 1-25. The values come from the earlier counter,
  // which keyed a hash map by an XOR fold of offset and hash; the
  // exact-pair counter must reproduce them on the fast path at one and
  // all cores and on the reference oracle.
  struct Pin {
    const char *Name;
    std::vector<uint64_t> Counts;
  };
  const Pin Pins[] = {{"470.lbm", {374, 135, 75}},
                      {"401.bzip2", {426, 81, 66}},
                      {"458.sjeng", {1943, 124, 81}}};
  const auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.00, 0.30);
  for (const Pin &Pinned : Pins) {
    const workloads::Workload &W = workloads::specWorkload(Pinned.Name);
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << Pinned.Name;
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput)) << Pinned.Name;
    std::vector<std::vector<uint8_t>> Versions;
    for (uint64_t Seed = 1; Seed <= 25; ++Seed)
      Versions.push_back(driver::makeVariant(P, Opts, Seed).Image.Text);
    for (unsigned Jobs : {1u, 0u}) {
      ScanOptions Fast;
      Fast.Jobs = Jobs;
      EXPECT_EQ(gadget::gadgetsInAtLeast(Versions, {2, 5, 12}, Fast),
                Pinned.Counts)
          << Pinned.Name << " jobs=" << Jobs;
    }
    ScanOptions Ref;
    Ref.ForceReference = true;
    EXPECT_EQ(gadget::gadgetsInAtLeast(Versions, {2, 5, 12}, Ref),
              Pinned.Counts)
        << Pinned.Name << " reference";
  }
}

//===----------------------------------------------------------------------===//
// The normalized hash by its definition
//===----------------------------------------------------------------------===//

namespace {

/// The bytes of the gadget with boundaries \p Instrs (decodeGadgetAt's)
/// minus every whole-instruction Table 1 NOP under \p Opts;
/// \p NonNop counts the instructions kept.
std::vector<uint8_t>
normalizedBytes(const std::vector<uint8_t> &Text,
                const std::vector<std::pair<uint32_t, uint8_t>> &Instrs,
                const ScanOptions &Opts, unsigned &NonNop) {
  std::vector<uint8_t> Bytes;
  NonNop = 0;
  for (const auto &[At, Len] : Instrs) {
    x86::NopKind Kind;
    if (x86::matchNopAt(Text.data() + At, Len, Opts.IncludeXchgNops, Kind) &&
        x86::nopInfo(Kind).Length == Len)
      continue;
    Bytes.insert(Bytes.end(), Text.begin() + At, Text.begin() + At + Len);
    ++NonNop;
  }
  return Bytes;
}

/// FNV-1a over \p Bytes, last byte first.
uint64_t reversedFnv(const std::vector<uint8_t> &Bytes) {
  uint64_t Hash = 1469598103934665603ull;
  for (auto It = Bytes.rbegin(); It != Bytes.rend(); ++It) {
    Hash ^= *It;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

/// At every offset of \p Text, recomputes the hash from decodeGadgetAt
/// and matchNopAt alone, then checks it against the oracle's
/// normalizedGadgetHash (hash and non-NOP count), the full pass's
/// (offset, hash) list, and the lazy Survivor probe, which run on the
/// image against itself must find every gadget with that hash.
void expectHashDefinition(const std::vector<uint8_t> &Text,
                          const ScanOptions &Opts, const std::string &What) {
  std::vector<SurvivingGadget> Want;
  std::vector<std::pair<uint32_t, uint8_t>> Instrs;
  for (size_t Offset = 0; Offset != Text.size(); ++Offset) {
    const auto At = static_cast<uint32_t>(Offset);
    if (!gadget::decodeGadgetAt(Text.data(), Text.size(), At, Opts, Instrs))
      continue;
    unsigned NonNop = 0;
    const uint64_t Hash =
        reversedFnv(normalizedBytes(Text, Instrs, Opts, NonNop));
    uint64_t OracleHash = 0;
    unsigned OracleNonNop = 0;
    ASSERT_TRUE(gadget::normalizedGadgetHash(Text.data(), Text.size(), At,
                                             Opts, OracleHash, OracleNonNop))
        << What << " offset " << Offset;
    ASSERT_EQ(OracleHash, Hash) << What << " offset " << Offset;
    ASSERT_EQ(OracleNonNop, NonNop) << What << " offset " << Offset;
    Want.push_back({At, Hash});
  }
  expectSameSurvivors(gadget::gadgetHashes(Text.data(), Text.size(), Opts),
                      Want, What + " full pass");
  expectSameSurvivors(gadget::survivingGadgets(Text, Text, Opts), Want,
                      What + " lazy probe");
}

} // namespace

TEST(ScannerParity, HashIsReversedFnvOfNormalizedBytes) {
  // Every suite program's {nop} variant, half of them with XCHG NOPs
  // inserted, under options that cycle with the program: windows 1-12,
  // both NOP sets, both terminator sets.
  unsigned Index = 0;
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << W.Name;
    diversity::Pipeline Pipe(
        std::vector<diversity::TransformKind>{diversity::TransformKind::Nop});
    auto DivOpts = diversity::DiversityOptions::uniform(0.3);
    DivOpts.IncludeXchgNops = (Index % 2) != 0;
    const std::vector<uint8_t> Text =
        driver::makeVariant(P, Pipe, DivOpts, 0xF00 + Index).Image.Text;
    ScanOptions Opts;
    Opts.MaxInstrs = 1 + Index % 12;
    Opts.IncludeXchgNops = (Index % 4) < 2;
    Opts.IncludeSyscallGadgets = (Index % 3) == 0;
    expectHashDefinition(Text, Opts, W.Name);
    ++Index;
  }
  EXPECT_EQ(Index, 19u);

  // Byte streams dense in Table 1 NOPs (both sets), free branches and
  // syscall terminators, over the whole option space.
  const std::vector<std::vector<uint8_t>> Pieces = {
      {0x90},       {0x89, 0xE4}, {0x89, 0xED}, {0x8D, 0x36},
      {0x8D, 0x3F}, {0x87, 0xE4}, {0x87, 0xED}, {0xC3},
      {0xCD, 0x80}, {0x0F, 0x34}, {0xFF, 0xE0}, {0x58}};
  Rng Gen(0xF17);
  for (unsigned MaxInstrs = 1; MaxInstrs <= 12; ++MaxInstrs) {
    for (bool Xchg : {false, true}) {
      for (bool Syscall : {false, true}) {
        std::vector<uint8_t> Text;
        while (Text.size() < 1024) {
          const uint32_t Pick = Gen.nextBelow(
              static_cast<uint32_t>(Pieces.size()) + 4);
          if (Pick < Pieces.size())
            Text.insert(Text.end(), Pieces[Pick].begin(), Pieces[Pick].end());
          else
            Text.push_back(static_cast<uint8_t>(Gen.nextBelow(256)));
        }
        ScanOptions Opts;
        Opts.MaxInstrs = MaxInstrs;
        Opts.IncludeXchgNops = Xchg;
        Opts.IncludeSyscallGadgets = Syscall;
        expectHashDefinition(Text, Opts,
                             "pieces w=" + std::to_string(MaxInstrs) +
                                 " x=" + std::to_string(Xchg) +
                                 " s=" + std::to_string(Syscall));
      }
    }
  }
}

TEST(ScannerParity, HashesEqualExactlyWhenNormalizedBytesEqual) {
  // Table 3's identity relation: across 25 versions of three workloads,
  // two gadgets at one offset have equal hashes exactly when their
  // normalized byte strings are equal. Keying each direction by offset
  // makes both maps functions, which is that equivalence.
  const auto DivOpts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.00, 0.30);
  const ScanOptions Opts;
  size_t Recurring = 0, Distinct = 0, Offsets = 0;
  for (const char *Name : {"470.lbm", "401.bzip2", "458.sjeng"}) {
    const workloads::Workload &W = workloads::specWorkload(Name);
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << Name;
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput)) << Name;
    std::map<std::pair<uint32_t, std::vector<uint8_t>>, uint64_t> HashOf;
    std::map<std::pair<uint32_t, uint64_t>, std::vector<uint8_t>> BytesOf;
    std::vector<std::pair<uint32_t, uint8_t>> Instrs;
    for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
      const std::vector<uint8_t> Text =
          driver::makeVariant(P, DivOpts, Seed).Image.Text;
      for (const SurvivingGadget &G :
           gadget::gadgetHashes(Text.data(), Text.size(), Opts)) {
        ASSERT_TRUE(gadget::decodeGadgetAt(Text.data(), Text.size(),
                                           G.Offset, Opts, Instrs));
        unsigned NonNop = 0;
        std::vector<uint8_t> Bytes = normalizedBytes(Text, Instrs, Opts,
                                                     NonNop);
        const auto [ByBytes, NewBytes] =
            HashOf.emplace(std::make_pair(G.Offset, Bytes), G.NormHash);
        ASSERT_EQ(ByBytes->second, G.NormHash)
            << Name << " seed " << Seed << " offset " << G.Offset
            << ": equal normalized bytes, different hashes";
        const auto [ByHash, NewHash] = BytesOf.emplace(
            std::make_pair(G.Offset, G.NormHash), std::move(Bytes));
        ASSERT_EQ(NewBytes, NewHash)
            << Name << " seed " << Seed << " offset " << G.Offset
            << ": equal hashes, different normalized bytes";
        Recurring += !NewBytes;
      }
    }
    Distinct += HashOf.size();
    std::vector<uint32_t> At;
    for (const auto &Entry : HashOf)
      At.push_back(Entry.first.first);
    Offsets += static_cast<size_t>(
        std::unique(At.begin(), At.end()) - At.begin());
  }
  // Both directions are exercised: identities recur across versions,
  // and offsets hold more than one distinct identity.
  EXPECT_GT(Recurring, 0u);
  EXPECT_GT(Distinct, Offsets);
}

//===----------------------------------------------------------------------===//
// MiniC fuzz battery: per-offset parity under varied scan options
//===----------------------------------------------------------------------===//

TEST(ScannerParity, FuzzedProgramsPerOffset) {
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    MiniCFuzzer Fuzzer(Seed);
    std::string Source = Fuzzer.generate();
    driver::Program P = driver::compileProgram(
        Source, "fuzz-" + std::to_string(Seed), /*Optimize=*/(Seed & 1));
    ASSERT_TRUE(P.ok()) << "seed " << Seed;
    const std::vector<uint8_t> Text = driver::linkBaseline(P).Text;
    // Exercise the option space: window size, XCHG normalization set,
    // syscall terminators.
    ScanOptions Opts;
    Opts.MaxInstrs = 1 + static_cast<unsigned>(Seed % 12);
    Opts.IncludeXchgNops = (Seed % 2) == 0;
    Opts.IncludeSyscallGadgets = (Seed % 4) < 2;
    expectOffsetParity(Text, Opts, "fuzz seed " + std::to_string(Seed));
    ++Checked;
  }
  EXPECT_EQ(Checked, 200u);
}

//===----------------------------------------------------------------------===//
// Random byte streams: the lean decode path and the fast scanner must
// agree with the full decoder / reference oracle on arbitrary bytes,
// not just compiler output
//===----------------------------------------------------------------------===//

TEST(ScannerParity, RandomBytesDecodeAndScanParity) {
  Rng Gen(0xBEEF);
  for (unsigned Buf = 0; Buf != 64; ++Buf) {
    std::vector<uint8_t> Text(4096);
    for (uint8_t &B : Text)
      B = static_cast<uint8_t>(Gen.nextBelow(256));
    // decodeLenClass must return the exact (valid, length, class)
    // triple of decodeInstr at every offset.
    for (size_t I = 0; I != Text.size(); ++I) {
      x86::Decoded D;
      const bool FullOk = x86::decodeInstr(Text.data() + I,
                                           Text.size() - I, D);
      uint8_t Len = 0;
      x86::InstrClass Class = x86::InstrClass::Invalid;
      const bool LeanOk = x86::decodeLenClass(Text.data() + I,
                                              Text.size() - I, Len, Class);
      ASSERT_EQ(LeanOk, FullOk) << "buf " << Buf << " offset " << I;
      ASSERT_EQ(Len, D.Length) << "buf " << Buf << " offset " << I;
      ASSERT_EQ(static_cast<int>(Class), static_cast<int>(D.Class))
          << "buf " << Buf << " offset " << I;
    }
    // And the scanner built on it must match the reference oracle.
    ScanOptions Opts;
    Opts.IncludeXchgNops = (Buf % 2) == 0;
    Opts.IncludeSyscallGadgets = (Buf % 4) < 2;
    expectOffsetParity(Text, Opts, "random buf " + std::to_string(Buf));
  }
}

//===----------------------------------------------------------------------===//
// Option-sensitivity: fact table shared across NOP sets and windows
//===----------------------------------------------------------------------===//

TEST(ScannerParity, OptionMatrixOnStub) {
  // The undiversified runtime stub is the paper's surviving-gadget
  // residue; sweep the full option matrix over it per offset.
  std::array<uint32_t, ir::NumIntrinsics> Intr{};
  uint32_t CallMain = 0;
  const std::vector<uint8_t> Stub =
      codegen::buildRuntimeStub(Intr, CallMain, codegen::LinkOptions());
  for (unsigned MaxInstrs : {1u, 2u, 8u, 32u}) {
    for (bool Xchg : {false, true}) {
      for (bool Syscall : {false, true}) {
        ScanOptions Opts;
        Opts.MaxInstrs = MaxInstrs;
        Opts.IncludeXchgNops = Xchg;
        Opts.IncludeSyscallGadgets = Syscall;
        expectOffsetParity(Stub, Opts,
                           "stub w=" + std::to_string(MaxInstrs) +
                               " x=" + std::to_string(Xchg) +
                               " s=" + std::to_string(Syscall));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Telemetry: the lazy Survivor probe reports what it decoded
//===----------------------------------------------------------------------===//

TEST(ScannerParity, ProbeSweepReportsDecodedBelowScanned) {
  // The default Survivor sweep scans the original in full and probes
  // each version lazily: every probed image counts as scanned, but only
  // the offsets the probe filled count as decoded, whatever Jobs is.
  const workloads::Workload &W = workloads::specWorkload("401.bzip2");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok());
  const std::vector<uint8_t> Base = driver::linkBaseline(P).Text;
  std::vector<std::vector<uint8_t>> Versions;
  uint64_t VersionBytes = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Versions.push_back(variantText(P, diversity::TransformKind::Nop, Seed));
    VersionBytes += Versions.back().size();
  }
  std::map<unsigned, std::pair<uint64_t, uint64_t>> ByJobs;
  for (unsigned Jobs : {1u, 2u}) {
    obs::Registry::global().reset();
    obs::setEnabled(true);
    ScanOptions Opts;
    Opts.Jobs = Jobs;
    gadget::survivingGadgetsMulti(Base, Versions, Opts);
    obs::setEnabled(false);
    const obs::LocalMetrics Snap = obs::Registry::global().snapshot();
    obs::Registry::global().reset();
    const uint64_t Scanned = Snap.Counters.at("gadget.bytes_scanned");
    const uint64_t Decoded = Snap.Counters.at("gadget.bytes_decoded");
    EXPECT_EQ(Scanned, Base.size() + VersionBytes) << "jobs " << Jobs;
    EXPECT_GT(Decoded, Base.size()) << "jobs " << Jobs;
    EXPECT_LT(Decoded, Scanned) << "jobs " << Jobs;
    ByJobs[Jobs] = {Scanned, Decoded};
  }
  EXPECT_EQ(ByJobs[1], ByJobs[2]);
}

//===----------------------------------------------------------------------===//
// Image ends: the fact's NOP bits read an offset's first two bytes, with
// the second taken as absent past the end; 1-3 byte streams ending in a
// NOP's first byte or a stepped-over prefix put that case at every
// offset
//===----------------------------------------------------------------------===//

TEST(ScannerParity, ShortStreamsEndingInNopOrPrefixBytes) {
  const uint8_t Last[] = {0x90, 0x89, 0x8D, 0x87, 0x36, 0xF0};
  // Leading bytes: NOP bytes of both positions, a terminator, the 0F
  // escape, and bytes no Table 1 row holds.
  const uint8_t Lead[] = {0x90, 0x89, 0x8D, 0x87, 0x36, 0xF0, 0xE4,
                          0xED, 0x3F, 0xC3, 0xFF, 0x0F, 0x00};
  std::vector<std::vector<uint8_t>> Streams;
  for (uint8_t L : Last) {
    Streams.push_back({L});
    for (uint8_t A : Lead) {
      Streams.push_back({A, L});
      for (uint8_t B : Lead)
        Streams.push_back({A, B, L});
    }
  }
  unsigned Checked = 0;
  for (bool Xchg : {false, true}) {
    for (bool Syscall : {false, true}) {
      ScanOptions Opts;
      Opts.IncludeXchgNops = Xchg;
      Opts.IncludeSyscallGadgets = Syscall;
      ScanOptions Ref = Opts;
      Ref.ForceReference = true;
      for (size_t S = 0; S != Streams.size(); ++S) {
        const std::vector<uint8_t> &Text = Streams[S];
        const std::string What = "stream " + std::to_string(S) +
                                 " x=" + std::to_string(Xchg) +
                                 " s=" + std::to_string(Syscall);
        expectOffsetParity(Text, Opts, What);
        expectHashDefinition(Text, Opts, What);
        // Against a version whose first byte differs, so the probe's
        // first-byte rule-out reads both images' NOP bits at offset 0.
        std::vector<uint8_t> Other = Text;
        Other[0] = static_cast<uint8_t>(Other[0] ^ 0x01);
        auto ExpectSurvivors = [&](const std::vector<uint8_t> &A,
                                   const std::vector<uint8_t> &B) {
          expectSameSurvivors(gadget::survivingGadgets(A, B, Opts),
                              gadget::survivingGadgets(A, B, Ref),
                              What + " survivors");
        };
        ExpectSurvivors(Text, Other);
        ExpectSurvivors(Other, Text);
        ++Checked;
      }
    }
  }
  EXPECT_EQ(Checked, 4 * Streams.size());
}
