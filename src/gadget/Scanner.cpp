//===-- gadget/Scanner.cpp - ROP gadget scanning and Survivor --------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Two implementations live here (DESIGN.md section 15):
//
//  * The reference oracle (decodeGadgetAt and the ForceReference paths):
//    decode afresh from every byte offset with a MaxInstrs window. This
//    is the executable specification of what a gadget is.
//
//  * The decode-once scanner (ImageScan): one linear pass decodes each
//    offset exactly once into a flat fact table (length + class/NOP flag
//    bits), then a backward DP computes the gadget suffix at every
//    offset. Every stored DP value is a pure function of the MaxInstrs x
//    15-byte window after its offset, which is what makes the
//    incremental rescan's dirty-range widening sound.
//
// ScannerParityTest pins byte-identical results between the two across
// the workload battery, fuzzed programs, and random incremental edits.
//
//===----------------------------------------------------------------------===//

#include "gadget/Scanner.h"

#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "x86/Decoder.h"
#include "x86/Nops.h"

#include <algorithm>
#include <unordered_map>

using namespace pgsd;
using namespace pgsd::gadget;
using x86::Decoded;

bool gadget::decodeGadgetAt(const uint8_t *Text, size_t Size,
                            uint32_t Offset, const ScanOptions &Opts,
                            std::vector<std::pair<uint32_t, uint8_t>> &InstrsOut) {
  InstrsOut.clear();
  uint32_t Pos = Offset;
  for (unsigned N = 0; N != Opts.MaxInstrs; ++N) {
    if (Pos >= Size)
      return false;
    Decoded D;
    if (!x86::decodeInstr(Text + Pos, Size - Pos, D))
      return false;
    InstrsOut.push_back({Pos, D.Length});
    if (D.isFreeBranch())
      return true;
    if (Opts.IncludeSyscallGadgets && D.Class == x86::InstrClass::IntN)
      return true; // syscall-terminated gadget (attack checker mode)
    if (!D.isUsableBody())
      return false; // direct control flow, privileged, invalid
    Pos += D.Length;
  }
  return false; // no terminator within the window
}

namespace {

/// FNV-1a over a byte range.
uint64_t hashBytes(uint64_t Hash, const uint8_t *Bytes, size_t Size) {
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

/// Per-offset decode-fact flag bits (FactFlags). The class bits mirror
/// the reference oracle's check order: free branch, then IntN (a
/// terminator only when IncludeSyscallGadgets), then usable body; the
/// classes are mutually exclusive so at most one is set. The NOP bits
/// record whole-instruction Table 1 matches for both NOP sets so one
/// fact table serves either IncludeXchgNops setting.
enum : uint8_t {
  FFree = 1 << 0,       ///< Free-branch terminator.
  FIntN = 1 << 1,       ///< Software interrupt (INT n / SYSENTER).
  FBody = 1 << 2,       ///< Usable gadget body (InstrClass::Normal).
  FNopDefault = 1 << 3, ///< Whole instruction is a default-set NOP.
  FNopXchg = 1 << 4,    ///< Whole instruction is a bus-locking XCHG NOP.
};

/// Architectural x86 instruction length limit; the decoder never emits
/// a longer instruction, which bounds how far one decode fact can read.
constexpr size_t MaxInstrBytes = 15;

/// Records one ImageScan (re)build in the telemetry registry.
void noteScan(bool Incremental, size_t ImageSize, uint64_t Decoded) {
  if (!obs::enabled())
    return;
  obs::counterAdd(Incremental ? "gadget.scans_incremental"
                              : "gadget.scans_full");
  obs::counterAdd("gadget.bytes_scanned", ImageSize);
  obs::counterAdd("gadget.bytes_decoded", Decoded);
  if (Incremental)
    obs::counterAdd("gadget.dirty_bytes", Decoded);
}

/// Moves a table's clean-suffix entries [OldSize - SuffixBytes, OldSize)
/// to [FactHi, NewSize) and resizes to NewSize; entries below FactHi
/// other than the moved tail are left untouched for recomputation.
template <typename T>
void shiftTail(std::vector<T> &V, size_t OldSize, size_t NewSize,
               size_t FactHi) {
  if (NewSize > OldSize) {
    V.resize(NewSize);
    std::copy_backward(V.begin() +
                           static_cast<ptrdiff_t>(FactHi - (NewSize - OldSize)),
                       V.begin() + static_cast<ptrdiff_t>(OldSize),
                       V.begin() + static_cast<ptrdiff_t>(NewSize));
  } else if (NewSize < OldSize) {
    std::copy(V.begin() +
                  static_cast<ptrdiff_t>(FactHi + (OldSize - NewSize)),
              V.begin() + static_cast<ptrdiff_t>(OldSize),
              V.begin() + static_cast<ptrdiff_t>(FactHi));
    V.resize(NewSize);
  }
}

/// The (offset, normalized hash) identity used by the multi-version
/// analysis.
uint64_t identityOf(uint32_t Offset, uint64_t Hash) {
  return Hash ^ (static_cast<uint64_t>(Offset) * 0x9e3779b97f4a7c15ull);
}

/// Answers every threshold from one counting pass: bucket identities by
/// occurrence count, suffix-sum, then each query is a table lookup.
std::vector<uint64_t>
thresholdCounts(const std::unordered_map<uint64_t, unsigned> &Occurrences,
                const std::vector<unsigned> &Thresholds,
                size_t NumVersions) {
  // AtLeast[C] = number of identities occurring in >= C versions; the
  // extra slot keeps AtLeast[NumVersions + 1] = 0 for over-large
  // thresholds. No identity can occur more than once per version.
  std::vector<uint64_t> AtLeast(NumVersions + 2, 0);
  for (const auto &E : Occurrences)
    ++AtLeast[std::min<size_t>(E.second, NumVersions)];
  for (size_t C = NumVersions + 1; C-- > 0;)
    AtLeast[C] += AtLeast[C + 1];
  std::vector<uint64_t> Result(Thresholds.size(), 0);
  for (size_t T = 0; T != Thresholds.size(); ++T)
    Result[T] = Thresholds[T] > NumVersions ? 0 : AtLeast[Thresholds[T]];
  return Result;
}

/// Resolves ScanOptions::Jobs: 0 = all cores, clamped to the task count.
unsigned effectiveJobs(unsigned Jobs, size_t Tasks) {
  if (Jobs == 0)
    Jobs = support::ThreadPool::defaultConcurrency();
  return static_cast<unsigned>(std::min<size_t>(Jobs, Tasks));
}

} // namespace

//===----------------------------------------------------------------------===//
// ImageScan: decode-once fact table + backward DP
//===----------------------------------------------------------------------===//

ImageScan::ImageScan(const uint8_t *Text, size_t Size,
                     const ScanOptions &Options)
    : Opts(Options) {
  obs::Span Sp("gadget.scan");
  Bytes.assign(Text, Text + Size);
  fullScan();
}

ImageScan::ImageScan(const std::vector<uint8_t> &Text,
                     const ScanOptions &Options)
    : ImageScan(Text.data(), Text.size(), Options) {}

void ImageScan::fullScan() {
  const size_t Size = Bytes.size();
  FactLen.assign(Size, 0);
  FactFlags.assign(Size, 0);
  SuffixInstrs.assign(Size, 0);
  SuffixLen.assign(Size, 0);
  decodeFacts(0, Size);
  computeDP(0, Size);
  DecodedBytes = Size;
  LastIncremental = false;
  noteScan(/*Incremental=*/false, Size, Size);
}

void ImageScan::decodeFacts(size_t Begin, size_t End) {
  const uint8_t *Data = Bytes.data();
  const size_t Size = Bytes.size();
  for (size_t I = Begin; I < End; ++I) {
    uint8_t Len = 0;
    uint8_t Flags = 0;
    uint8_t DLen = 0;
    x86::InstrClass Class = x86::InstrClass::Invalid;
    if (x86::decodeLenClass(Data + I, Size - I, DLen, Class) && DLen != 0) {
      Len = DLen;
      switch (Class) {
      case x86::InstrClass::Ret:
      case x86::InstrClass::RetImm:
      case x86::InstrClass::RetFar:
      case x86::InstrClass::CallInd:
      case x86::InstrClass::JmpInd:
        Flags |= FFree;
        break;
      case x86::InstrClass::IntN:
        Flags |= FIntN;
        break;
      case x86::InstrClass::Normal:
        Flags |= FBody;
        break;
      default:
        break;
      }
      // Whole-instruction NOP match, inlined from the Table 1 rows
      // (matchNopAt + nopInfo(Kind).Length == Len): the table is seven
      // fixed 1-2 byte encodings with disjoint first bytes, and the
      // call overhead is a third of the per-offset budget here.
      if (Len == 1) {
        if (Data[I] == 0x90)
          Flags |= FNopDefault;
      } else if (Len == 2) {
        const uint8_t B0 = Data[I], B1 = Data[I + 1];
        if ((B0 == 0x89 && (B1 == 0xE4 || B1 == 0xED)) ||
            (B0 == 0x8D && (B1 == 0x36 || B1 == 0x3F)))
          Flags |= FNopDefault;
        else if (B0 == 0x87 && (B1 == 0xE4 || B1 == 0xED))
          Flags |= FNopXchg;
      }
    }
    FactLen[I] = Len;
    FactFlags[I] = Flags;
  }
}

void ImageScan::computeDP(size_t Begin, size_t End) {
  const size_t Size = Bytes.size();
  // SuffixInstrs is uint16_t; windows beyond 65535 instructions would
  // take hours under the reference oracle anyway.
  const unsigned EffMax = std::min(Opts.MaxInstrs, 65535u);
  for (size_t I = End; I-- > Begin;) {
    uint16_t N = 0;
    uint32_t B = 0;
    const uint8_t Len = FactLen[I];
    if (Len != 0 && EffMax != 0) {
      const uint8_t Flags = FactFlags[I];
      // Same precedence as the reference oracle: terminators first,
      // then the usable-body continuation.
      if ((Flags & FFree) ||
          (Opts.IncludeSyscallGadgets && (Flags & FIntN))) {
        N = 1;
        B = Len;
      } else if (Flags & FBody) {
        const size_t Next = I + Len;
        if (Next < Size) {
          const uint16_t NextN = SuffixInstrs[Next];
          // Extending a suffix of EffMax instructions would overflow
          // the window; extending one of 0 means no terminator (or a
          // disqualifier) lies within reach.
          if (NextN != 0 && NextN < EffMax) {
            N = static_cast<uint16_t>(NextN + 1);
            B = SuffixLen[Next] + Len;
          }
        }
      }
    }
    SuffixInstrs[I] = N;
    SuffixLen[I] = B;
  }
}

void ImageScan::rescan(const uint8_t *NewText, size_t NewSize) {
  obs::Span Sp("gadget.scan");
  const size_t OldSize = Bytes.size();
  const size_t MinSize = std::min(OldSize, NewSize);
  size_t Prefix = 0;
  while (Prefix < MinSize && Bytes[Prefix] == NewText[Prefix])
    ++Prefix;
  if (Prefix == OldSize && Prefix == NewSize) {
    DecodedBytes = 0;
    LastIncremental = true;
    noteScan(/*Incremental=*/true, NewSize, 0);
    return;
  }
  // Non-overlapping common suffix (capped so prefix + suffix never
  // double-count a byte when the edit inserts repeated content).
  size_t Suffix = 0;
  while (Suffix < MinSize - Prefix &&
         Bytes[OldSize - 1 - Suffix] == NewText[NewSize - 1 - Suffix])
    ++Suffix;

  // A decode fact at offset I reads at most MaxInstrBytes bytes, so
  // facts up to MaxInstrBytes - 1 before the first changed byte may
  // change. A DP value at I is a pure function of the facts reachable
  // within its MaxInstrs-step chain, i.e. of the bytes in
  // [I, I + (MaxInstrs + 1) * MaxInstrBytes); widening by that window
  // makes the rescan exact (DESIGN.md section 15).
  const size_t FactLo =
      Prefix > (MaxInstrBytes - 1) ? Prefix - (MaxInstrBytes - 1) : 0;
  const size_t FactHi = NewSize - Suffix;
  const size_t Window =
      (static_cast<size_t>(std::min(Opts.MaxInstrs, 65535u)) + 1) *
      MaxInstrBytes;
  const size_t DPLo = Prefix > Window ? Prefix - Window : 0;

  // Clean-suffix table entries keep their values at shifted positions:
  // every byte from FactHi to the end is unchanged relative to the old
  // image end, and facts/DP only ever read forward.
  shiftTail(FactLen, OldSize, NewSize, FactHi);
  shiftTail(FactFlags, OldSize, NewSize, FactHi);
  shiftTail(SuffixInstrs, OldSize, NewSize, FactHi);
  shiftTail(SuffixLen, OldSize, NewSize, FactHi);
  Bytes.assign(NewText, NewText + NewSize);

  decodeFacts(FactLo, FactHi);
  computeDP(DPLo, FactHi);
  DecodedBytes = FactHi - FactLo;
  LastIncremental = true;
  noteScan(/*Incremental=*/true, NewSize, DecodedBytes);
}

bool ImageScan::gadgetAt(uint32_t Offset, Gadget &Out) const {
  if (!hasGadgetAt(Offset))
    return false;
  Out.Offset = Offset;
  Out.Length = SuffixLen[Offset];
  Out.NumInstrs = static_cast<uint8_t>(SuffixInstrs[Offset]);
  return true;
}

size_t ImageScan::gadgetCount() const {
  size_t Count = 0;
  for (uint16_t N : SuffixInstrs)
    Count += N != 0;
  return Count;
}

std::vector<Gadget> ImageScan::gadgets() const {
  std::vector<Gadget> Out;
  Out.reserve(gadgetCount());
  for (size_t I = 0; I != SuffixInstrs.size(); ++I) {
    if (SuffixInstrs[I] == 0)
      continue;
    Gadget G;
    G.Offset = static_cast<uint32_t>(I);
    G.Length = SuffixLen[I];
    G.NumInstrs = static_cast<uint8_t>(SuffixInstrs[I]);
    Out.push_back(G);
  }
  return Out;
}

bool ImageScan::instructionsAt(
    uint32_t Offset,
    std::vector<std::pair<uint32_t, uint8_t>> &InstrsOut) const {
  InstrsOut.clear();
  if (!hasGadgetAt(Offset))
    return false;
  uint32_t Pos = Offset;
  for (uint16_t K = SuffixInstrs[Offset]; K != 0; --K) {
    InstrsOut.push_back({Pos, FactLen[Pos]});
    Pos += FactLen[Pos];
  }
  return true;
}

bool ImageScan::normalizedHashAt(uint32_t Offset, uint64_t &HashOut,
                                 unsigned &NonNopInstrsOut) const {
  if (!hasGadgetAt(Offset))
    return false;
  uint64_t Hash = 1469598103934665603ull; // FNV offset basis
  unsigned NonNop = 0;
  uint32_t Pos = Offset;
  for (uint16_t K = SuffixInstrs[Offset]; K != 0; --K) {
    const uint8_t Len = FactLen[Pos];
    const uint8_t Flags = FactFlags[Pos];
    const bool IsNop = (Flags & FNopDefault) != 0 ||
                       (Opts.IncludeXchgNops && (Flags & FNopXchg) != 0);
    if (!IsNop) {
      Hash = hashBytes(Hash, Bytes.data() + Pos, Len);
      ++NonNop;
    }
    Pos += Len;
  }
  HashOut = Hash;
  NonNopInstrsOut = NonNop;
  return true;
}

//===----------------------------------------------------------------------===//
// Free functions (fast by default, reference oracle on request)
//===----------------------------------------------------------------------===//

std::vector<Gadget> gadget::scanGadgets(const uint8_t *Text, size_t Size,
                                        const ScanOptions &Opts) {
  if (Opts.ForceReference) {
    obs::Span Sp("gadget.scan");
    obs::counterAdd("gadget.scans_reference");
    std::vector<Gadget> Gadgets;
    std::vector<std::pair<uint32_t, uint8_t>> Instrs;
    Instrs.reserve(Opts.MaxInstrs);
    for (size_t Offset = 0; Offset < Size; ++Offset) {
      if (!decodeGadgetAt(Text, Size, static_cast<uint32_t>(Offset), Opts,
                          Instrs))
        continue;
      Gadget G;
      G.Offset = static_cast<uint32_t>(Offset);
      const auto &Last = Instrs.back();
      G.Length = Last.first + Last.second - G.Offset;
      G.NumInstrs = static_cast<uint8_t>(Instrs.size());
      Gadgets.push_back(G);
    }
    return Gadgets;
  }
  ImageScan Scan(Text, Size, Opts);
  return Scan.gadgets();
}

bool gadget::normalizedGadgetHash(
    const uint8_t *Text, size_t Size, uint32_t Offset,
    const ScanOptions &Opts, uint64_t &HashOut, unsigned &NonNopInstrsOut,
    std::vector<std::pair<uint32_t, uint8_t>> &Scratch) {
  if (!decodeGadgetAt(Text, Size, Offset, Opts, Scratch))
    return false;
  uint64_t Hash = 1469598103934665603ull; // FNV offset basis
  unsigned NonNop = 0;
  for (const auto &[At, Len] : Scratch) {
    x86::NopKind Kind;
    // Remove all potentially inserted NOPs (paper Section 5.2). The
    // match must cover the whole instruction: e.g. 89 E4 is a NOP, but
    // 89 E4 as a prefix of a longer instruction is not.
    if (x86::matchNopAt(Text + At, Len, Opts.IncludeXchgNops, Kind) &&
        x86::nopInfo(Kind).Length == Len)
      continue;
    Hash = hashBytes(Hash, Text + At, Len);
    ++NonNop;
  }
  HashOut = Hash;
  NonNopInstrsOut = NonNop;
  return true;
}

bool gadget::normalizedGadgetHash(const uint8_t *Text, size_t Size,
                                  uint32_t Offset, const ScanOptions &Opts,
                                  uint64_t &HashOut,
                                  unsigned &NonNopInstrsOut) {
  std::vector<std::pair<uint32_t, uint8_t>> Scratch;
  Scratch.reserve(Opts.MaxInstrs);
  return normalizedGadgetHash(Text, Size, Offset, Opts, HashOut,
                              NonNopInstrsOut, Scratch);
}

std::vector<SurvivingGadget>
gadget::survivingGadgets(const ImageScan &Original,
                         const ImageScan &Diversified) {
  std::vector<SurvivingGadget> Survivors;
  // Candidate matches are pairs at identical offsets; walk the original
  // scan's gadgets and probe the diversified scan at the same offsets.
  const size_t Size = Original.size();
  for (size_t Offset = 0; Offset != Size; ++Offset) {
    uint64_t HashA, HashB;
    unsigned NonNopA, NonNopB;
    if (!Original.normalizedHashAt(static_cast<uint32_t>(Offset), HashA,
                                   NonNopA))
      continue;
    if (Offset >= Diversified.size())
      continue;
    if (!Diversified.normalizedHashAt(static_cast<uint32_t>(Offset), HashB,
                                      NonNopB))
      continue;
    if (HashA == HashB)
      Survivors.push_back({static_cast<uint32_t>(Offset), HashA});
  }
  return Survivors;
}

namespace {

/// (offset, normalized hash) of every gadget in \p OrigScan, ascending.
/// Computed once and shared across all diversified versions.
std::vector<SurvivingGadget> collectOrigHashes(const ImageScan &OrigScan) {
  std::vector<SurvivingGadget> Hashes;
  const size_t Size = OrigScan.size();
  for (size_t Offset = 0; Offset != Size; ++Offset) {
    uint64_t Hash;
    unsigned NonNop;
    if (OrigScan.normalizedHashAt(static_cast<uint32_t>(Offset), Hash,
                                  NonNop))
      Hashes.push_back({static_cast<uint32_t>(Offset), Hash});
  }
  return Hashes;
}

/// Survivor pass probing \p Diversified lazily: candidate matches sit at
/// identical offsets, so only the original's gadget offsets (a small
/// minority of the image) need decoding on the diversified side --
/// cheaper than building a full variant scan, with byte-identical
/// results (the per-offset probe IS the reference oracle's query).
std::vector<SurvivingGadget>
probeSurvivors(const std::vector<SurvivingGadget> &OrigHashes,
               const std::vector<uint8_t> &Diversified,
               const ScanOptions &Opts) {
  std::vector<SurvivingGadget> Survivors;
  std::vector<std::pair<uint32_t, uint8_t>> Scratch;
  Scratch.reserve(Opts.MaxInstrs);
  for (const SurvivingGadget &G : OrigHashes) {
    if (G.Offset >= Diversified.size())
      break; // ascending offsets: nothing further can match
    uint64_t HashB;
    unsigned NonNopB;
    if (gadget::normalizedGadgetHash(Diversified.data(), Diversified.size(),
                                     G.Offset, Opts, HashB, NonNopB,
                                     Scratch) &&
        HashB == G.NormHash)
      Survivors.push_back(G);
  }
  return Survivors;
}

} // namespace

std::vector<SurvivingGadget>
gadget::survivingGadgets(const std::vector<uint8_t> &Original,
                         const std::vector<uint8_t> &Diversified,
                         const ScanOptions &Opts) {
  obs::Span Sp("gadget.survivor");
  if (Opts.ForceReference) {
    std::vector<SurvivingGadget> Survivors;
    std::vector<Gadget> OrigGadgets =
        scanGadgets(Original.data(), Original.size(), Opts);
    std::vector<std::pair<uint32_t, uint8_t>> Scratch;
    Scratch.reserve(Opts.MaxInstrs);
    for (const Gadget &G : OrigGadgets) {
      uint64_t HashA, HashB;
      unsigned NonNopA, NonNopB;
      if (!normalizedGadgetHash(Original.data(), Original.size(), G.Offset,
                                Opts, HashA, NonNopA, Scratch))
        continue;
      if (G.Offset >= Diversified.size())
        continue;
      if (!normalizedGadgetHash(Diversified.data(), Diversified.size(),
                                G.Offset, Opts, HashB, NonNopB, Scratch))
        continue;
      if (HashA == HashB)
        Survivors.push_back({G.Offset, HashA});
    }
    return Survivors;
  }
  ImageScan OrigScan(Original.data(), Original.size(), Opts);
  if (Opts.Incremental) {
    ImageScan DivScan = OrigScan;
    DivScan.rescan(Diversified);
    return survivingGadgets(OrigScan, DivScan);
  }
  return probeSurvivors(collectOrigHashes(OrigScan), Diversified, Opts);
}

std::vector<std::vector<SurvivingGadget>>
gadget::survivingGadgetsMulti(const std::vector<uint8_t> &Original,
                              const std::vector<std::vector<uint8_t>> &Versions,
                              const ScanOptions &Opts) {
  obs::Span Sp("gadget.survivor");
  std::vector<std::vector<SurvivingGadget>> Out(Versions.size());
  if (Opts.ForceReference) {
    for (size_t I = 0; I != Versions.size(); ++I)
      Out[I] = survivingGadgets(Original, Versions[I], Opts);
    return Out;
  }
  // One shared original-image scan and one shared (offset, hash) list of
  // its gadgets; both are immutable once built, so workers read them
  // concurrently without synchronization.
  const ImageScan OrigScan(Original.data(), Original.size(), Opts);
  const std::vector<SurvivingGadget> OrigHashes = collectOrigHashes(OrigScan);
  auto ScanOne = [&OrigScan, &OrigHashes, &Versions, &Opts, &Out](size_t I) {
    if (Opts.Incremental) {
      // Seed from the original scan: the variant diff is typically a
      // small fraction of the image, so the rescan re-decodes only the
      // widened dirty ranges.
      ImageScan DivScan = OrigScan;
      DivScan.rescan(Versions[I]);
      Out[I] = survivingGadgets(OrigScan, DivScan);
    } else {
      Out[I] = probeSurvivors(OrigHashes, Versions[I], Opts);
    }
  };
  const unsigned Jobs = effectiveJobs(Opts.Jobs, Versions.size());
  if (Jobs <= 1) {
    for (size_t I = 0; I != Versions.size(); ++I)
      ScanOne(I);
    return Out;
  }
  // Workers accumulate telemetry into per-version sinks (obs cost
  // contract: no registry lock inside the pool), merged in version
  // order after the barrier.
  std::vector<obs::LocalMetrics> Sinks(obs::enabled() ? Versions.size() : 0);
  support::ThreadPool Pool(Jobs);
  for (size_t I = 0; I != Versions.size(); ++I)
    Pool.enqueue([&ScanOne, &Sinks, I] {
      obs::ScopedSink Guard(Sinks.empty() ? nullptr : &Sinks[I]);
      ScanOne(I);
    });
  Pool.wait();
  for (const obs::LocalMetrics &Sink : Sinks)
    obs::Registry::global().merge(Sink);
  return Out;
}

std::vector<uint64_t>
gadget::gadgetsInAtLeast(const std::vector<std::vector<uint8_t>> &Versions,
                         const std::vector<unsigned> &Thresholds,
                         const ScanOptions &Opts) {
  obs::Span Sp("gadget.multiversion");
  // Identity = (offset, normalized content hash). Count occurrences
  // across versions; each version contributes at most one occurrence
  // per identity (one gadget per start offset).
  std::unordered_map<uint64_t, unsigned> Occurrences;
  if (Opts.ForceReference) {
    std::vector<std::pair<uint32_t, uint8_t>> Scratch;
    Scratch.reserve(Opts.MaxInstrs);
    for (const std::vector<uint8_t> &Text : Versions) {
      std::vector<Gadget> Gadgets =
          scanGadgets(Text.data(), Text.size(), Opts);
      for (const Gadget &G : Gadgets) {
        uint64_t Hash;
        unsigned NonNop;
        if (!normalizedGadgetHash(Text.data(), Text.size(), G.Offset, Opts,
                                  Hash, NonNop, Scratch))
          continue;
        ++Occurrences[identityOf(G.Offset, Hash)];
      }
    }
    return thresholdCounts(Occurrences, Thresholds, Versions.size());
  }

  auto Accumulate = [&Opts](const std::vector<uint8_t> &Text,
                            std::unordered_map<uint64_t, unsigned> &Map) {
    ImageScan Scan(Text.data(), Text.size(), Opts);
    const size_t Size = Scan.size();
    for (size_t Offset = 0; Offset != Size; ++Offset) {
      uint64_t Hash;
      unsigned NonNop;
      if (!Scan.normalizedHashAt(static_cast<uint32_t>(Offset), Hash,
                                 NonNop))
        continue;
      ++Map[identityOf(static_cast<uint32_t>(Offset), Hash)];
    }
  };

  const unsigned Jobs = effectiveJobs(Opts.Jobs, Versions.size());
  if (Jobs <= 1) {
    for (const std::vector<uint8_t> &Text : Versions)
      Accumulate(Text, Occurrences);
    return thresholdCounts(Occurrences, Thresholds, Versions.size());
  }
  // Contiguous version shards, one occurrence map per worker. Counts
  // are additive and an identity's total is independent of which shard
  // saw it, so merging in shard order makes the result bit-identical to
  // the serial accumulation regardless of scheduling.
  const size_t N = Versions.size();
  std::vector<std::unordered_map<uint64_t, unsigned>> Maps(Jobs);
  std::vector<obs::LocalMetrics> Sinks(obs::enabled() ? Jobs : 0);
  support::ThreadPool Pool(Jobs);
  for (unsigned W = 0; W != Jobs; ++W) {
    const size_t Begin = N * W / Jobs;
    const size_t End = N * (W + 1) / Jobs;
    Pool.enqueue([&Accumulate, &Versions, &Maps, &Sinks, W, Begin, End] {
      obs::ScopedSink Guard(Sinks.empty() ? nullptr : &Sinks[W]);
      for (size_t I = Begin; I != End; ++I)
        Accumulate(Versions[I], Maps[W]);
    });
  }
  Pool.wait();
  for (const obs::LocalMetrics &Sink : Sinks)
    obs::Registry::global().merge(Sink);
  Occurrences = std::move(Maps[0]);
  for (unsigned W = 1; W != Jobs; ++W)
    for (const auto &E : Maps[W])
      Occurrences[E.first] += E.second;
  return thresholdCounts(Occurrences, Thresholds, Versions.size());
}
