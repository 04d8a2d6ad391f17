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
//  * The decode-once scanner (ImageScan): one backward pass decodes each
//    offset exactly once into a flat fact table (length + class/NOP flag
//    bits) and computes the gadget suffix DP entry at that offset.
//
// The multi-version sweeps build on the same decode fact (factAt): the
// Survivor probe reads each diversified image through a lazily filled
// fact table, and the Table 3 counter buckets every version's
// (offset, hash) list by offset instead of hashing identities.
//
// ScannerParityTest pins byte-identical results between the fast paths
// and the oracle across the workload battery, fuzzed programs under
// varied options, and random byte streams.
//
//===----------------------------------------------------------------------===//

#include "gadget/Scanner.h"

#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "x86/Decoder.h"
#include "x86/Nops.h"

#include <algorithm>
#include <array>

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

/// FNV-1a offset basis: the empty normalized sequence's hash.
constexpr uint64_t FnvBasis = 1469598103934665603ull;

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
  FKnown = 1 << 7,      ///< Lazy fact tables only: the fact is filled.
};

/// FactFlags class bit of each InstrClass, by the decoder's own
/// predicates; 0 for direct control flow, privileged and invalid
/// instructions.
constexpr std::array<uint8_t, size_t(x86::InstrClass::Invalid) + 1>
buildClassFlags() {
  std::array<uint8_t, size_t(x86::InstrClass::Invalid) + 1> T{};
  for (size_t C = 0; C != T.size(); ++C) {
    x86::Decoded D;
    D.Class = static_cast<x86::InstrClass>(C);
    if (D.isFreeBranch())
      T[C] = FFree;
    else if (D.Class == x86::InstrClass::IntN)
      T[C] = FIntN;
    else if (D.isUsableBody())
      T[C] = FBody;
  }
  return T;
}
constexpr auto ClassFlags = buildClassFlags();

/// The decode fact at offset \p I: instruction length (0 = invalid)
/// and FactFlags bits. The one definition of what the fast paths know
/// about an offset -- ImageScan's table pass and the lazy Survivor
/// probe both call it, so Table 1 NOP matching lives here only. Written
/// without data-dependent branches: lengths and classes at arbitrary
/// offsets are too irregular to predict.
[[gnu::always_inline]] inline void factAt(const uint8_t *Data, size_t Size,
                                          size_t I, uint8_t &Len,
                                          uint8_t &Flags) {
  uint8_t DLen = 0;
  x86::InstrClass Class = x86::InstrClass::Invalid;
  // An invalid decode has class Invalid, whose class bits are 0.
  Len = x86::decodeLenClass(Data + I, Size - I, DLen, Class) ? DLen : 0;
  // Whole-instruction NOP match, inlined from the Table 1 rows
  // (matchNopAt + nopInfo(Kind).Length == Len): the table is seven
  // fixed 1-2 byte encodings with disjoint first bytes. B1 is only read
  // past I when the instruction covers it.
  const unsigned B0 = Data[I], B1 = Data[I + (Len >= 2)];
  const unsigned Pair = B0 << 8 | B1;
  const bool One = Len == 1, Two = Len == 2;
  const bool NopDefault =
      (One & (B0 == 0x90)) |
      (Two & ((Pair == 0x89E4) | (Pair == 0x89ED) | (Pair == 0x8D36) |
              (Pair == 0x8D3F)));
  const bool NopXchg = Two & ((Pair == 0x87E4) | (Pair == 0x87ED));
  Flags = static_cast<uint8_t>(ClassFlags[size_t(Class)] |
                               (NopDefault ? FNopDefault : 0) |
                               (NopXchg ? FNopXchg : 0));
}

/// True when a fact with \p Flags is removed by Section 5.2's NOP
/// normalization under \p Opts.
inline bool isNormalizedNop(uint8_t Flags, const ScanOptions &Opts) {
  return (Flags & FNopDefault) != 0 ||
         (Opts.IncludeXchgNops && (Flags & FNopXchg) != 0);
}

/// The FactFlags bits that end a gadget under \p Opts.
inline uint8_t terminatorMask(const ScanOptions &Opts) {
  return FFree | (Opts.IncludeSyscallGadgets ? FIntN : 0);
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
  FactLen.resize(Size);
  FactFlags.resize(Size);
  SuffixInstrs.resize(Size);
  SuffixLen.resize(Size);
  scanBackward();
  // A full scan decodes every byte it is handed.
  if (obs::enabled()) {
    obs::counterAdd("gadget.scans_full");
    obs::counterAdd("gadget.bytes_scanned", Size);
    obs::counterAdd("gadget.bytes_decoded", Size);
  }
}

ImageScan::ImageScan(const std::vector<uint8_t> &Text,
                     const ScanOptions &Options)
    : ImageScan(Text.data(), Text.size(), Options) {}

void ImageScan::scanBackward() {
  // Raw pointers in locals: the uint8_t stores below may alias anything,
  // which would otherwise reload every vector's data pointer per offset.
  const uint8_t *Data = Bytes.data();
  const size_t Size = Bytes.size();
  uint8_t *Lens = FactLen.data();
  uint8_t *FlagsAt = FactFlags.data();
  uint16_t *Instrs = SuffixInstrs.data();
  uint32_t *Lengths = SuffixLen.data();
  // SuffixInstrs is uint16_t; windows beyond 65535 instructions would
  // take hours under the reference oracle anyway. A zero window admits
  // no gadget.
  const unsigned EffMax = std::min(Opts.MaxInstrs, 65535u);
  const uint8_t TermMask = EffMax == 0 ? 0 : terminatorMask(Opts);
  // The DP entry at I from its fact: a pure function of the fact and the
  // entry at I + Len, which the backward order has already made final.
  // Same precedence as the reference oracle: terminators first, then the
  // usable-body continuation. An invalid fact has no flags, so neither
  // applies.
  for (size_t I = Size; I-- > 0;) {
    uint8_t Len, Flags;
    factAt(Data, Size, I, Len, Flags);
    Lens[I] = Len;
    FlagsAt[I] = Flags;
    const size_t Next = I + Len;
    uint16_t NextN = 0;
    uint32_t NextB = 0;
    if (Next < Size) {
      NextN = Instrs[Next];
      NextB = Lengths[Next];
    }
    // Extending a suffix of EffMax instructions would overflow the
    // window; extending one of 0 means no terminator (or a disqualifier)
    // lies within reach.
    const bool Term = (Flags & TermMask) != 0;
    const bool Extend =
        ((Flags & FBody) != 0) & (NextN != 0) & (NextN < EffMax);
    Instrs[I] = static_cast<uint16_t>(Term ? 1 : Extend ? NextN + 1 : 0);
    Lengths[I] = Term ? Len : Extend ? NextB + Len : 0;
  }
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
  uint64_t Hash = FnvBasis;
  unsigned NonNop = 0;
  uint32_t Pos = Offset;
  for (uint16_t K = SuffixInstrs[Offset]; K != 0; --K) {
    const uint8_t Len = FactLen[Pos];
    if (!isNormalizedNop(FactFlags[Pos], Opts)) {
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

namespace {

/// (offset, normalized hash) of every gadget in \p Scan, ascending.
std::vector<SurvivingGadget> gadgetHashes(const ImageScan &Scan) {
  std::vector<SurvivingGadget> Hashes;
  const size_t Size = Scan.size();
  for (size_t Offset = 0; Offset != Size; ++Offset) {
    uint64_t Hash;
    unsigned NonNop;
    if (Scan.normalizedHashAt(static_cast<uint32_t>(Offset), Hash, NonNop))
      Hashes.push_back({static_cast<uint32_t>(Offset), Hash});
  }
  return Hashes;
}

/// The same list computed by the reference oracle.
std::vector<SurvivingGadget>
referenceGadgetHashes(const std::vector<uint8_t> &Text,
                      const ScanOptions &Opts) {
  std::vector<SurvivingGadget> Hashes;
  std::vector<std::pair<uint32_t, uint8_t>> Scratch;
  Scratch.reserve(Opts.MaxInstrs);
  for (const Gadget &G : scanGadgets(Text.data(), Text.size(), Opts)) {
    uint64_t Hash;
    unsigned NonNop;
    if (normalizedGadgetHash(Text.data(), Text.size(), G.Offset, Opts, Hash,
                             NonNop, Scratch))
      Hashes.push_back({G.Offset, Hash});
  }
  return Hashes;
}

/// A diversified image read through decode facts filled on first touch.
/// Probe chains from neighbouring original-gadget offsets share most of
/// their instructions, so each offset is decoded at most once however
/// many chains cross it, and offsets no chain reaches are never decoded;
/// filled() counts the decoded ones.
class LazyFacts {
public:
  explicit LazyFacts(const std::vector<uint8_t> &Text)
      : Data(Text.data()), Size(Text.size()), Facts(Text.size()) {}

  /// Normalized hash of the gadget starting at \p Offset; false when
  /// none starts there. Walks the chain with decodeGadgetAt's rules,
  /// then hashes it as ImageScan::normalizedHashAt does.
  bool hashAt(uint32_t Offset, const ScanOptions &Opts, uint64_t &HashOut) {
    const uint8_t TermMask = terminatorMask(Opts);
    size_t Pos = Offset;
    unsigned N = 0;
    for (;;) {
      if (N == Opts.MaxInstrs || Pos >= Size)
        return false; // no terminator within the window or the image
      const Fact &F = at(Pos);
      if (F.Len == 0)
        return false;
      ++N;
      if (F.Flags & TermMask)
        break;
      if ((F.Flags & FBody) == 0)
        return false; // direct control flow, privileged, syscall
      Pos += F.Len;
    }
    uint64_t Hash = FnvBasis;
    Pos = Offset;
    for (; N != 0; --N) {
      const Fact &F = Facts[Pos];
      if (!isNormalizedNop(F.Flags, Opts))
        Hash = hashBytes(Hash, Data + Pos, F.Len);
      Pos += F.Len;
    }
    HashOut = Hash;
    return true;
  }

  size_t filled() const { return Filled; }

private:
  struct Fact {
    uint8_t Len = 0;
    uint8_t Flags = 0; ///< FactFlags bits; FKnown once filled.
  };

  const Fact &at(size_t I) {
    Fact &F = Facts[I];
    if ((F.Flags & FKnown) == 0) {
      factAt(Data, Size, I, F.Len, F.Flags);
      F.Flags |= FKnown;
      ++Filled;
    }
    return F;
  }

  const uint8_t *Data;
  size_t Size;
  std::vector<Fact> Facts;
  size_t Filled = 0;
};

/// Survivor pass probing \p Diversified lazily: candidate matches sit at
/// identical offsets, so only the original's gadget offsets (a small
/// minority of the image) are walked on the diversified side -- cheaper
/// than building a full variant scan. Equality with the reference
/// oracle is pinned by ScannerParityTest, not by construction.
std::vector<SurvivingGadget>
probeSurvivors(const std::vector<SurvivingGadget> &OrigHashes,
               const std::vector<uint8_t> &Diversified,
               const ScanOptions &Opts) {
  std::vector<SurvivingGadget> Survivors;
  LazyFacts Div(Diversified);
  for (const SurvivingGadget &G : OrigHashes) {
    if (G.Offset >= Diversified.size())
      break; // ascending offsets: nothing further can match
    uint64_t HashB;
    if (Div.hashAt(G.Offset, Opts, HashB) && HashB == G.NormHash)
      Survivors.push_back(G);
  }
  // The probed image counts as scanned, and only its filled offsets as
  // decoded, so gadget.bytes_decoded / bytes_scanned shows the saving.
  if (obs::enabled()) {
    obs::counterAdd("gadget.bytes_scanned", Diversified.size());
    obs::counterAdd("gadget.bytes_decoded", Div.filled());
  }
  return Survivors;
}

/// Runs \p Body(I) for every version index I < \p N: serially on the
/// calling thread, or sharded over a support::ThreadPool. Workers
/// accumulate telemetry into per-version sinks (obs cost contract: no
/// registry lock inside the pool), merged in version order after the
/// barrier.
template <typename BodyFn>
void forEachVersion(size_t N, unsigned JobsOpt, const BodyFn &Body) {
  const unsigned Jobs = effectiveJobs(JobsOpt, N);
  if (Jobs <= 1) {
    for (size_t I = 0; I != N; ++I)
      Body(I);
    return;
  }
  std::vector<obs::LocalMetrics> Sinks(obs::enabled() ? N : 0);
  support::ThreadPool Pool(Jobs);
  for (size_t I = 0; I != N; ++I)
    Pool.enqueue([&Body, &Sinks, I] {
      obs::ScopedSink Guard(Sinks.empty() ? nullptr : &Sinks[I]);
      Body(I);
    });
  Pool.wait();
  for (const obs::LocalMetrics &Sink : Sinks)
    obs::Registry::global().merge(Sink);
}

/// Table 3's counter. Each list holds one version's gadgets as
/// (offset, normalized hash) in ascending offset order, at most one per
/// offset; an identity is the exact (offset, hash) pair. Bucketing every
/// list by offset through a prefix-summed index, then sorting the at
/// most Lists.size() hashes of each bucket, makes each identity one run
/// of equal hashes whose length is the number of versions holding it.
/// Returns, per threshold, the identities in at least that many
/// versions.
std::vector<uint64_t>
countIdentities(const std::vector<std::vector<SurvivingGadget>> &Lists,
                const std::vector<unsigned> &Thresholds) {
  const size_t NumVersions = Lists.size();
  size_t Span = 0;
  for (const std::vector<SurvivingGadget> &L : Lists)
    if (!L.empty())
      Span = std::max<size_t>(Span, size_t(L.back().Offset) + 1);
  // Begin[O + 1] counts offset O's entries; after the prefix sum, offset
  // O's bucket is Hashes[Begin[O], Begin[O + 1]).
  std::vector<size_t> Begin(Span + 1, 0);
  for (const std::vector<SurvivingGadget> &L : Lists)
    for (const SurvivingGadget &G : L)
      ++Begin[size_t(G.Offset) + 1];
  for (size_t O = 0; O != Span; ++O)
    Begin[O + 1] += Begin[O];
  std::vector<uint64_t> Hashes(Begin[Span]);
  std::vector<size_t> Cursor(Begin.begin(), Begin.end() - 1);
  for (const std::vector<SurvivingGadget> &L : Lists)
    for (const SurvivingGadget &G : L)
      Hashes[Cursor[G.Offset]++] = G.NormHash;

  // AtLeast[C] = number of identities occurring in >= C versions; the
  // extra slot keeps AtLeast[NumVersions + 1] = 0 for over-large
  // thresholds.
  std::vector<uint64_t> AtLeast(NumVersions + 2, 0);
  for (size_t O = 0; O != Span; ++O) {
    const auto First = Hashes.begin() + static_cast<ptrdiff_t>(Begin[O]);
    const auto Last = Hashes.begin() + static_cast<ptrdiff_t>(Begin[O + 1]);
    std::sort(First, Last);
    for (auto Run = First; Run != Last;) {
      const auto RunEnd = std::find_if(
          Run, Last, [H = *Run](uint64_t Other) { return Other != H; });
      ++AtLeast[std::min<size_t>(static_cast<size_t>(RunEnd - Run),
                                 NumVersions)];
      Run = RunEnd;
    }
  }
  for (size_t C = NumVersions + 1; C-- > 0;)
    AtLeast[C] += AtLeast[C + 1];
  std::vector<uint64_t> Result(Thresholds.size(), 0);
  for (size_t T = 0; T != Thresholds.size(); ++T)
    Result[T] = Thresholds[T] > NumVersions ? 0 : AtLeast[Thresholds[T]];
  return Result;
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
  return probeSurvivors(
      gadgetHashes(ImageScan(Original.data(), Original.size(), Opts)),
      Diversified, Opts);
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
  const std::vector<SurvivingGadget> OrigHashes = gadgetHashes(OrigScan);
  forEachVersion(Versions.size(), Opts.Jobs, [&](size_t I) {
    Out[I] = probeSurvivors(OrigHashes, Versions[I], Opts);
  });
  return Out;
}

std::vector<uint64_t>
gadget::gadgetsInAtLeast(const std::vector<std::vector<uint8_t>> &Versions,
                         const std::vector<unsigned> &Thresholds,
                         const ScanOptions &Opts) {
  obs::Span Sp("gadget.multiversion");
  // Each version contributes its (offset, hash) list; workers fill the
  // lists and one count runs after the barrier, so the result is
  // independent of Jobs.
  std::vector<std::vector<SurvivingGadget>> Lists(Versions.size());
  if (Opts.ForceReference) {
    for (size_t I = 0; I != Versions.size(); ++I)
      Lists[I] = referenceGadgetHashes(Versions[I], Opts);
  } else {
    forEachVersion(Versions.size(), Opts.Jobs, [&](size_t I) {
      Lists[I] = gadgetHashes(ImageScan(Versions[I], Opts));
    });
  }
  return countIdentities(Lists, Thresholds);
}
