//===-- gadget/Scanner.cpp - ROP gadget scanning and Survivor --------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Two implementations live here (DESIGN.md section 15):
//
//  * The reference oracle (decodeGadgetAt, normalizedGadgetHash and the
//    ForceReference paths): decode afresh from every byte offset with a
//    MaxInstrs window and hash each gadget by walking its chain. This is
//    the executable specification of a gadget and of its hash.
//
//  * The fast paths, all built on one backward DP step (stepSuffix): the
//    gadget suffix at offset I -- its instructions, bytes and normalized
//    hash -- is a function of I's decode fact and the suffix at I + Len.
//    scanImage runs the step over a whole image in one backward pass;
//    its sinks are ImageScan's tables and the ascending (offset, hash)
//    list both multi-version sweeps read. The lazy Survivor probe runs
//    the same step on demand and memoizes each offset's suffix.
//
// The normalized hash is FNV-1a over the gadget's bytes with Table 1
// NOPs removed, read last byte first. Read backward, it composes: the
// suffix at I continues the hash at I + Len over instruction I's bytes,
// a NOP passes it through unchanged, and a terminator starts from the
// FNV basis. It is still a function of the normalized byte string
// alone, so two gadgets share an identity exactly when their normalized
// bytes are equal, up to 64-bit collisions.
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
#include <memory>

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

/// FNV-1a offset basis: the empty normalized sequence's hash.
constexpr uint64_t FnvBasis = 1469598103934665603ull;

/// Continues FNV-1a over \p Size bytes at \p Bytes, last byte first --
/// the byte order of the normalized hash.
inline uint64_t hashBytesReversed(uint64_t Hash, const uint8_t *Bytes,
                                  size_t Size) {
  for (size_t I = Size; I-- > 0;) {
    Hash ^= Bytes[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

/// Per-offset decode-fact flag bits. The class bits mirror the reference
/// oracle's check order: free branch, then IntN (a terminator only when
/// IncludeSyscallGadgets), then usable body; the classes are mutually
/// exclusive so at most one is set. The NOP bits record
/// whole-instruction Table 1 matches for both NOP sets so one fact
/// serves either IncludeXchgNops setting.
enum : uint8_t {
  FFree = 1 << 0,       ///< Free-branch terminator.
  FIntN = 1 << 1,       ///< Software interrupt (INT n / SYSENTER).
  FBody = 1 << 2,       ///< Usable gadget body (InstrClass::Normal).
  FNopDefault = 1 << 3, ///< Whole instruction is a default-set NOP.
  FNopXchg = 1 << 4,    ///< Whole instruction is a bus-locking XCHG NOP.
  FSuffix = 1 << 6,     ///< Lazy probe only: the suffix is memoized.
  FKnown = 1 << 7,      ///< Lazy probe only: the fact is filled.
};

/// Fact class bit of each InstrClass, by the decoder's own predicates;
/// 0 for direct control flow, privileged and invalid instructions.
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

/// The NOP bits of a whole Table 1 instruction with first byte \p B0
/// and second byte \p B1 (0 when there is none): the seven encodings
/// are fixed 1-2 byte strings with disjoint first bytes, and none ends
/// in 0x00.
constexpr uint8_t nopBits(unsigned B0, unsigned B1) {
  const unsigned Pair = B0 << 8 | B1;
  const bool NopDefault = B0 == 0x90 || Pair == 0x89E4 || Pair == 0x89ED ||
                          Pair == 0x8D36 || Pair == 0x8D3F;
  const bool NopXchg = Pair == 0x87E4 || Pair == 0x87ED;
  return static_cast<uint8_t>((NopDefault ? FNopDefault : 0) |
                              (NopXchg ? FNopXchg : 0));
}

/// A missing B1 read as 0 matches only the one-byte NOP.
static_assert([] {
  for (unsigned B0 = 0; B0 != 256; ++B0)
    if (nopBits(B0, 0) != (B0 == 0x90 ? FNopDefault : 0))
      return false;
  return true;
}());

/// nopBits by B0 << 8 | B1, so the fact step reads one byte for them.
constexpr std::array<uint8_t, 1 << 16> buildNopPairBits() {
  std::array<uint8_t, 1 << 16> T{};
  for (unsigned B0 = 0; B0 != 256; ++B0)
    for (unsigned B1 = 0; B1 != 256; ++B1)
      T[B0 << 8 | B1] = nopBits(B0, B1);
  return T;
}
constexpr auto NopPairBits = buildNopPairBits();

/// The Table 1 NOP bits at offset \p I of \p Data: set exactly when a
/// whole Table 1 instruction starts there. Read from the offset's first
/// two bytes alone, not from its decoded length: every Table 1 encoding
/// decodes to exactly its own length (90 is a complete instruction, and
/// each two-byte form is an opcode whose ModRM names a register or
/// [reg] with no SIB or displacement), so whenever the bytes match, the
/// instruction is the NOP. Past the image's end B1 reads as 0, which no
/// two-byte form ends in.
inline uint8_t nopBitsAt(const uint8_t *Data, size_t Size, size_t I) {
  const bool Two = I + 1 < Size;
  return NopPairBits[Data[I] << 8 | (Two ? Data[I + 1] : 0)];
}

/// The decode fact at offset \p I: instruction length (0 = invalid)
/// and flag bits. The one definition of what the fast paths know about
/// an offset -- the full pass and the lazy Survivor probe both call it,
/// so Table 1 NOP matching lives here only. Written without
/// data-dependent branches: lengths and classes at arbitrary offsets
/// are too irregular to predict. The NOP bits do not depend on the
/// decode, so they do not wait on it.
[[gnu::always_inline]] inline void factAt(const uint8_t *Data, size_t Size,
                                          size_t I, uint8_t &Len,
                                          uint8_t &Flags) {
  uint8_t DLen = 0;
  x86::InstrClass Class = x86::InstrClass::Invalid;
  // An invalid decode has class Invalid, whose class bits are 0.
  Len = x86::decodeLenClass(Data + I, Size - I, DLen, Class) ? DLen : 0;
  Flags = static_cast<uint8_t>(ClassFlags[size_t(Class)] |
                               nopBitsAt(Data, Size, I));
}

/// The DP entry at one offset: the gadget suffix starting there.
struct Suffix {
  uint64_t Hash;   ///< Normalized hash; meaningful when Instrs != 0.
  uint32_t Len;    ///< Bytes up to and including the terminator.
  uint16_t Instrs; ///< Instructions; 0 = no gadget within the window.
};

/// No gadget starts here; also the entry read past the image's end.
constexpr Suffix NoSuffix{FnvBasis, 0, 0};

/// What the DP step reads from ScanOptions.
struct StepRules {
  explicit StepRules(const ScanOptions &Opts)
      // Suffix::Instrs is uint16_t; windows beyond 65535 instructions
      // would take hours under the reference oracle anyway. A zero
      // window admits no gadget.
      : MaxInstrs(std::min(Opts.MaxInstrs, 65535u)),
        TermMask(MaxInstrs == 0
                     ? 0
                     : FFree | (Opts.IncludeSyscallGadgets ? FIntN : 0)),
        NopMask(FNopDefault | (Opts.IncludeXchgNops ? FNopXchg : 0)) {}
  unsigned MaxInstrs;
  uint8_t TermMask; ///< Fact bits that end a gadget.
  uint8_t NopMask;  ///< Fact bits that Section 5.2's normalization drops.
};

/// The DP step, the fast paths' one definition of a gadget and its hash:
/// the suffix at \p At from its fact (\p Len, \p Flags) and the suffix
/// \p Next at At + Len. Same precedence as the reference oracle:
/// terminators first, then the usable-body continuation; an invalid
/// fact has no flags, so neither applies. Extending a suffix of
/// MaxInstrs instructions would overflow the window; extending one of 0
/// means no terminator (or a disqualifier) lies within reach. The hash
/// continues Next's over this instruction's bytes unless it is a NOP.
[[gnu::always_inline]] inline Suffix stepSuffix(const uint8_t *At,
                                                uint8_t Len, uint8_t Flags,
                                                const Suffix &Next,
                                                const StepRules &Rules) {
  const bool Term = (Flags & Rules.TermMask) != 0;
  const bool Extend = ((Flags & FBody) != 0) & (Next.Instrs != 0) &
                      (Next.Instrs < Rules.MaxInstrs);
  Suffix S;
  S.Instrs = static_cast<uint16_t>(Term ? 1 : Extend ? Next.Instrs + 1 : 0);
  S.Len = Term ? Len : Extend ? Next.Len + Len : 0;
  S.Hash = Term ? FnvBasis : Next.Hash;
  if (S.Instrs != 0 && (Flags & Rules.NopMask) == 0)
    S.Hash = hashBytesReversed(S.Hash, At, Len);
  return S;
}

/// The one full pass over an image: decodes every offset's fact and
/// runs the DP step, in descending offset order, calling
/// \p Sink(Offset, Len, Suffix) at each. A step reads only the entry
/// Len <= MaxInstrLen bytes ahead, so a ring of the last 16 entries
/// stands in for a per-offset table. Opens the gadget.scan span and
/// counts the image as scanned and decoded in full.
template <typename SinkFn>
void scanImage(const uint8_t *Data, size_t Size, const ScanOptions &Opts,
               SinkFn &&Sink) {
  obs::Span Sp("gadget.scan");
  constexpr size_t RingSize = 16;
  static_assert(x86::MaxInstrLen < RingSize);
  const StepRules Rules(Opts);
  std::array<Suffix, RingSize> Ring;
  Ring.fill(NoSuffix);
  for (size_t I = Size; I-- > 0;) {
    uint8_t Len = 0, Flags = 0;
    factAt(Data, Size, I, Len, Flags);
    // A valid instruction ends within the image, so Next <= Size, and
    // slot Size % RingSize still holds NoSuffix whenever it is read: it
    // is first overwritten at offset Size - RingSize, below every
    // offset within MaxInstrLen of the end.
    const size_t Next = I + Len;
    const Suffix S =
        stepSuffix(Data + I, Len, Flags, Ring[Next % RingSize], Rules);
    Ring[I % RingSize] = S;
    Sink(I, Len, S);
  }
  if (obs::enabled()) {
    obs::counterAdd("gadget.scans_full");
    obs::counterAdd("gadget.bytes_scanned", Size);
    obs::counterAdd("gadget.bytes_decoded", Size);
  }
}

/// Resolves ScanOptions::Jobs: 0 = all cores, clamped to the task count.
unsigned effectiveJobs(unsigned Jobs, size_t Tasks) {
  if (Jobs == 0)
    Jobs = support::ThreadPool::defaultConcurrency();
  return static_cast<unsigned>(std::min<size_t>(Jobs, Tasks));
}

} // namespace

//===----------------------------------------------------------------------===//
// ImageScan: the full pass's per-offset tables
//===----------------------------------------------------------------------===//

ImageScan::ImageScan(const uint8_t *Text, size_t Size,
                     const ScanOptions &Opts)
    : FactLen(Size), SuffixInstrs(Size), SuffixLen(Size) {
  // Raw pointers: the uint8_t stores may alias anything, which would
  // otherwise reload every vector's data pointer per offset.
  uint8_t *Lens = FactLen.data();
  uint16_t *Instrs = SuffixInstrs.data();
  uint32_t *Lengths = SuffixLen.data();
  scanImage(Text, Size, Opts,
            [Lens, Instrs, Lengths](size_t I, uint8_t Len, const Suffix &S) {
              Lens[I] = Len;
              Instrs[I] = S.Instrs;
              Lengths[I] = S.Len;
            });
}

std::vector<Gadget> ImageScan::gadgets() const {
  std::vector<Gadget> Out;
  Out.reserve(static_cast<size_t>(std::count_if(
      SuffixInstrs.begin(), SuffixInstrs.end(),
      [](uint16_t N) { return N != 0; })));
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
  uint64_t Hash = FnvBasis;
  unsigned NonNop = 0;
  // Last instruction first, each one's bytes last first: the reversed
  // normalized byte string.
  for (auto It = Scratch.rbegin(); It != Scratch.rend(); ++It) {
    const auto [At, Len] = *It;
    x86::NopKind Kind;
    // Remove all potentially inserted NOPs (paper Section 5.2). The
    // match must cover the whole instruction: e.g. 89 E4 is a NOP, but
    // 89 E4 as a prefix of a longer instruction is not.
    if (x86::matchNopAt(Text + At, Len, Opts.IncludeXchgNops, Kind) &&
        x86::nopInfo(Kind).Length == Len)
      continue;
    Hash = hashBytesReversed(Hash, Text + At, Len);
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

std::vector<SurvivingGadget> gadget::gadgetHashes(const uint8_t *Text,
                                                  size_t Size,
                                                  const ScanOptions &Opts) {
  std::vector<SurvivingGadget> Hashes;
  if (Opts.ForceReference) {
    std::vector<std::pair<uint32_t, uint8_t>> Scratch;
    Scratch.reserve(Opts.MaxInstrs);
    for (const Gadget &G : scanGadgets(Text, Size, Opts)) {
      uint64_t Hash = 0;
      unsigned NonNop = 0;
      if (normalizedGadgetHash(Text, Size, G.Offset, Opts, Hash, NonNop,
                               Scratch))
        Hashes.push_back({G.Offset, Hash});
    }
    return Hashes;
  }
  scanImage(Text, Size, Opts,
            [&Hashes](size_t I, uint8_t, const Suffix &S) {
              if (S.Instrs != 0)
                Hashes.push_back({static_cast<uint32_t>(I), S.Hash});
            });
  std::reverse(Hashes.begin(), Hashes.end());
  return Hashes;
}

namespace {

/// A diversified image read through DP entries filled on first touch.
/// Probe chains from neighbouring original-gadget offsets share most of
/// their instructions, so each offset is decoded at most once and its
/// suffix computed at most once, however many chains cross it; offsets
/// no chain reaches are never decoded. filled() counts the decoded ones.
class LazyFacts {
public:
  LazyFacts(const std::vector<uint8_t> &Text, const ScanOptions &Opts)
      : Data(Text.data()), Size(Text.size()), Rules(Opts),
        Facts(Text.size()), Suffixes(new Suffix[Text.size()]) {}

  /// The suffix at \p Offset, NoSuffix when no gadget starts there.
  /// Walks forward by the DP's rules to the first offset whose suffix
  /// is memoized or that ends the chain, then runs the DP step back over
  /// the walked offsets, memoizing each. A walk that fills the window
  /// first proves that no gadget starts at Offset and memoizes nothing:
  /// the offsets it crossed may still start one.
  Suffix suffixAt(uint32_t Offset) {
    Path.clear();
    Suffix Next = NoSuffix;
    for (size_t Pos = Offset; Pos < Size;) {
      if (Facts[Pos].Flags & FSuffix) {
        Next = Suffixes[Pos];
        break;
      }
      if (Path.size() == Rules.MaxInstrs)
        return NoSuffix;
      const Fact &F = at(Pos);
      Path.push_back(static_cast<uint32_t>(Pos));
      if ((F.Flags & FBody) == 0)
        break; // a terminator or a dead end: the step reads no Next
      Pos += F.Len;
    }
    for (size_t K = Path.size(); K-- > 0;) {
      Fact &F = Facts[Path[K]];
      Next = stepSuffix(Data + Path[K], F.Len, F.Flags, Next, Rules);
      Suffixes[Path[K]] = Next;
      F.Flags |= FSuffix;
    }
    return Next;
  }

  size_t filled() const { return Filled; }

private:
  struct Fact {
    uint8_t Len = 0;
    uint8_t Flags = 0; ///< Fact flag bits; FKnown once filled.
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
  StepRules Rules;
  std::vector<Fact> Facts;
  /// Read only where the fact has FSuffix, so left uninitialized.
  std::unique_ptr<Suffix[]> Suffixes;
  std::vector<uint32_t> Path; ///< suffixAt's walk, reused.
  size_t Filled = 0;
};

/// Survivor pass probing \p Diversified lazily: candidate matches sit at
/// identical offsets, so only the original's gadget offsets (a small
/// minority of the image) are walked on the diversified side -- cheaper
/// than a full pass over the variant. Equality with the reference
/// oracle is pinned by ScannerParityTest, not by construction.
std::vector<SurvivingGadget>
probeSurvivors(const std::vector<uint8_t> &Original,
               const std::vector<SurvivingGadget> &OrigHashes,
               const std::vector<uint8_t> &Diversified,
               const ScanOptions &Opts) {
  std::vector<SurvivingGadget> Survivors;
  LazyFacts Div(Diversified, Opts);
  for (const SurvivingGadget &G : OrigHashes) {
    if (G.Offset >= Diversified.size())
      break; // ascending offsets: nothing further can match
    // Normalized bytes begin with the first non-NOP instruction. Where
    // neither image starts a NOP at the offset, that is the
    // instruction at the offset in both, so different first bytes rule
    // the pair out without a decode.
    if (Diversified[G.Offset] != Original[G.Offset] &&
        nopBitsAt(Diversified.data(), Diversified.size(), G.Offset) == 0 &&
        nopBitsAt(Original.data(), Original.size(), G.Offset) == 0)
      continue;
    const Suffix S = Div.suffixAt(G.Offset);
    if (S.Instrs != 0 && S.Hash == G.NormHash)
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
    std::vector<std::pair<uint32_t, uint8_t>> Scratch;
    Scratch.reserve(Opts.MaxInstrs);
    for (const SurvivingGadget &G :
         gadgetHashes(Original.data(), Original.size(), Opts)) {
      if (G.Offset >= Diversified.size())
        continue;
      uint64_t HashB = 0;
      unsigned NonNopB = 0;
      if (!normalizedGadgetHash(Diversified.data(), Diversified.size(),
                                G.Offset, Opts, HashB, NonNopB, Scratch))
        continue;
      if (G.NormHash == HashB)
        Survivors.push_back(G);
    }
    return Survivors;
  }
  return probeSurvivors(Original,
                        gadgetHashes(Original.data(), Original.size(), Opts),
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
  // One shared (offset, hash) list of the original's gadgets, immutable
  // once built, so workers read it concurrently without synchronization.
  const std::vector<SurvivingGadget> OrigHashes =
      gadgetHashes(Original.data(), Original.size(), Opts);
  forEachVersion(Versions.size(), Opts.Jobs, [&](size_t I) {
    Out[I] = probeSurvivors(Original, OrigHashes, Versions[I], Opts);
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
  // independent of Jobs. The oracle's lists are built serially.
  std::vector<std::vector<SurvivingGadget>> Lists(Versions.size());
  forEachVersion(Versions.size(), Opts.ForceReference ? 1 : Opts.Jobs,
                 [&](size_t I) {
                   Lists[I] = gadgetHashes(Versions[I].data(),
                                           Versions[I].size(), Opts);
                 });
  return countIdentities(Lists, Thresholds);
}
