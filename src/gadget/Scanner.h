//===-- gadget/Scanner.h - ROP gadget scanning and Survivor ------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Security measurement tools from the paper's Section 5.2.
///
/// * scanGadgets: finds all gadget start offsets in a .text image --
///   sequences that decode to valid x86 with no control flow except a
///   final free branch (return, indirect call, or indirect jump).
///   Privileged and undefined instructions disqualify a candidate, the
///   property the paper designed its NOP second bytes around.
///
/// * survivingGadgets: the paper's "Survivor" comparison. A candidate
///   match is a pair of gadgets at *identical offsets* in the original
///   and diversified .text. Both sequences are normalized by removing
///   every potentially-inserted Table 1 NOP; equal normalized sequences
///   count as a surviving gadget. As in the paper, normalization can
///   only make sequences more similar, so the count conservatively
///   overestimates survival.
///
/// * multi-version survival: how many gadget identities -- the exact
///   (offset, normalized hash) pair -- appear in at least K of N
///   diversified versions (the paper's Table 3: K in {2, 5, 12} of
///   N = 25).
///
/// Two implementations back these queries (DESIGN.md section 15):
///
/// * The *reference oracle* decodes afresh from every byte offset with
///   an Opts.MaxInstrs window -- O(Size x MaxInstrs) decodes per image.
///   It is the executable specification, kept behind
///   ScanOptions::ForceReference and pinned by ScannerParityTest.
///
/// * The *decode-once scanner* (ImageScan) walks the image backward
///   once, decoding each offset exactly once into a flat side table of
///   (length, class) facts and, in the same step, computing by dynamic
///   programming the gadget suffix starting there -- O(Size) decodes,
///   byte-identical results. ImageScan is immutable after construction,
///   so one original-image scan can be shared read-only across worker
///   threads.
///
/// The multi-version sweeps reuse ImageScan's per-offset decode fact
/// without building a scan per version where they can: the Survivor
/// probe reads each diversified image through a lazily filled fact
/// table, and the Table 3 counter buckets (offset, hash) lists by
/// offset. Neither asks the oracle, so their equality with it is pinned
/// by ScannerParityTest rather than holding by construction.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_GADGET_SCANNER_H
#define PGSD_GADGET_SCANNER_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pgsd {
namespace gadget {

/// Scanner configuration.
struct ScanOptions {
  /// Maximum instructions per gadget, free branch included. Typical ROP
  /// tooling uses small windows; 8 keeps counts comparable to the
  /// paper's scanners.
  unsigned MaxInstrs = 8;
  /// Recognize the XCHG NOPs during normalization too.
  bool IncludeXchgNops = true;
  /// Also treat software interrupts (INT 0x80, SYSENTER) as gadget
  /// terminators, the way attack tooling like ROPgadget lists syscall
  /// gadgets. Off for the paper's Survivor counting (which only counts
  /// free-branch-terminated sequences); on inside the attack checker.
  bool IncludeSyscallGadgets = false;
  /// Use the per-offset reference oracle instead of the decode-once
  /// scanner. Slow (O(Size x MaxInstrs) decodes); exists so the parity
  /// tests and benches can compare against the executable spec.
  bool ForceReference = false;
  /// Worker threads for the multi-version sweeps (survivingGadgetsMulti
  /// and gadgetsInAtLeast): 1 runs serially on the calling thread, 0
  /// uses all cores. Results are independent of this value.
  unsigned Jobs = 1;
};

/// One gadget occurrence.
struct Gadget {
  uint32_t Offset = 0;    ///< Start offset within .text.
  uint32_t Length = 0;    ///< Bytes up to and including the free branch.
  uint8_t NumInstrs = 0;  ///< Instructions including the free branch.
};

/// A gadget that survived diversification at its original offset.
struct SurvivingGadget {
  uint32_t Offset = 0;
  uint64_t NormHash = 0; ///< Hash of the NOP-normalized byte sequence.
};

/// Decode-once gadget index over one .text image.
///
/// Construction runs one backward pass that decodes each offset exactly
/// once into a flat fact table and fills its DP entry, after which
/// every query -- gadget enumeration, per-offset instruction boundaries,
/// normalized content hashes -- is answered without touching the decoder
/// again.
///
/// Thread-safety: all const queries are safe to call concurrently; a
/// fully-constructed ImageScan may be shared read-only across threads.
class ImageScan {
public:
  ImageScan() = default;
  ImageScan(const uint8_t *Text, size_t Size,
            const ScanOptions &Opts = ScanOptions());
  explicit ImageScan(const std::vector<uint8_t> &Text,
                     const ScanOptions &Opts = ScanOptions());

  size_t size() const { return Bytes.size(); }
  const ScanOptions &options() const { return Opts; }
  const std::vector<uint8_t> &bytes() const { return Bytes; }

  /// True when a gadget (terminator within the window) starts at
  /// \p Offset.
  bool hasGadgetAt(uint32_t Offset) const {
    return Offset < SuffixInstrs.size() && SuffixInstrs[Offset] != 0;
  }

  /// Fills \p Out with the gadget starting at \p Offset; false when none
  /// starts there.
  bool gadgetAt(uint32_t Offset, Gadget &Out) const;

  /// All gadgets, in offset order (same contents as scanGadgets).
  std::vector<Gadget> gadgets() const;

  /// Number of gadget start offsets (without materializing the vector).
  size_t gadgetCount() const;

  /// (offset, length) instruction boundaries of the gadget at \p Offset,
  /// terminator included; false when no gadget starts there. Same
  /// contract as decodeGadgetAt, answered from the fact table.
  bool instructionsAt(uint32_t Offset,
                      std::vector<std::pair<uint32_t, uint8_t>> &InstrsOut)
      const;

  /// NOP-normalized content hash of the gadget at \p Offset; false when
  /// no gadget starts there. Same contract as normalizedGadgetHash.
  bool normalizedHashAt(uint32_t Offset, uint64_t &HashOut,
                        unsigned &NonNopInstrsOut) const;

private:
  /// The one backward pass: decodes every offset's fact and computes
  /// its DP entry.
  void scanBackward();

  ScanOptions Opts;
  std::vector<uint8_t> Bytes;      ///< Held image (hashed by queries).
  std::vector<uint8_t> FactLen;    ///< Decoded length; 0 = invalid.
  std::vector<uint8_t> FactFlags;  ///< Class/NOP bits (Scanner.cpp).
  /// DP: instructions in the gadget suffix starting here; 0 = none
  /// within the window.
  std::vector<uint16_t> SuffixInstrs;
  std::vector<uint32_t> SuffixLen; ///< DP: gadget suffix byte length.
};

/// Scans \p Text for all gadget start offsets.
std::vector<Gadget> scanGadgets(const uint8_t *Text, size_t Size,
                                const ScanOptions &Opts = ScanOptions());

/// Decodes the gadget starting at \p Offset into (offset, length)
/// instruction boundaries including the terminator; returns false when
/// no valid gadget starts there. Exposed for the attack classifier and
/// as the per-offset reference oracle.
bool decodeGadgetAt(const uint8_t *Text, size_t Size, uint32_t Offset,
                    const ScanOptions &Opts,
                    std::vector<std::pair<uint32_t, uint8_t>> &InstrsOut);

/// Computes the NOP-normalized content hash of the gadget starting at
/// \p Offset, or returns false when no valid gadget starts there.
bool normalizedGadgetHash(const uint8_t *Text, size_t Size, uint32_t Offset,
                          const ScanOptions &Opts, uint64_t &HashOut,
                          unsigned &NonNopInstrsOut);

/// As above, reusing \p Scratch for the instruction boundaries (the
/// reference survivor loops call this per gadget).
bool normalizedGadgetHash(const uint8_t *Text, size_t Size, uint32_t Offset,
                          const ScanOptions &Opts, uint64_t &HashOut,
                          unsigned &NonNopInstrsOut,
                          std::vector<std::pair<uint32_t, uint8_t>> &Scratch);

/// The paper's Survivor algorithm over one (original, diversified) pair.
std::vector<SurvivingGadget>
survivingGadgets(const std::vector<uint8_t> &Original,
                 const std::vector<uint8_t> &Diversified,
                 const ScanOptions &Opts = ScanOptions());

/// Survivor comparison of every version against one original, sharing a
/// single original-image scan and its (offset, hash) gadget list. Each
/// version is probed only at those offsets, through a per-version fact
/// table that decodes an offset on first touch and never twice; the
/// probe walks and hashes chains by ImageScan's rules. Opts.Jobs shards
/// versions across a support::ThreadPool. Results are index-aligned with
/// \p Versions, independent of Jobs, and equal to the ForceReference
/// oracle's (ScannerParityTest pins this across options and versions).
std::vector<std::vector<SurvivingGadget>>
survivingGadgetsMulti(const std::vector<uint8_t> &Original,
                      const std::vector<std::vector<uint8_t>> &Versions,
                      const ScanOptions &Opts = ScanOptions());

/// Multi-version analysis: returns, for each threshold in \p Thresholds,
/// how many gadget identities occur in at least that many of the
/// \p Versions. An identity is the exact (offset, normalized hash) pair.
/// Each version yields its ascending (offset, hash) list -- from an
/// ImageScan, or from the oracle under ForceReference -- and one counter
/// buckets all lists by offset (a prefix-summed index), sorts the at
/// most Versions.size() hashes at each offset and counts equal runs.
/// Opts.Jobs shards the per-version lists; the count runs once after
/// the barrier, so the result is independent of Jobs.
std::vector<uint64_t>
gadgetsInAtLeast(const std::vector<std::vector<uint8_t>> &Versions,
                 const std::vector<unsigned> &Thresholds,
                 const ScanOptions &Opts = ScanOptions());

} // namespace gadget
} // namespace pgsd

#endif // PGSD_GADGET_SCANNER_H
