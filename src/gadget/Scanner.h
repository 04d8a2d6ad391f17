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
///   an Opts.MaxInstrs window -- O(Size x MaxInstrs) decodes per image --
///   and hashes each gadget by walking its chain. It is the executable
///   specification, kept behind ScanOptions::ForceReference and pinned by
///   ScannerParityTest.
///
/// * The fast paths share one backward dynamic-programming step: the
///   gadget suffix at an offset (instructions, bytes, normalized hash)
///   follows from that offset's decode fact and the suffix one
///   instruction further on. One backward pass over an image decodes
///   each offset exactly once and keeps only a 16-entry ring of suffixes,
///   since no x86 instruction is longer than 15 bytes; it fills either
///   ImageScan's per-offset tables or an image's ascending
///   (offset, hash) list (gadgetHashes). The lazy Survivor probe runs the
///   same step on demand over each diversified image.
///
/// The normalized hash is FNV-1a over the gadget's bytes with every
/// Table 1 NOP removed, read last byte first, so it composes backward
/// along the chain. It depends on the normalized byte string alone: two
/// gadgets share an identity exactly when those strings are equal, up to
/// 64-bit collisions.
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

/// Decode-once gadget index over one .text image, for callers that need
/// random access by offset (the attack checker).
///
/// Construction runs the one backward pass and keeps, per offset, the
/// decoded length and the gadget suffix, after which gadget enumeration
/// and per-offset instruction boundaries are answered without touching
/// the decoder again.
///
/// Thread-safety: all const queries are safe to call concurrently; a
/// fully-constructed ImageScan may be shared read-only across threads.
class ImageScan {
public:
  ImageScan(const uint8_t *Text, size_t Size,
            const ScanOptions &Opts = ScanOptions());

  /// True when a gadget (terminator within the window) starts at
  /// \p Offset.
  bool hasGadgetAt(uint32_t Offset) const {
    return Offset < SuffixInstrs.size() && SuffixInstrs[Offset] != 0;
  }

  /// All gadgets, in offset order (same contents as scanGadgets).
  std::vector<Gadget> gadgets() const;

  /// (offset, length) instruction boundaries of the gadget at \p Offset,
  /// terminator included; false when no gadget starts there. Same
  /// contract as decodeGadgetAt, answered from the tables.
  bool instructionsAt(uint32_t Offset,
                      std::vector<std::pair<uint32_t, uint8_t>> &InstrsOut)
      const;

private:
  std::vector<uint8_t> FactLen; ///< Decoded length; 0 = invalid.
  /// Instructions in the gadget suffix starting here; 0 = none within
  /// the window.
  std::vector<uint16_t> SuffixInstrs;
  std::vector<uint32_t> SuffixLen; ///< Gadget suffix byte length.
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
/// \p Offset, or returns false when no valid gadget starts there: the
/// oracle's form of the hash, walking the decoded chain last instruction
/// first. \p NonNopInstrsOut counts the instructions that survive
/// normalization.
bool normalizedGadgetHash(const uint8_t *Text, size_t Size, uint32_t Offset,
                          const ScanOptions &Opts, uint64_t &HashOut,
                          unsigned &NonNopInstrsOut);

/// As above, reusing \p Scratch for the instruction boundaries (the
/// reference survivor loops call this per gadget).
bool normalizedGadgetHash(const uint8_t *Text, size_t Size, uint32_t Offset,
                          const ScanOptions &Opts, uint64_t &HashOut,
                          unsigned &NonNopInstrsOut,
                          std::vector<std::pair<uint32_t, uint8_t>> &Scratch);

/// (offset, normalized hash) of every gadget in \p Text, ascending by
/// offset: the one backward pass, or the oracle under ForceReference.
std::vector<SurvivingGadget> gadgetHashes(const uint8_t *Text, size_t Size,
                                          const ScanOptions &Opts =
                                              ScanOptions());

/// The paper's Survivor algorithm over one (original, diversified) pair.
std::vector<SurvivingGadget>
survivingGadgets(const std::vector<uint8_t> &Original,
                 const std::vector<uint8_t> &Diversified,
                 const ScanOptions &Opts = ScanOptions());

/// Survivor comparison of every version against one original, sharing
/// one (offset, hash) list of the original's gadgets. Each version is
/// probed only at those offsets, through a per-version table that
/// decodes an offset and computes its suffix on first touch, never twice.
/// Opts.Jobs shards versions across a support::ThreadPool. Results are
/// index-aligned with \p Versions, independent of Jobs, and equal to the
/// ForceReference oracle's (ScannerParityTest pins this across options
/// and versions).
std::vector<std::vector<SurvivingGadget>>
survivingGadgetsMulti(const std::vector<uint8_t> &Original,
                      const std::vector<std::vector<uint8_t>> &Versions,
                      const ScanOptions &Opts = ScanOptions());

/// Multi-version analysis: returns, for each threshold in \p Thresholds,
/// how many gadget identities occur in at least that many of the
/// \p Versions. An identity is the exact (offset, normalized hash) pair.
/// Each version yields its gadgetHashes list, and one counter buckets
/// all lists by offset (a prefix-summed index), sorts the at most
/// Versions.size() hashes at each offset and counts equal runs.
/// Opts.Jobs shards the per-version lists; the count runs once after
/// the barrier, so the result is independent of Jobs.
std::vector<uint64_t>
gadgetsInAtLeast(const std::vector<std::vector<uint8_t>> &Versions,
                 const std::vector<unsigned> &Thresholds,
                 const ScanOptions &Opts = ScanOptions());

} // namespace gadget
} // namespace pgsd

#endif // PGSD_GADGET_SCANNER_H
