//===-- x86/Nops.h - NOP candidate table (paper Table 1) --------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NOP insertion candidates from Table 1 of the paper.
///
/// Candidates were chosen by the authors so that (a) they preserve all
/// processor state (registers, memory, *and* flags), and (b) their second
/// byte decodes to something an attacker cannot reuse (IN requires
/// privileged mode, SS: is a mere segment prefix, AAS is harmless ASCII
/// adjust). The two XCHG forms are state-preserving too but lock the
/// memory bus on real hardware, so they are excluded by default and can
/// be enabled explicitly (mirroring the paper's compile-time option).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_X86_NOPS_H
#define PGSD_X86_NOPS_H

#include <cstdint>
#include <cstddef>

namespace pgsd {
namespace x86 {

/// Identifies one NOP candidate from paper Table 1.
enum class NopKind : uint8_t {
  Nop90,     ///< NOP                 (90)
  MovEspEsp, ///< MOV ESP, ESP        (89 E4)
  MovEbpEbp, ///< MOV EBP, EBP        (89 ED)
  LeaEsiEsi, ///< LEA ESI, [ESI]      (8D 36)
  LeaEdiEdi, ///< LEA EDI, [EDI]      (8D 3F)
  XchgEspEsp,///< XCHG ESP, ESP       (87 E4) - optional, locks the bus
  XchgEbpEbp,///< XCHG EBP, EBP       (87 ED) - optional, locks the bus
};

/// Number of distinct NOP kinds (including the XCHG pair).
inline constexpr unsigned NumNopKinds = 7;

/// Number of NOP kinds enabled by default (excluding the XCHG pair).
inline constexpr unsigned NumDefaultNopKinds = 5;

/// Static description of one Table 1 row.
struct NopInfo {
  NopKind Kind;
  const char *Mnemonic;       ///< e.g. "MOV ESP, ESP".
  uint8_t Bytes[2];           ///< Encoding (1 or 2 bytes).
  uint8_t Length;             ///< Encoded length in bytes.
  const char *SecondByteDecoding; ///< What byte 2 decodes to on its own.
  bool LocksBus;              ///< True for the XCHG forms.
};

/// Returns the Table 1 row for \p Kind.
const NopInfo &nopInfo(NopKind Kind);

/// Returns all Table 1 rows in paper order.
const NopInfo *nopTable(size_t &Count);

/// Returns the NOP kind starting at \p Bytes (of \p Size), or false.
///
/// Used by the Survivor comparison (paper Section 5.2), which removes
/// "all potentially inserted NOP instructions from both instruction
/// sequences" before comparing. \p IncludeXchg controls whether the
/// optional XCHG forms are recognized.
bool matchNopAt(const uint8_t *Bytes, size_t Size, bool IncludeXchg,
                NopKind &KindOut);

} // namespace x86
} // namespace pgsd

#endif // PGSD_X86_NOPS_H
