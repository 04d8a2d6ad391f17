//===-- mexec/Precompiled.h - Direct-threaded execution engine ---*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast execution engine: an mir::MModule is lowered *once* into a
/// flat, cache-friendly instruction stream and then executed with
/// direct-threaded (computed-goto) dispatch. The lowering pass resolves
/// everything the tree-walking reference engine re-derives on every
/// dynamic instruction:
///
///  - register operands become dense array indices,
///  - global symbol references become absolute addresses,
///  - branch targets are rewritten to flat stream offsets,
///  - blocks are threaded in layout order, so fallthrough costs no
///    dispatch at all,
///  - polymorphic opcodes (ALU ops, shifts, intrinsics) are split into
///    one specialized handler per operation.
///
/// The stream is charged per *segment*, not per instruction. A segment
/// is a straight-line run that ends at a Jcc, a direct call, a Ret or
/// the end of its block; nothing inside it can branch, so its dynamic
/// instruction count and its static cycle sum are known at lowering
/// time. Each segment opens with a head record (a BlockHead at a block
/// start, a SegHead after a Jcc or call) that charges both at once with
/// a single limit compare. Handlers then do only their work: only a Jcc
/// (taken or not-taken cost) and a call's prologue charge cycles at run
/// time. NOPs and jumps to the lexically next block change no
/// architectural state, so their records leave the stream entirely;
/// their count and cost ride in the head.
///
/// Two rare paths keep every RunResult exact without re-executing
/// anything:
///
///  - A trap inside a segment takes back, from a per-record side table,
///    the instructions and cycles the head charged past the trap point,
///    in the reference engine's charge order (cost before a trapping
///    store, push, idiv or call; after a successful load or pop).
///  - The run limit is min(MaxSteps, next cancel poll - 1). A head whose
///    count would cross it works out where the step-budget or cancel
///    trap lands inside the segment, switches dispatch to a table whose
///    entries all pass one check, and runs the segment up to exactly
///    that counted instruction -- dropped NOPs and free jumps included.
///
/// A counted run (block counts, or runCountingSegments) counts every
/// head it enters, in one array numbered by forEachSegmentInstr below:
/// the first entries are the flat block counts, the rest the segments
/// that open after a Jcc or call inside a block. A run that counts
/// nothing executes the same records with one untaken branch per head.
///
/// The compiled image is immutable and reusable: one Precompiled serves
/// a whole input battery, and concurrent run() calls from ThreadPool
/// workers are safe because all mutable run state is local (scratch
/// memory is thread_local, recycled between runs via a dirty-page map).
///
/// Bit-identity contract: run() must return exactly the RunResult the
/// reference engine (mexec::run) returns -- every field, including
/// Cycles10, Instructions, Checksum, Output, Counters, BlockCounts, and
/// trap kind/reason. tests/EngineParityTest.cpp enforces this over the
/// workload suite, a fuzz corpus, trapping programs and every step
/// budget across a call-heavy variant. A run's RunOptions::Costs must be
/// the cost model the stream was compiled against: the charges are
/// baked in, so a caller with a custom cost model compiles its own
/// stream (as profile training does).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_MEXEC_PRECOMPILED_H
#define PGSD_MEXEC_PRECOMPILED_H

#include "lir/MIR.h"
#include "mexec/Interp.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace mexec {

namespace detail {

/// Specialized opcodes of the flat stream. One handler per enumerator;
/// the order must match the dispatch table in Precompiled.cpp.
enum class POp : uint8_t {
  BlockHead, ///< Segment head at a block start; Ext = its segment
             ///< number, which is its flat block index.
  SegHead,   ///< Segment head after a Jcc or call inside a block; Ext =
             ///< its segment number (after every block's).
  MovRR,
  MovRI,     ///< Also MovGlobal, with the address pre-resolved into Imm.
  Load,
  Store,
  LoadFrame,
  StoreFrame,
  LeaFrame,
  AddRR,
  SubRR,
  AndRR,
  OrRR,
  XorRR,
  CmpRR,
  AddRI,
  SubRI,
  AndRI,
  OrRI,
  XorRI,
  CmpRI,
  AdcSbbTrap, ///< ADC/SBB: codegen never emits them; traps.
  ImulRR,
  Cdq,
  Idiv,
  Neg,
  Not,
  ShlRI,     ///< Count pre-masked (&31) into Ext.
  ShrRI,
  SarRI,
  ShlRC,
  ShrRC,
  SarRC,
  TestRR,
  Setcc,
  Movzx8,
  Push,
  PushI,
  Pop,
  AdjustSP,
  CallFunc,  ///< Direct call; Ext = callee function index.
  PrintI32,  ///< One opcode per intrinsic.
  PrintChar,
  ReadI32,
  InputLen,
  Sink,
  Jmp,       ///< Taken jump; Ext = flat offset of the target BlockHead.
  Jcc,       ///< A = cc, Ext = taken offset, Cost/Imm = taken/not-taken.
  Ret,
  ProfInc,
  FellOff,   ///< Guard after each function's last block; unreachable on
             ///< verified modules.
};

/// Number of POp enumerators (dispatch table size).
inline constexpr size_t NumPOps = static_cast<size_t>(POp::FellOff) + 1;

/// One predecoded instruction: 16 bytes, so four per cache line. Heads
/// carry their segment's instruction count in Imm and its static
/// Cycles10 sum in Cost.
struct PInstr {
  POp Op;
  uint8_t A = 0;     ///< Dst register index, or condition code (Jcc).
  uint8_t B = 0;     ///< Src register index.
  int32_t Imm = 0;   ///< Immediate / displacement; not-taken cost (Jcc);
                     ///< segment instruction count (heads).
  uint32_t Cost = 0; ///< Taken cost (Jcc); segment cycle sum (heads).
  uint32_t Ext = 0;  ///< Branch offset / callee index / counter id /
                     ///< shift count / segment number (heads).
};

static_assert(sizeof(PInstr) == 16, "PInstr must stay cache-friendly");

/// Rare-path facts about one stream record, indexed like the stream.
/// Only traps and limit crossings read them.
struct PSide {
  /// SegPrefix index of this record's own instruction; for a head, of
  /// its segment's first instruction. Non-decreasing along the stream.
  uint32_t Row = 0;
  /// Instructions the head counted past this record: taken back when
  /// the record traps.
  uint32_t UndoInstrs = 0;
  /// Cycles the head charged that the reference engine has not charged
  /// when this record traps (its own cost stays when the reference
  /// charges it before the trapping access).
  uint32_t UndoCycles = 0;
};

/// Per-function constants resolved at compile time.
struct PFunc {
  uint32_t Entry = 0;        ///< Flat offset of block 0's head.
  uint32_t FrameDrop = 0;    ///< FrameBytes + 4 * callee-saved pushes.
  uint32_t PrologueCost = 0; ///< Push + MovRR + Alu + Saved * Push.
};

} // namespace detail

/// True when \p I closes its segment: a Jcc, a direct call, a Jmp or a
/// Ret. Nothing else can branch, so a NOP never closes one.
inline bool endsSegment(const mir::MInstr &I) {
  switch (I.Op) {
  case mir::MOp::Jcc:
  case mir::MOp::Jmp:
  case mir::MOp::Ret:
    return true;
  case mir::MOp::Call:
    return !I.Target.IsIntrinsic;
  default:
    return false;
  }
}

/// Calls \p Visit(Segment, Instr) for every instruction of \p M in stream
/// order, with the segment numbers a counted Precompiled run reports:
/// segment b opens flat block b (functions in order, then blocks), and
/// each instruction that ends a segment and is not its block's last
/// opens the next number after every block's. Returns the segment
/// count, which equals Precompiled::numSegments() unless the stream
/// split a segment whose cycle sum overflowed its head (absurd cost
/// models only).
template <typename Fn>
uint32_t forEachSegmentInstr(const mir::MModule &M, Fn &&Visit) {
  uint32_t Next = 0;
  for (const mir::MFunction &F : M.Functions)
    Next += static_cast<uint32_t>(F.Blocks.size());
  uint32_t Block = 0;
  for (const mir::MFunction &F : M.Functions) {
    for (const mir::MBasicBlock &BB : F.Blocks) {
      uint32_t Seg = Block++;
      for (size_t I = 0; I != BB.Instrs.size(); ++I) {
        Visit(Seg, BB.Instrs[I]);
        if (endsSegment(BB.Instrs[I]) && I + 1 != BB.Instrs.size())
          Seg = Next++;
      }
    }
  }
  return Next;
}

/// A module lowered to the flat stream. Immutable after construction;
/// run() is const and thread-safe (per-thread scratch memory).
class Precompiled {
public:
  /// Lowers \p M against \p Costs (charges are baked into the stream).
  /// The stream keeps no reference to \p M.
  explicit Precompiled(const mir::MModule &M,
                       const CostModel &Costs = CostModel());

  /// Executes the precompiled stream. Bit-identical to
  /// mexec::run(M, Opts). Requires Opts.Costs == bakedCosts(): every
  /// charge is baked into the stream, so a run under another cost model
  /// needs a stream compiled against that model.
  RunResult run(const RunOptions &Opts) const;

  /// As run(), and also sets \p SegmentEntries[s] to the number of times
  /// segment s (numbered as by forEachSegmentInstr) was entered; its
  /// first entries are the flat block counts. The segments counted on a
  /// trapped run include the one that trapped. Requires Opts.Costs ==
  /// bakedCosts(): the reference engine knows no segments.
  RunResult runCountingSegments(const RunOptions &Opts,
                                std::vector<uint64_t> &SegmentEntries) const;

  /// The cost model the stream was compiled against.
  const CostModel &bakedCosts() const { return Costs; }

  /// Number of segments: flat blocks plus heads inside blocks.
  uint32_t numSegments() const { return NumSegments; }

  /// Flat stream length in PInstrs (tests and benches).
  size_t streamLength() const { return Code.size(); }

private:
  /// \p SegmentEntries, when not null, receives the segment counts.
  RunResult execute(const RunOptions &Opts,
                    std::vector<uint64_t> *SegmentEntries) const;

  CostModel Costs;
  std::vector<detail::PInstr> Code;
  std::vector<detail::PSide> Side;     ///< Parallel to Code.
  /// One row per segment: entry i is the Cycles10 of the segment's
  /// first i instructions, dropped ones included.
  std::vector<uint32_t> SegPrefix;
  std::vector<detail::PFunc> Funcs;
  std::vector<uint32_t> FlatBase;      ///< Function -> flat block base.
  std::vector<uint32_t> BlocksPerFunc; ///< For unflattening BlockCounts.
  uint32_t NumFlatBlocks = 0;
  uint32_t NumSegments = 0;
  uint32_t EntryFunc = 0;
  uint32_t NumCounters = 0;
  /// Global initialization replayed at the start of every run, already
  /// bounds-checked at compile time (exactly the writes the reference
  /// engine's init loop performs).
  struct InitWrite {
    uint32_t Addr;
    int32_t Value;
  };
  std::vector<InitWrite> InitWrites;
  bool InitTraps = false; ///< A global init write was out of bounds.
};

} // namespace mexec
} // namespace pgsd

#endif // PGSD_MEXEC_PRECOMPILED_H
