//===-- profile/Profile.cpp - Edge profiling infrastructure ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"

#include "mexec/Precompiled.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <numeric>
#include <string_view>

using namespace pgsd;
using namespace pgsd::profile;
using namespace pgsd::mir;

namespace {

/// Union-find over CFG nodes for spanning-tree construction.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  size_t find(size_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  bool unite(size_t A, size_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[A] = B;
    return true;
  }

private:
  std::vector<size_t> Parent;
};

/// A raw CFG edge plus where it lives in the instruction stream, so the
/// instrumenter can retarget the branch when the edge needs a counter.
struct RawEdge {
  uint32_t From;
  uint32_t To;
  uint64_t Weight;
  // Location of the branch creating the edge (for split insertion):
  uint32_t Block;      ///< == From for real edges.
  uint32_t InstrIndex; ///< Index of the Jmp/Jcc; ~0u for entry/exit.
  bool IsEntry = false;
  bool IsExit = false;
};

/// Estimated loop depth per block from retreating edges (headers precede
/// bodies in our block layout).
std::vector<uint32_t> estimateLoopDepth(const MFunction &F) {
  std::vector<uint32_t> Depth(F.Blocks.size(), 0);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B)
    for (uint32_t S : F.successors(B))
      if (S <= B)
        for (uint32_t Inner = S; Inner <= B; ++Inner)
          ++Depth[Inner];
  return Depth;
}

} // namespace

InstrumentationPlan profile::instrumentModule(MModule &M) {
  InstrumentationPlan Plan;
  Plan.Funcs.resize(M.Functions.size());

  for (size_t FI = 0; FI != M.Functions.size(); ++FI) {
    MFunction &F = M.Functions[FI];
    FuncInstrumentation &FP = Plan.Funcs[FI];
    uint32_t NumBlocks = static_cast<uint32_t>(F.Blocks.size());
    FP.NumBlocks = NumBlocks;
    uint32_t Virtual = NumBlocks;

    std::vector<uint32_t> Depth = estimateLoopDepth(F);
    auto EdgeWeight = [&](uint32_t A, uint32_t B) {
      uint32_t D = std::min(
          {A < NumBlocks ? Depth[A] : 0u, B < NumBlocks ? Depth[B] : 0u, 8u});
      uint64_t W = 1;
      for (uint32_t I = 0; I != D; ++I)
        W *= 10;
      return W;
    };

    // Enumerate edges: virtual entry, every branch, fallthroughs (none:
    // ISel always ends blocks with Jmp/Ret), and Ret exits.
    std::vector<RawEdge> Edges;
    Edges.push_back({Virtual, 0, EdgeWeight(0, 0), 0, ~0u, true, false});
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      const MBasicBlock &BB = F.Blocks[B];
      for (uint32_t I = 0; I != BB.Instrs.size(); ++I) {
        const MInstr &MI = BB.Instrs[I];
        if (MI.Op == MOp::Jmp || MI.Op == MOp::Jcc) {
          uint32_t To = static_cast<uint32_t>(MI.Imm);
          Edges.push_back(
              {B, To, EdgeWeight(B, To), B, I, false, false});
        } else if (MI.Op == MOp::Ret) {
          Edges.push_back(
              {B, Virtual, EdgeWeight(B, B), B, I, false, true});
        }
      }
    }

    // Maximal spanning tree: heavy edges first so hot edges stay free.
    std::vector<size_t> Order(Edges.size());
    std::iota(Order.begin(), Order.end(), 0);
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Edges[A].Weight > Edges[B].Weight;
    });
    UnionFind UF(NumBlocks + 1);
    std::vector<bool> NeedsCounter(Edges.size(), false);
    for (size_t EI : Order)
      if (!UF.unite(Edges[EI].From, Edges[EI].To))
        NeedsCounter[EI] = true; // cycle edge (incl. self-loops): count it

    // Record the plan, then instrument in *reverse* edge order: the
    // entry counter (edge 0) prepends to block 0 and would otherwise
    // invalidate the recorded instruction indices of block 0's branches.
    for (size_t EI = 0; EI != Edges.size(); ++EI) {
      EdgeInfo Info;
      Info.From = Edges[EI].From;
      Info.To = Edges[EI].To;
      Info.CounterId =
          NeedsCounter[EI] ? static_cast<int32_t>(Plan.NumCounters++) : -1;
      FP.Edges.push_back(Info);
    }
    for (size_t EI = Edges.size(); EI-- > 0;) {
      if (!NeedsCounter[EI])
        continue;
      const RawEdge &E = Edges[EI];
      MInstr Inc;
      Inc.Op = MOp::ProfInc;
      Inc.Imm = FP.Edges[EI].CounterId;
      if (E.IsEntry) {
        // Count function entries at the top of block 0.
        auto &Instrs = F.Blocks[0].Instrs;
        Instrs.insert(Instrs.begin(), Inc);
      } else if (E.IsExit) {
        // Count returns right before the Ret (always the block's last
        // instruction, so no recorded index is disturbed).
        auto &Instrs = F.Blocks[E.Block].Instrs;
        Instrs.insert(Instrs.begin() + E.InstrIndex, Inc);
      } else {
        // Split the edge: new block [ProfInc; Jmp To], retarget. New
        // blocks are appended so original ids stay stable.
        MBasicBlock Split;
        Split.Name = "profsplit";
        Split.Instrs.push_back(Inc);
        MInstr J;
        J.Op = MOp::Jmp;
        J.Imm = static_cast<int32_t>(E.To);
        Split.Instrs.push_back(J);
        uint32_t SplitId = static_cast<uint32_t>(F.Blocks.size());
        F.Blocks.push_back(std::move(Split));
        F.Blocks[E.Block].Instrs[E.InstrIndex].Imm =
            static_cast<int32_t>(SplitId);
      }
    }
  }
  return Plan;
}

ProfileData profile::recoverCounts(const InstrumentationPlan &Plan,
                                   const std::vector<uint64_t> &Counters) {
  ProfileData Data;
  Data.BlockCounts.resize(Plan.Funcs.size());

  for (size_t FI = 0; FI != Plan.Funcs.size(); ++FI) {
    const FuncInstrumentation &FP = Plan.Funcs[FI];
    uint32_t NumNodes = FP.NumBlocks + 1; // + virtual node
    size_t NumEdges = FP.Edges.size();

    std::vector<uint64_t> EdgeCount(NumEdges, 0);
    std::vector<bool> Known(NumEdges, false);
    for (size_t E = 0; E != NumEdges; ++E) {
      if (FP.Edges[E].CounterId >= 0) {
        EdgeCount[E] =
            Counters[static_cast<size_t>(FP.Edges[E].CounterId)];
        Known[E] = true;
      }
    }

    // Incidence lists (self-loops are always counted, so they never
    // appear as unknowns).
    std::vector<std::vector<size_t>> In(NumNodes), Out(NumNodes);
    for (size_t E = 0; E != NumEdges; ++E) {
      Out[FP.Edges[E].From].push_back(E);
      In[FP.Edges[E].To].push_back(E);
    }

    // Iterative flow-conservation elimination over the spanning tree.
    auto UnknownDegree = [&](uint32_t N) {
      unsigned D = 0;
      for (size_t E : Out[N])
        if (!Known[E])
          ++D;
      for (size_t E : In[N])
        if (!Known[E])
          ++D;
      return D;
    };
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (uint32_t N = 0; N != NumNodes; ++N) {
        if (UnknownDegree(N) != 1)
          continue;
        int64_t Flow = 0;
        size_t Missing = ~size_t(0);
        bool MissingIsOut = false;
        for (size_t E : In[N]) {
          if (Known[E])
            Flow += static_cast<int64_t>(EdgeCount[E]);
          else
            Missing = E;
        }
        for (size_t E : Out[N]) {
          if (Known[E])
            Flow -= static_cast<int64_t>(EdgeCount[E]);
          else {
            Missing = E;
            MissingIsOut = true;
          }
        }
        assert(Missing != ~size_t(0) && "degree said one unknown");
        int64_t Value = MissingIsOut ? Flow : -Flow;
        assert(Value >= 0 && "flow conservation violated");
        EdgeCount[Missing] = static_cast<uint64_t>(Value);
        Known[Missing] = true;
        Progress = true;
      }
    }
#ifndef NDEBUG
    for (bool K : Known)
      assert(K && "spanning-tree elimination did not converge");
#endif

    // Block count = inflow.
    auto &Counts = Data.BlockCounts[FI];
    Counts.assign(FP.NumBlocks, 0);
    for (size_t E = 0; E != NumEdges; ++E)
      if (FP.Edges[E].To < FP.NumBlocks)
        Counts[FP.Edges[E].To] += EdgeCount[E];
    for (uint64_t C : Counts)
      Data.MaxCount = std::max(Data.MaxCount, C);
  }
  return Data;
}

bool profile::applyCounts(MModule &M, const ProfileData &Data) {
  if (Data.BlockCounts.size() != M.Functions.size())
    return false;
  for (size_t F = 0; F != M.Functions.size(); ++F)
    if (Data.BlockCounts[F].size() != M.Functions[F].Blocks.size())
      return false;
  for (size_t F = 0; F != M.Functions.size(); ++F) {
    const auto &Counts = Data.BlockCounts[F];
    for (size_t B = 0; B != Counts.size(); ++B)
      M.Functions[F].Blocks[B].ProfileCount = Counts[B];
  }
  return true;
}

std::string profile::serializeProfile(const ProfileData &Data) {
  std::string Out = "pgsd-profile v1\n";
  char Buf[96];
  for (size_t F = 0; F != Data.BlockCounts.size(); ++F) {
    std::snprintf(Buf, sizeof(Buf), "func %zu blocks %zu\n", F,
                  Data.BlockCounts[F].size());
    Out += Buf;
    for (size_t B = 0; B != Data.BlockCounts[F].size(); ++B) {
      if (Data.BlockCounts[F][B] == 0)
        continue; // sparse: zero counts are the default
      std::snprintf(Buf, sizeof(Buf), "%zu %zu %llu\n", F, B,
                    static_cast<unsigned long long>(Data.BlockCounts[F][B]));
      Out += Buf;
    }
  }
  return Out;
}

namespace {

/// The tokens of \p Line, split at runs of spaces and tabs.
std::vector<std::string_view> blankSeparated(std::string_view Line) {
  std::vector<std::string_view> Tokens;
  size_t Pos = 0;
  while ((Pos = Line.find_first_not_of(" \t", Pos)) != Line.npos) {
    const size_t End = std::min(Line.find_first_of(" \t", Pos), Line.size());
    Tokens.push_back(Line.substr(Pos, End - Pos));
    Pos = End;
  }
  return Tokens;
}

/// Parses all of \p Tok as an unsigned decimal that fits in 64 bits: no
/// sign, no other character and no overflow.
bool wholeUnsigned(std::string_view Tok, uint64_t &V) {
  const char *const First = Tok.data();
  const char *const Last = First + Tok.size();
  const auto [Stop, Ec] = std::from_chars(First, Last, V);
  return Ec == std::errc() && Stop == Last;
}

} // namespace

bool profile::deserializeProfile(const std::string &Text, const MModule &M,
                                 ProfileData &Out) {
  Out = ProfileData();
  size_t Pos = 0;
  auto NextLine = [&](std::string &Line) {
    if (Pos >= Text.size())
      return false;
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    return true;
  };
  std::string Line;
  if (!NextLine(Line) || Line != "pgsd-profile v1")
    return false;
  while (NextLine(Line)) {
    const std::vector<std::string_view> T = blankSeparated(Line);
    if (T.empty())
      continue;
    uint64_t F, Extent, Count;
    if (T.size() == 4 && T[0] == "func" && T[2] == "blocks" &&
        wholeUnsigned(T[1], F) && wholeUnsigned(T[3], Extent)) {
      // Functions appear in order, each with its block count in M, so
      // no count in the file sizes an allocation.
      if (F != Out.BlockCounts.size() || F >= M.Functions.size() ||
          Extent != M.Functions[F].Blocks.size()) {
        Out = ProfileData();
        return false;
      }
      Out.BlockCounts.emplace_back(Extent, 0);
      continue;
    }
    if (T.size() == 3 && wholeUnsigned(T[0], F) &&
        wholeUnsigned(T[1], Extent) && wholeUnsigned(T[2], Count)) {
      if (F >= Out.BlockCounts.size() ||
          Extent >= Out.BlockCounts[F].size()) {
        Out = ProfileData();
        return false;
      }
      Out.BlockCounts[F][Extent] = Count;
      Out.MaxCount = std::max(Out.MaxCount, Count);
      continue;
    }
    Out = ProfileData();
    return false;
  }
  if (Out.BlockCounts.size() != M.Functions.size()) {
    Out = ProfileData();
    return false; // cut at a function boundary
  }
  return true;
}

ProfileData profile::profileModule(const MModule &M,
                                   const mexec::RunOptions &TrainOptions) {
  MModule Instrumented = M; // deep copy
  InstrumentationPlan Plan = instrumentModule(Instrumented);
  Instrumented.NumProfCounters = Plan.NumCounters;
  // A training run is a one-shot execution of a freshly instrumented
  // module: compiling against TrainOptions' cost model keeps even
  // custom-cost training on the fast engine.
  mexec::RunResult Result =
      mexec::Precompiled(Instrumented, TrainOptions.Costs).run(TrainOptions);
  if (Result.Trapped)
    return ProfileData(); // empty: caller decides how to proceed
  return recoverCounts(Plan, Result.Counters);
}
