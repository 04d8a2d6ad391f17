//===-- examples/attack_demo.cpp - ROP attack vs. diversification ---------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Recreates the shape of the paper's Section 5.2 case study on the
// PHP-like interpreter: verify the undiversified binary provides every
// operation an execve-style ROP payload needs, then diversify with the
// highest-performance setting (pNOP = 0-30%, profile-guided) and show
// the attack can no longer be assembled from the gadgets that survive
// at their original offsets.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "gadget/Attack.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace pgsd;

static const char *className(gadget::GadgetClass C) {
  switch (C) {
  case gadget::GadgetClass::PopReg:
    return "pop-reg";
  case gadget::GadgetClass::StoreMem:
    return "store-mem";
  case gadget::GadgetClass::LoadMem:
    return "load-mem";
  case gadget::GadgetClass::MoveReg:
    return "move-reg";
  case gadget::GadgetClass::ArithReg:
    return "arith-reg";
  case gadget::GadgetClass::Syscall:
    return "syscall";
  case gadget::GadgetClass::Other:
    return "other";
  }
  return "?";
}

static void report(const char *Tag, const gadget::AttackOutcome &O) {
  std::printf("%-28s pops=%llu stores=%llu moves=%llu arith=%llu "
              "syscalls=%llu -> %s%s%s\n",
              Tag, static_cast<unsigned long long>(O.NumPop),
              static_cast<unsigned long long>(O.NumStore),
              static_cast<unsigned long long>(O.NumMove),
              static_cast<unsigned long long>(O.NumArith),
              static_cast<unsigned long long>(O.NumSyscall),
              O.Feasible ? "ATTACK FEASIBLE" : "attack infeasible",
              O.Feasible ? "" : " (missing: ",
              O.Feasible ? "" : (O.Missing + ")").c_str());
}

int main() {
  workloads::Workload Php = workloads::phpInterpreter();
  driver::Program P = driver::compileProgram(Php.Source, Php.Name);
  if (!P.ok()) {
    std::fprintf(stderr, "compile failed:\n%s", P.errors().c_str());
    return 1;
  }

  // Profile the interpreter on one CLBG-style script (binarytrees).
  const workloads::PhpScript &Script = workloads::clbgScripts().front();
  if (!driver::profileAndStamp(P, Script.Input)) {
    std::fprintf(stderr, "training run failed\n");
    return 1;
  }
  std::printf("profiled %s on script '%s'\n\n", Php.Name.c_str(),
              Script.Name.c_str());

  codegen::Image Base = driver::linkBaseline(P);
  auto BaseGadgets =
      gadget::classifyGadgets(Base.Text.data(), Base.Text.size());

  // Show a few usable gadgets the attacker finds in the baseline.
  std::printf("sample usable gadgets in the undiversified binary:\n");
  unsigned Shown = 0;
  for (const auto &G : BaseGadgets) {
    if (G.Class == gadget::GadgetClass::Other)
      continue;
    std::printf("  .text+0x%05x  %-9s (%u bytes)\n", G.Offset,
                className(G.Class), G.ByteLength);
    if (++Shown == 8)
      break;
  }
  std::printf("\n");

  gadget::AttackOutcome BaseRop =
      gadget::checkAttack(BaseGadgets, gadget::AttackModel::RopGadget);
  gadget::AttackOutcome BaseMicro =
      gadget::checkAttack(BaseGadgets, gadget::AttackModel::Microgadget);
  report("baseline (ROPgadget model)", BaseRop);
  report("baseline (microgadgets)", BaseMicro);
  if (!BaseRop.Feasible) {
    std::fprintf(stderr, "expected the baseline to be attackable!\n");
    return 1;
  }

  // Diversify with the paper's fastest setting and re-check on the
  // gadgets that survive at their original offsets.
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  std::printf("\nafter diversification (pNOP=0-30%%, log heuristic):\n");
  unsigned FeasibleVariants = 0;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    driver::Variant V =
        driver::makeVariant(P, diversity::Pipeline(), Opts, Seed);
    auto Survivors = gadget::survivingGadgets(Base.Text, V.Image.Text);
    auto DivGadgets =
        gadget::classifyGadgets(V.Image.Text.data(), V.Image.Text.size());
    auto Usable = gadget::filterToSurvivors(DivGadgets, Survivors);
    gadget::AttackOutcome Rop =
        gadget::checkAttack(Usable, gadget::AttackModel::RopGadget);
    gadget::AttackOutcome Micro =
        gadget::checkAttack(Usable, gadget::AttackModel::Microgadget);
    std::printf("variant %llu: %zu surviving gadgets; ROPgadget: %s; "
                "microgadgets: %s\n",
                static_cast<unsigned long long>(Seed), Survivors.size(),
                Rop.Feasible ? "FEASIBLE" : "infeasible",
                Micro.Feasible ? "FEASIBLE" : "infeasible");
    if (Rop.Feasible || Micro.Feasible)
      ++FeasibleVariants;
  }
  std::printf("\n%u of 5 variants remained attackable\n", FeasibleVariants);
  return FeasibleVariants == 0 ? 0 : 1;
}
