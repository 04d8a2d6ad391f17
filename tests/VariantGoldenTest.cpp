//===-- tests/VariantGoldenTest.cpp - Pinned variant bytes ---------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Pins what a variant is, byte for byte: for every workload of the suite,
// both pipelines below, the five paper configurations and two seeds (the
// second with the XCHG NOPs enabled), the FNV-1a digests of the linked
// .text and of mir::print(V.MIR). Each variant is built twice, serially
// through driver::makeVariant and through driver::makeVariantsBatch at
// Jobs=4, and both must match the pinned digests. A change to how a
// variant is built (NOP insertion, the pipeline, the encoder, the
// linker) that moves a single byte or MIR field fails here.
//
// The table folds the ten variants of one (workload, pipeline) row into
// one digest per artifact; on a mismatch the test prints each variant's
// own digests. Regenerate the table, only for a change that is meant to
// move variant bytes, with PGSD_PRINT_GOLDEN=1 ./VariantGoldenTest.
//
//===----------------------------------------------------------------------===//

#include "bench/Experiments.h"
#include "driver/Batch.h"
#include "driver/Driver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace pgsd;

namespace {

using diversity::TransformKind;

uint64_t fnv1a(const void *Data, size_t Size,
               uint64_t H = 0xcbf29ce484222325ull) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// The FNV-1a digests of one variant.
struct Digests {
  uint64_t Text = 0;
  uint64_t Mir = 0;
};

Digests digestsOf(const driver::Variant &V) {
  const std::string Print = mir::print(V.MIR);
  return {fnv1a(V.Image.Text.data(), V.Image.Text.size()),
          fnv1a(Print.data(), Print.size())};
}

/// One pinned row: the digests of the ten variants of (workload,
/// pipeline), each folded into one running FNV-1a.
struct Golden {
  const char *Workload;
  const char *Pipeline;
  uint64_t Text;
  uint64_t Mir;
};

const Golden Table[] = {
    {"470.lbm", "nop", 0x022bcc0c5d9fb4ddull, 0x21a4c45c000103f3ull},
    {"470.lbm", "nop+shift+sched+regs",
     0xa240643a2ea2eb4aull, 0xdc78631b5066c37eull},
    {"429.mcf", "nop", 0x00ae9b3119fd215bull, 0x3db9039d057c1472ull},
    {"429.mcf", "nop+shift+sched+regs",
     0x30a48e2a636cf405ull, 0x690790ab53541658ull},
    {"462.libquantum", "nop", 0x4450d4b2f2752c14ull, 0x33f00f59cb05cd5eull},
    {"462.libquantum", "nop+shift+sched+regs",
     0xa424cc8e3b7f8db6ull, 0x93c4a1db925c2152ull},
    {"401.bzip2", "nop", 0xca0c82c8ad860420ull, 0xab26069556d2a91cull},
    {"401.bzip2", "nop+shift+sched+regs",
     0x45309af600ca7be0ull, 0x46b21e6685477e71ull},
    {"473.astar", "nop", 0x105fb2078fbb4db4ull, 0x31a4f992428a359eull},
    {"473.astar", "nop+shift+sched+regs",
     0x75802d64ee8240d7ull, 0xfaf94f4c44111adaull},
    {"433.milc", "nop", 0xf13331efc927c80bull, 0x35c069669420cc58ull},
    {"433.milc", "nop+shift+sched+regs",
     0x1c6911d4f9d178faull, 0x46577a3536899c94ull},
    {"458.sjeng", "nop", 0x4c86549288f22e46ull, 0x3fd617fa04e5ff77ull},
    {"458.sjeng", "nop+shift+sched+regs",
     0xddcf0fba64f830baull, 0x8daad6ef24088fb6ull},
    {"456.hmmer", "nop", 0xc815fb8763f67d41ull, 0xb8459064912a1551ull},
    {"456.hmmer", "nop+shift+sched+regs",
     0x3773d3b14465af27ull, 0x1b62f95afa2c0009ull},
    {"444.namd", "nop", 0xe17395a9b5de32e8ull, 0xa22478726a4c8167ull},
    {"444.namd", "nop+shift+sched+regs",
     0x41759d9761c25e9aull, 0xe4b7a83baeaad935ull},
    {"482.sphinx3", "nop", 0x6ffc2917ac953f8bull, 0x72a334dfec8fa8f5ull},
    {"482.sphinx3", "nop+shift+sched+regs",
     0x6fcc758c1011e82aull, 0x604aceba88a36397ull},
    {"464.h264ref", "nop", 0x21c193fe549ee381ull, 0xc48271cf62c7cbb8ull},
    {"464.h264ref", "nop+shift+sched+regs",
     0x4f6b8349a8730fccull, 0x435acc6be9e0dc56ull},
    {"450.soplex", "nop", 0x65806a81e82ed01eull, 0xa8b35a87ab1a138dull},
    {"450.soplex", "nop+shift+sched+regs",
     0x5c771437e3948101ull, 0x26f2f1ae81c57437ull},
    {"447.dealII", "nop", 0x03460647e7d3dd0bull, 0x87c11e1f914792b1ull},
    {"447.dealII", "nop+shift+sched+regs",
     0xf1c3e6ebc06b56dcull, 0x0ab43a1fa4721c0bull},
    {"453.povray", "nop", 0xdc7f838aef7fb2c0ull, 0x9d686ca3c5141ddcull},
    {"453.povray", "nop+shift+sched+regs",
     0x69aed1f4cf75f20full, 0x2aa292b8c92634f2ull},
    {"400.perlbench", "nop", 0xd249eb45106bb5b3ull, 0xf9f2fb526a0f12ddull},
    {"400.perlbench", "nop+shift+sched+regs",
     0x861cddd261d23b05ull, 0x1e7b97a3acb7cbe4ull},
    {"445.gobmk", "nop", 0x11e7b66545cf977bull, 0x3db0a4069225d4f2ull},
    {"445.gobmk", "nop+shift+sched+regs",
     0x6186955f89d77e1cull, 0x84c3874d0413a5e7ull},
    {"471.omnetpp", "nop", 0x04d5f45db3677209ull, 0xd047db37d1b83de1ull},
    {"471.omnetpp", "nop+shift+sched+regs",
     0x3d7c926b0890ff6bull, 0x9f75e41c6b9da1e5ull},
    {"403.gcc", "nop", 0xa7b75579f3b51785ull, 0x16db2d58d692d9caull},
    {"403.gcc", "nop+shift+sched+regs",
     0x37cfb75a31d69c73ull, 0x751bfd90029911d7ull},
    {"483.xalancbmk", "nop", 0xa10f2e0f9e67c153ull, 0x641acad1527f2047ull},
    {"483.xalancbmk", "nop+shift+sched+regs",
     0xb37b931efa03b4bbull, 0x023d62f69ebac975ull},
};

/// The seeds of every configuration; the second enables XCHG NOPs.
constexpr uint64_t Seeds[] = {0x601d, 0x601e};

const std::vector<diversity::Pipeline> &pipelines() {
  static const std::vector<diversity::Pipeline> P = {
      diversity::Pipeline(),
      diversity::Pipeline({TransformKind::Nop, TransformKind::Shift,
                           TransformKind::Sched, TransformKind::Regs})};
  return P;
}

} // namespace

class VariantGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VariantGoldenTest, SerialAndBatchMatchThePinnedDigests) {
  const workloads::Workload &W = workloads::specSuite()[GetParam()];
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
  const bool Print = std::getenv("PGSD_PRINT_GOLDEN") != nullptr;

  for (const diversity::Pipeline &Pipe : pipelines()) {
    SCOPED_TRACE(Pipe.label());
    Digests Folded{0xcbf29ce484222325ull, 0xcbf29ce484222325ull};
    std::string PerVariant;
    for (const experiments::Config &C : experiments::paperConfigs()) {
      for (size_t SI = 0; SI != std::size(Seeds); ++SI) {
        diversity::DiversityOptions Opts = C.Opts;
        Opts.IncludeXchgNops = SI == 1;
        const Digests Serial =
            digestsOf(driver::makeVariant(P, Pipe, Opts, Seeds[SI]));

        driver::BatchOptions BO;
        BO.Jobs = 4;
        // One bounded, known-terminating input keeps the sweep fast.
        BO.Verify.InputBattery = {W.TrainInput};
        driver::BatchResult B =
            driver::makeVariantsBatch(P, Pipe, Opts, {Seeds[SI]}, BO);
        ASSERT_EQ(B.Variants.size(), 1u);
        const driver::VerifiedVariant &VV = B.Variants[0];
        ASSERT_TRUE(VV.ok()) << C.Label << " seed " << Seeds[SI];
        ASSERT_EQ(VV.SeedUsed, Seeds[SI]);
        const Digests Batch = digestsOf(VV.V);
        EXPECT_EQ(Batch.Text, Serial.Text) << C.Label << " seed " << SI;
        EXPECT_EQ(Batch.Mir, Serial.Mir) << C.Label << " seed " << SI;

        Folded.Text = fnv1a(&Serial.Text, sizeof Serial.Text, Folded.Text);
        Folded.Mir = fnv1a(&Serial.Mir, sizeof Serial.Mir, Folded.Mir);
        char Line[160];
        std::snprintf(Line, sizeof Line,
                      "  %s seed %zu: text %016llx mir %016llx\n",
                      C.Label.c_str(), SI,
                      static_cast<unsigned long long>(Serial.Text),
                      static_cast<unsigned long long>(Serial.Mir));
        PerVariant += Line;
      }
    }
    if (Print) {
      std::printf("{\"%s\", \"%s\", 0x%016llxull, 0x%016llxull},\n",
                  W.Name.c_str(), Pipe.label().c_str(),
                  static_cast<unsigned long long>(Folded.Text),
                  static_cast<unsigned long long>(Folded.Mir));
      continue;
    }
    const Golden *Row = nullptr;
    for (const Golden &G : Table)
      if (W.Name == G.Workload && Pipe.label() == G.Pipeline)
        Row = &G;
    ASSERT_NE(Row, nullptr) << "no pinned row for " << W.Name;
    EXPECT_EQ(Folded.Text, Row->Text) << "per variant:\n" << PerVariant;
    EXPECT_EQ(Folded.Mir, Row->Mir) << "per variant:\n" << PerVariant;
  }
}

INSTANTIATE_TEST_SUITE_P(Spec, VariantGoldenTest,
                         ::testing::Range<size_t>(0, 19),
                         [](const ::testing::TestParamInfo<size_t> &I) {
                           std::string N =
                               workloads::specSuite()[I.param].Name;
                           for (char &Ch : N)
                             if (!std::isalnum(
                                     static_cast<unsigned char>(Ch)))
                               Ch = '_';
                           return N;
                         });
