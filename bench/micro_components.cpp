//===-- bench/micro_components.cpp - Component micro-benchmarks -------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// google-benchmark micro-benchmarks for the toolchain components: how
// fast the encoder emits, the decoder scans, the gadget scanner sweeps,
// the Survivor comparison runs, the NOP-insertion pass transforms, and
// the machine interpreter executes. These are engineering numbers (not
// from the paper) used to size experiments.
//
//===----------------------------------------------------------------------===//

#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "gadget/Scanner.h"
#include "workloads/Workloads.h"
#include "x86/Decoder.h"
#include "x86/Encoder.h"

#include <benchmark/benchmark.h>

using namespace pgsd;

namespace {

const driver::Program &milcProgram() {
  static driver::Program P = [] {
    const workloads::Workload &W = workloads::specWorkload("433.milc");
    driver::Program Prog = driver::compileProgram(W.Source, W.Name);
    driver::profileAndStamp(Prog, W.TrainInput);
    return Prog;
  }();
  return P;
}

const codegen::Image &milcImage() {
  static codegen::Image Img = driver::linkBaseline(milcProgram());
  return Img;
}

} // namespace

static void BM_EncoderEmit(benchmark::State &State) {
  std::vector<uint8_t> Out;
  Out.reserve(1 << 16);
  for (auto _ : State) {
    Out.clear();
    x86::Encoder E(Out);
    for (int I = 0; I != 1000; ++I) {
      E.movRI(x86::Reg::EAX, I);
      E.aluRR(x86::AluOp::Add, x86::Reg::EAX, x86::Reg::ECX);
      E.movStore(x86::Mem::base(x86::Reg::EBP, -8), x86::Reg::EAX);
      E.jccRel(x86::CondCode::NE);
    }
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * 4000);
}
BENCHMARK(BM_EncoderEmit);

static void BM_DecoderLinear(benchmark::State &State) {
  const codegen::Image &Img = milcImage();
  for (auto _ : State) {
    size_t Pos = 0;
    unsigned Count = 0;
    while (Pos < Img.Text.size()) {
      x86::Decoded D;
      if (!x86::decodeInstr(Img.Text.data() + Pos, Img.Text.size() - Pos,
                            D)) {
        ++Pos;
        continue;
      }
      Pos += D.Length;
      ++Count;
    }
    benchmark::DoNotOptimize(Count);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(milcImage().Text.size()));
}
BENCHMARK(BM_DecoderLinear);

static void BM_GadgetScan(benchmark::State &State) {
  const codegen::Image &Img = milcImage();
  for (auto _ : State) {
    auto Gadgets = gadget::scanGadgets(Img.Text.data(), Img.Text.size());
    benchmark::DoNotOptimize(Gadgets.size());
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(milcImage().Text.size()));
}
BENCHMARK(BM_GadgetScan);

static void BM_Survivor(benchmark::State &State) {
  const driver::Program &P = milcProgram();
  const codegen::Image &Base = milcImage();
  driver::Variant V = driver::makeVariant(
      P, diversity::DiversityOptions::uniform(0.5), 1);
  for (auto _ : State) {
    auto Survivors = gadget::survivingGadgets(Base.Text, V.Image.Text);
    benchmark::DoNotOptimize(Survivors.size());
  }
}
BENCHMARK(BM_Survivor);

static void BM_NopInsertionPass(benchmark::State &State) {
  const driver::Program &P = milcProgram();
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  const diversity::Pipeline Nop;
  uint64_t Seed = 0;
  for (auto _ : State) {
    mir::MModule V = P.MIR;
    Nop.run(V, Opts, ++Seed);
    benchmark::DoNotOptimize(V.Functions.size());
  }
}
BENCHMARK(BM_NopInsertionPass);

static void BM_EmitAndLink(benchmark::State &State) {
  const driver::Program &P = milcProgram();
  for (auto _ : State) {
    codegen::Image Img = codegen::link(P.MIR);
    benchmark::DoNotOptimize(Img.Text.size());
  }
}
BENCHMARK(BM_EmitAndLink);

static void BM_InterpreterMips(benchmark::State &State) {
  driver::Program P = driver::compileProgram(
      "fn main() { var s = 0; var i = 0; while (i < 200000) { "
      "s = s + i * 3; i = i + 1; } return s; }",
      "mips");
  uint64_t Instructions = 0;
  for (auto _ : State) {
    mexec::RunResult R = driver::execute(P.MIR, {});
    Instructions += R.Instructions;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_InterpreterMips);

static void BM_FullPipelineCompile(benchmark::State &State) {
  const workloads::Workload &W = workloads::specWorkload("401.bzip2");
  for (auto _ : State) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    benchmark::DoNotOptimize(P.ok());
  }
}
BENCHMARK(BM_FullPipelineCompile);

BENCHMARK_MAIN();
