//===-- perfbench/src/Harness.cpp - Benchmark measurement harness ----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Statistics.h"
#include "support/Time.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace pgsd;
using namespace pgsd::perfbench;

//===-- HostRef ------------------------------------------------------------===//

HostRef::HostRef() : Table(TableWords, 1) {
  slice(); // Warm the TLB and caches before the first measured slice.
}

double HostRef::slice() {
  const double Start = support::monotonicSeconds();
  uint64_t X = Cursor;
  // Addresses come from an xorshift stream, not from loaded values, so
  // several misses are in flight at once: the slice measures the memory
  // system's throughput under whatever else the host is running.
  for (unsigned S = 0; S != Steps; ++S) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Table[X & (TableWords - 1)] += S;
  }
  Cursor = X;
  return support::elapsedSeconds(Start, support::monotonicSeconds());
}

void RefClock::measure(HostRef &Ref, const std::function<void()> &Work) {
  const double Start = support::monotonicSeconds();
  Work();
  const double Dt = support::elapsedSeconds(Start, support::monotonicSeconds());
  const double Slice = Ref.slice();
  LastScale = Slice > 0.0 ? HostRef::NominalSeconds / Slice : 1.0;
  Raw += Dt;
  Normalized += Dt * LastScale;
  SliceSum += Slice;
  ++Slices;
}

//===-- Tracer -------------------------------------------------------------===//

Tracer::Scope::Scope(Tracer &Tr, const char *Name) {
  if (!Tr.Enabled)
    return;
  T = &Tr;
  Index = Tr.Spans.size();
  SpanRec R;
  R.Name = Name;
  R.Op = Tr.CurrentOp;
  R.Parent = Tr.Open.empty() ? -1 : static_cast<int64_t>(Tr.Open.back());
  R.Start = support::monotonicSeconds();
  Tr.Spans.push_back(R);
  Tr.Open.push_back(Index);
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  T->Spans[Index].End = support::monotonicSeconds();
  T->Open.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children of one parent never overlap (spans nest on one thread), so
  // the covered part of a parent is the sum of its children.
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      Covered[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Totals &T = Out[Spans[I].Name];
    const double Dur = Spans[I].End - Spans[I].Start;
    ++T.Count;
    T.Seconds += Dur;
    T.SelfSeconds += std::max(0.0, Dur - Covered[I]);
  }
  return Out;
}

bool Tracer::write(const std::string &Path,
                   const obs::LocalMetrics &Imported) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  const double T0 = Spans.empty() ? 0.0 : Spans.front().Start;
  F << "{\"traceEvents\":[";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"id\":%zu,\"parent\":%lld}}",
                  I ? "," : "", S.Name, (S.Start - T0) * 1e6,
                  (S.End - S.Start) * 1e6,
                  static_cast<unsigned long long>(S.Op), I,
                  static_cast<long long>(S.Parent));
    F << Buf;
  }
  F << "],\"pgsdObs\":{\"phases\":{";
  bool First = true;
  for (const auto &[Name, P] : Imported.Phases) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\":{\"count\":%llu,\"wall_s\":%.9g,\"cpu_s\":%.9g}",
                  First ? "" : ",", Name.c_str(),
                  static_cast<unsigned long long>(P.Count), P.WallSeconds,
                  P.CpuSeconds);
    F << Buf;
    First = false;
  }
  F << "},\"counters\":{";
  First = true;
  for (const auto &[Name, V] : Imported.Counters) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%llu", First ? "" : ",",
                  Name.c_str(), static_cast<unsigned long long>(V));
    F << Buf;
    First = false;
  }
  F << "}}}\n";
  return static_cast<bool>(F);
}

//===-- Report -------------------------------------------------------------===//

std::string Report::json() const {
  std::string Out = "{\"correct\": true";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[128];
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    // Non-finite values cannot be written as JSON numbers; they only
    // arise from an empty phase and read as 0.
    const double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.12g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

//===-- Inputs and set-up --------------------------------------------------===//

uint64_t SeedStream::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

SeedStream SeedStream::child(uint64_t Tag) const {
  SeedStream S(State ^ (Tag * 0xd6e8feb86659fd93ull));
  S.next();
  return SeedStream(S.next());
}

void perfbench::runOracleBaselines(BenchProgram &B) {
  B.RefTrain = driver::execute(B.P.MIR, B.W->TrainInput,
                               /*CollectOutput=*/true,
                               mexec::Engine::Reference);
  B.RefRef = driver::execute(B.P.MIR, B.W->RefInput,
                             /*CollectOutput=*/true,
                             mexec::Engine::Reference);
  if (B.RefTrain.Trapped || B.RefRef.Trapped)
    checkFailed(B.W->Name + ": baseline traps on the reference engine");
}

std::vector<BenchProgram>
perfbench::setUpPrograms(Context &C, unsigned Reps, double &NormSeconds,
                         double &RawSeconds,
                         const std::function<void(BenchProgram &)> &Extra) {
  // The order programs are set up in is the only input set-up takes
  // from the seed; every program is always set up.
  const std::vector<workloads::Workload> &Suite = workloads::specSuite();
  std::vector<size_t> Order(Suite.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  SeedStream S = SeedStream(C.Seed).child(1);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[S.below(I)]);

  std::vector<double> Norm, Raw;
  std::vector<BenchProgram> Progs;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    Progs.clear();
    Progs.resize(Order.size());
    RefClock Clock;
    for (size_t I = 0; I != Order.size(); ++I) {
      BenchProgram &B = Progs[I];
      B.W = &Suite[Order[I]];
      C.T->beginOp();
      Clock.measure(*C.Ref, [&] {
        Tracer::Scope Op(*C.T, "bench.setup");
        {
          Tracer::Scope Sp(*C.T, "driver.compileProgram");
          B.P = driver::compileProgram(B.W->Source, B.W->Name);
        }
        if (!B.P.ok())
          checkFailed(B.W->Name + ": compile failed\n" + B.P.errors());
        bool Profiled;
        {
          Tracer::Scope Sp(*C.T, "driver.profileAndStamp");
          Profiled = driver::profileAndStamp(B.P, B.W->TrainInput);
        }
        if (!Profiled)
          checkFailed(B.W->Name + ": training run trapped");
        if (Extra)
          Extra(B);
      });
    }
    Norm.push_back(Clock.Normalized);
    Raw.push_back(Clock.Raw);
  }
  NormSeconds = median(Norm);
  RawSeconds = median(Raw);
  for (BenchProgram &B : Progs)
    B.BaseImage = driver::linkBaseline(B.P);
  return Progs;
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void perfbench::checkFailed(const std::string &Why) {
  std::fprintf(stderr, "perfbench: output check failed: %s\n", Why.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

std::vector<PaperConfig> perfbench::paperConfigs() {
  using diversity::DiversityOptions;
  using diversity::ProbabilityModel;
  return {
      {"pNOP=50%", DiversityOptions::uniform(0.50)},
      {"pNOP=30%", DiversityOptions::uniform(0.30)},
      {"pNOP=25-50%",
       DiversityOptions::profiled(ProbabilityModel::Log, 0.25, 0.50)},
      {"pNOP=10-50%",
       DiversityOptions::profiled(ProbabilityModel::Log, 0.10, 0.50)},
      {"pNOP=0-30%",
       DiversityOptions::profiled(ProbabilityModel::Log, 0.00, 0.30)},
  };
}
