//===-- bench/batch_throughput.cpp - Serial vs. parallel batch speedup ------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Measures the parallel variant factory (driver::makeVariantsBatch)
// against its serial baseline: every workload of the SPEC-like suite is
// compiled and profiled once, then a seed population is diversified and
// verified at Jobs=1 and Jobs=J, and the wall-clock speedup is recorded
// as JSON (BENCH_batch.json by default, or argv[1]). A cold parallel
// pass runs first, when each program's baseline battery is not yet in
// the process-wide memo (verify/BaselineCache.h) -- the one-shot
// `pgsdc batch` case; the serial and parallel passes after it recall
// the battery, so they time the same work. With argv[2],
// pipeline telemetry is enabled and exported there as pgsd-metrics-v1
// JSON (per-phase timings of every batch the bench ran).
//
// Knobs:
//   PGSD_QUICK=1     -- 4 seeds over a 5-workload subset (CI smoke).
//   PGSD_VARIANTS=N  -- seeds per workload (default 16).
//   PGSD_JOBS=J      -- parallel worker count (default 8).
//
// The speedup this records is hardware-bound: on a single-core host the
// parallel pass degenerates to ~1x (the JSON carries
// hardware_concurrency so readers can tell). Determinism is asserted
// while measuring: both passes must produce byte-identical images.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "driver/Batch.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace pgsd;

namespace {

unsigned envUnsigned(const char *Name, unsigned Default) {
  if (const char *V = std::getenv(Name)) {
    int N = std::atoi(V);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return Default;
}

struct Row {
  std::string Name;
  unsigned Seeds = 0;
  driver::BatchResult Cold;
  driver::BatchResult Serial;
  driver::BatchResult Parallel;

  double speedup() const {
    return Parallel.WallSeconds > 0.0
               ? Serial.WallSeconds / Parallel.WallSeconds
               : 0.0;
  }
};

// Numbers route through obs::jsonNumber so a zero-wall-clock ratio
// (NaN/inf) or a comma-decimal locale can never produce invalid JSON.
void appendJsonRow(std::string &Out, const Row &R, bool Last) {
  Out += "    {\"name\": " + obs::jsonString(R.Name) +
         ", \"seeds\": " + obs::jsonUInt(R.Seeds) +
         ", \"cold_parallel_wall_s\": " +
         obs::jsonNumber(R.Cold.WallSeconds, 4) +
         ", \"serial_wall_s\": " + obs::jsonNumber(R.Serial.WallSeconds, 4) +
         ", \"parallel_wall_s\": " +
         obs::jsonNumber(R.Parallel.WallSeconds, 4) +
         ", \"speedup\": " + obs::jsonNumber(R.speedup(), 3) +
         ", \"serial_vps\": " +
         obs::jsonNumber(R.Serial.variantsPerSecond(), 2) +
         ", \"parallel_vps\": " +
         obs::jsonNumber(R.Parallel.variantsPerSecond(), 2) +
         ", \"cold_parallel_vps\": " +
         obs::jsonNumber(R.Cold.variantsPerSecond(), 2) +
         ", \"accepted\": " + obs::jsonUInt(R.Parallel.Accepted) +
         ", \"rejected\": " + obs::jsonUInt(R.Parallel.Rejected) +
         ", \"retried\": " + obs::jsonUInt(R.Parallel.Retried) + "}" +
         (Last ? "\n" : ",\n");
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_batch.json";
  const char *MetricsPath = Argc > 2 ? Argv[2] : nullptr;
  if (MetricsPath)
    obs::setEnabled(true);
  bool Quick = [] {
    const char *Q = std::getenv("PGSD_QUICK");
    return Q && Q[0] == '1';
  }();
  unsigned SeedsPer = envUnsigned("PGSD_VARIANTS", Quick ? 4 : 16);
  unsigned Jobs = envUnsigned("PGSD_JOBS", 8);

  const std::vector<workloads::Workload> &Suite = workloads::specSuite();
  size_t NumWorkloads = Quick ? std::min<size_t>(5, Suite.size())
                              : Suite.size();

  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);

  std::vector<Row> Rows;
  double TotalCold = 0, TotalSerial = 0, TotalParallel = 0;
  for (size_t WI = 0; WI != NumWorkloads; ++WI) {
    const workloads::Workload &W = Suite[WI];
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    if (!P.ok()) {
      std::fprintf(stderr, "batch_throughput: %s failed to compile:\n%s",
                   W.Name.c_str(), P.errors().c_str());
      return 1;
    }
    if (!driver::profileAndStamp(P, W.TrainInput)) {
      std::fprintf(stderr, "batch_throughput: %s training run trapped\n",
                   W.Name.c_str());
      return 1;
    }

    std::vector<uint64_t> Seeds;
    for (unsigned S = 0; S != SeedsPer; ++S)
      Seeds.push_back(0xba7c0000ull + WI * 1000 + S);

    driver::BatchOptions Serial;
    Serial.Jobs = 1;
    // One bounded, known-terminating battery input per variant keeps the
    // measurement dominated by the pipeline under test rather than by
    // interpreting the hottest workloads eight times per seed.
    Serial.Verify.InputBattery = {W.TrainInput};
    driver::BatchOptions Parallel = Serial;
    Parallel.Jobs = Jobs;

    Row R;
    R.Name = W.Name;
    R.Seeds = SeedsPer;
    const diversity::Pipeline Nop;
    R.Cold = driver::makeVariantsBatch(P, Nop, Opts, Seeds, Parallel);
    R.Serial = driver::makeVariantsBatch(P, Nop, Opts, Seeds, Serial);
    R.Parallel = driver::makeVariantsBatch(P, Nop, Opts, Seeds, Parallel);

    // Determinism parity while we are here: the three passes must agree
    // byte-for-byte (tests/BatchTest.cpp pins this; the bench refuses to
    // publish numbers for diverging runs).
    for (size_t I = 0; I != Seeds.size(); ++I)
      if (R.Serial.Variants[I].V.Image.Text !=
              R.Parallel.Variants[I].V.Image.Text ||
          R.Cold.Variants[I].V.Image.Text !=
              R.Parallel.Variants[I].V.Image.Text) {
        std::fprintf(stderr,
                     "batch_throughput: %s: cold, Jobs=1 and Jobs=%u "
                     "images differ at seed index %zu\n",
                     W.Name.c_str(), Jobs, I);
        return 1;
      }

    TotalCold += R.Cold.WallSeconds;
    TotalSerial += R.Serial.WallSeconds;
    TotalParallel += R.Parallel.WallSeconds;
    std::printf("%-16s %2u seeds: cold %u jobs %.3fs, serial %.3fs, "
                "%u jobs %.3fs, speedup %.2fx (%.1f variants/sec)\n",
                W.Name.c_str(), SeedsPer, Jobs, R.Cold.WallSeconds,
                R.Serial.WallSeconds, Jobs, R.Parallel.WallSeconds,
                R.speedup(), R.Parallel.variantsPerSecond());
    Rows.push_back(std::move(R));
  }

  double Speedup = TotalParallel > 0 ? TotalSerial / TotalParallel : 0.0;
  std::printf("total: cold parallel %.3fs, serial %.3fs, parallel %.3fs, "
              "speedup %.2fx (%u jobs, %u hardware threads)\n",
              TotalCold, TotalSerial, TotalParallel, Speedup, Jobs,
              support::ThreadPool::defaultConcurrency());

  std::string Json;
  Json += "{\n";
  Json += "  \"jobs\": " + obs::jsonUInt(Jobs) + ",\n";
  Json += "  \"hardware_concurrency\": " +
          obs::jsonUInt(support::ThreadPool::defaultConcurrency()) + ",\n";
  Json += "  \"seeds_per_workload\": " + obs::jsonUInt(SeedsPer) + ",\n";
  Json += "  \"total_cold_parallel_wall_s\": " +
          obs::jsonNumber(TotalCold, 4) + ",\n";
  Json += "  \"total_serial_wall_s\": " + obs::jsonNumber(TotalSerial, 4) +
          ",\n";
  Json += "  \"total_parallel_wall_s\": " +
          obs::jsonNumber(TotalParallel, 4) + ",\n";
  Json += "  \"speedup\": " + obs::jsonNumber(Speedup, 3) +
          ",\n  \"workloads\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I)
    appendJsonRow(Json, Rows[I], I + 1 == Rows.size());
  Json += "  ]\n}\n";

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "batch_throughput: cannot write %s\n", OutPath);
    return 1;
  }
  std::fputs(Json.c_str(), Out);
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath);

  if (MetricsPath) {
    obs::gaugeSet("bench.batch.speedup", Speedup);
    obs::counterAdd("bench.batch.workloads", Rows.size());
    if (!obs::writeMetricsJson(MetricsPath)) {
      std::fprintf(stderr, "batch_throughput: cannot write %s\n",
                   MetricsPath);
      return 1;
    }
    std::printf("wrote %s\n", MetricsPath);
  }
  return 0;
}
