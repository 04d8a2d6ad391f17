//===-- serve/VariantStore.h - Persistent variant artifact store -*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-addressed, persistent on-disk artifact store behind
/// `pgsdc serve`. The paper's deployment story -- every user downloads a
/// unique binary -- needs per-variant artifacts that survive a daemon
/// restart, so a re-started fleet resumes from cache hits instead of
/// recompiling its whole population.
///
/// Keying: an entry is addressed by a 128-bit hash of everything that
/// determines its bytes -- the profile-stamped baseline MIR (printed
/// form, so profile counts are part of the key), the transform pipeline,
/// the diversity options, the request seed, the link options, and a
/// store format version. Same inputs, same key, process-independent; any
/// change to source, profile, pipeline, or engine version re-keys and
/// naturally invalidates. The per-program part of that material comes
/// first, so a server hashes it once (hashKeyPrefix) and each request
/// only its own short suffix; the key is the same either way.
///
/// Durability contract:
///  * Publication is write-to-temp + std::filesystem::rename, so a crash
///    mid-publish can never leave a half-written entry under a live key
///    (POSIX rename is atomic; readers see the old entry or the new one,
///    never a torn one).
///  * Every load re-hashes the payload against the digest recorded in
///    the header. A truncated, bit-flipped, or wrong-format entry loads
///    as LoadStatus::Corrupt -- the caller recompiles and re-publishes;
///    a torn entry is never served.
///
/// Thread-safety: load() and publish() may be called concurrently from
/// admission-queue workers; counters are atomic and distinct keys touch
/// distinct files. Two concurrent publishes of the *same* key both write
/// private temp files and the renames serialize -- last writer wins with
/// either writer's complete entry visible, which is fine because entries
/// are pure functions of their key.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_SERVE_VARIANTSTORE_H
#define PGSD_SERVE_VARIANTSTORE_H

#include "codegen/Linker.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "lir/MIR.h"
#include "mexec/Interp.h"
#include "verify/Verifier.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pgsd {
namespace serve {

/// A 128-bit content address (two independent FNV-1a streams).
struct StoreKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  /// 32 lowercase hex characters, the entry's file stem.
  std::string hex() const;

  bool operator==(const StoreKey &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
};

/// FNV-1a over \p Data, continuing from \p Seed (the standard offset
/// basis by default). Exposed for payload digests and tests.
uint64_t fnv1a64(const void *Data, size_t Size,
                 uint64_t Seed = 0xcbf29ce484222325ull);

/// The shared key material of (\p Baseline, \p Link) -- the expensive
/// part of key derivation (it prints the whole MIR). The serve loop
/// computes it once and derives per-request keys from it; a warm cache
/// hit must not pay a module print per request.
std::string baseKeyMaterial(const mir::MModule &Baseline,
                            const codegen::LinkOptions &Link);

/// Key material hashed up to a point: the mid-states of both FNV-1a
/// streams of StoreKey (Lo from the standard offset basis, Hi from the
/// golden-ratio word) and the bytes hashed so far. A key is both streams
/// continued over the rest of its material, with Hi then folding the
/// total length; FNV-1a is a left fold, so a key derived from a prefix
/// equals the key of the whole material, bit for bit.
struct KeyPrefix {
  uint64_t Lo = 0xcbf29ce484222325ull;
  uint64_t Hi = 0x9e3779b97f4a7c15ull;
  uint64_t Size = 0;
};

/// \p BaseMaterial (a baseKeyMaterial()) hashed once. The serve loop
/// derives every request's key from it, hashing only the short
/// per-request suffix (pipeline, diversity options, seed) instead of
/// the whole printed module (5 KB to 607 KB on the suite) per request.
KeyPrefix hashKeyPrefix(const std::string &BaseMaterial);

/// Content address of the variant determined by (profile-stamped
/// baseline \p Baseline, \p Pipe, \p D, request seed \p Seed, \p Link).
StoreKey makeVariantKey(const mir::MModule &Baseline,
                        const diversity::Pipeline &Pipe,
                        const diversity::DiversityOptions &D, uint64_t Seed,
                        const codegen::LinkOptions &Link);

/// makeVariantKey from precomputed baseKeyMaterial().
StoreKey makeVariantKey(const std::string &BaseMaterial,
                        const diversity::Pipeline &Pipe,
                        const diversity::DiversityOptions &D, uint64_t Seed);

/// makeVariantKey from baseKeyMaterial() hashed by hashKeyPrefix(): the
/// same key, at the cost of the per-request suffix only.
StoreKey makeVariantKey(const KeyPrefix &Base,
                        const diversity::Pipeline &Pipe,
                        const diversity::DiversityOptions &D, uint64_t Seed);

/// Content address of the baseline artifact (per-input baseline runs)
/// for precomputed baseKeyMaterial() verified under \p Verify: the
/// variant key material minus the per-request fields, plus the resolved
/// input battery and MaxSteps the runs were taken with -- an artifact is
/// prewarmed by battery index, so a different battery must miss.
StoreKey makeBaselineKey(const std::string &BaseMaterial,
                         const verify::VerifyOptions &Verify);

/// makeBaselineKey from baseKeyMaterial() hashed by hashKeyPrefix().
StoreKey makeBaselineKey(const KeyPrefix &Base,
                         const verify::VerifyOptions &Verify);

/// makeBaselineKey for (\p Baseline, \p Link) under the default
/// verify::VerifyOptions.
StoreKey makeBaselineKey(const mir::MModule &Baseline,
                         const codegen::LinkOptions &Link);

/// One persisted variant artifact: the served image bytes plus the
/// provenance the daemon reports (which attempt's seed produced it).
struct StoredVariant {
  std::vector<uint8_t> Text; ///< Linked .text image bytes.
  uint64_t Seed = 0;         ///< Request seed (the key's seed).
  uint64_t SeedUsed = 0;     ///< Seed of the accepted verify attempt.
  uint32_t Attempts = 0;     ///< Verify attempts behind this artifact.
};

/// Persisted baseline differential runs, one per battery input, so a
/// restarted daemon prewarms verify::BaselineCache instead of re-running
/// the baseline (verify::BaselineCache::prewarm).
struct BaselineArtifact {
  /// (battery index, baseline RunResult) pairs; only computed entries
  /// are persisted, so a partially-warmed cache round-trips losslessly.
  std::vector<std::pair<uint32_t, mexec::RunResult>> Runs;
};

/// Outcome of a load: served from disk, absent, or failed integrity.
enum class LoadStatus { Hit, Miss, Corrupt };

/// The on-disk store. One directory, one file per key; see the file
/// comment for the durability contract.
class VariantStore {
public:
  explicit VariantStore(std::string RootDir);

  const std::string &root() const { return Root; }

  /// Creates the root directory (and parents). False with \p Error set
  /// when the directory cannot be created or is not writable.
  bool open(std::string *Error = nullptr);

  /// Loads the entry under \p K. Hit fills \p Out; Corrupt means the
  /// entry existed but failed header or digest validation (the caller
  /// must recompile -- the torn file is unlinked so the next load is a
  /// clean miss).
  LoadStatus load(const StoreKey &K, StoredVariant &Out) const;

  /// Atomically publishes \p V under \p K (temp + rename). False with
  /// \p Error set on any write failure -- callers must not ignore it
  /// (disk-full maps to the file-I/O exit code, not a silent cache gap).
  bool publish(const StoreKey &K, const StoredVariant &V,
               std::string *Error = nullptr) const;

  /// Baseline artifact round trip, same contract as load()/publish().
  LoadStatus loadBaseline(const StoreKey &K, BaselineArtifact &Out) const;
  bool publishBaseline(const StoreKey &K, const BaselineArtifact &A,
                       std::string *Error = nullptr) const;

  /// True when an intact entry exists under \p K (no payload copy).
  bool contains(const StoreKey &K) const;

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t corruptions() const {
    return Corruptions.load(std::memory_order_relaxed);
  }
  uint64_t publishes() const {
    return Publishes.load(std::memory_order_relaxed);
  }

private:
  std::string entryPath(const StoreKey &K, const char *Suffix) const;
  LoadStatus loadFile(const std::string &Path, const StoreKey &K,
                      const char *Magic, std::string &Payload,
                      std::vector<uint64_t> &Header) const;
  bool publishFile(const std::string &Path, const std::string &Contents,
                   std::string *Error) const;

  std::string Root;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Misses{0};
  mutable std::atomic<uint64_t> Corruptions{0};
  mutable std::atomic<uint64_t> Publishes{0};
};

} // namespace serve
} // namespace pgsd

#endif // PGSD_SERVE_VARIANTSTORE_H
