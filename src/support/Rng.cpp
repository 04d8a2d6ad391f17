//===-- support/Rng.cpp - Deterministic random numbers -------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

using namespace pgsd;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ull;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void Rng::reseed(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
  // All-zero state would be a fixed point of xoshiro; SplitMix64 cannot
  // produce four zero outputs in a row, but assert the invariant anyway.
  assert((State[0] | State[1] | State[2] | State[3]) != 0 &&
         "xoshiro state must not be all zero");
}

Rng Rng::fork() {
  return Rng(next());
}

Rng Rng::split(uint64_t Stream) const {
  // Mix the stream index with the (unmodified) state through two rounds
  // of SplitMix64 so that split(K) and split(K+1) are decorrelated even
  // for adjacent K, and so parents with nearby seeds do not alias.
  uint64_t X = Stream ^ 0xa0761d6478bd642full;
  uint64_t Mixed = State[0] ^ rotl(State[2], 23) ^ splitMix64(X);
  return Rng(splitMix64(Mixed));
}
