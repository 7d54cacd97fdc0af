//===- support/StableHash.h - Stable content hashing ------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process- and platform-stable content hashing: FNV-1a over bytes at 64
/// and 128 bits, plus a composable field hasher that feeds every scalar
/// through an explicit little-endian byte encoding. Deliberately not
/// std::hash — that is implementation-defined, may be randomized, and
/// therefore useless for digests that are committed to the repository and
/// compared across builds and machines. A given field sequence hashes to
/// the same value on every platform, every run, forever. It is kept for
/// the behaviour wall planned in ROADMAP item 11: one digest per section
/// of a compile's output (optimized IR, decisions, audit verdicts,
/// counters), committed and compared against each build's own.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_SUPPORT_STABLEHASH_H
#define DBDS_SUPPORT_STABLEHASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace dbds {

/// A 128-bit digest, comparable and hex-printable. Hi/Lo are the high and
/// low halves of the big-endian value (hex() prints Hi first).
struct Hash128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  friend bool operator==(const Hash128 &A, const Hash128 &B) {
    return A.Hi == B.Hi && A.Lo == B.Lo;
  }
  friend bool operator!=(const Hash128 &A, const Hash128 &B) {
    return !(A == B);
  }
  friend bool operator<(const Hash128 &A, const Hash128 &B) {
    return A.Hi != B.Hi ? A.Hi < B.Hi : A.Lo < B.Lo;
  }

  /// 32 lowercase hex digits, fixed width.
  std::string hex() const {
    static const char Digits[] = "0123456789abcdef";
    std::string Out(32, '0');
    uint64_t Halves[2] = {Hi, Lo};
    for (unsigned H = 0; H != 2; ++H)
      for (unsigned I = 0; I != 16; ++I)
        Out[H * 16 + I] = Digits[(Halves[H] >> (60 - 4 * I)) & 0xF];
    return Out;
  }
};

/// FNV-1a 64 over raw bytes.
inline uint64_t stableHash64(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

inline uint64_t stableHash64(const std::string &S) {
  return stableHash64(S.data(), S.size());
}

/// Composable FNV-1a 128 field hasher. Scalars are fed as fixed-width
/// little-endian bytes regardless of host endianness; strings and byte
/// blocks are length-prefixed so adjacent fields cannot alias ("ab","c"
/// vs "a","bc"). Chainable: H.u64(X).str(S).boolean(B).digest().
class StableHasher {
public:
  StableHasher &bytes(const void *Data, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Size; ++I)
      step(P[I]);
    return *this;
  }

  StableHasher &u8(uint8_t V) {
    step(V);
    return *this;
  }

  StableHasher &u32(uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      step(static_cast<unsigned char>(V >> (8 * I)));
    return *this;
  }

  StableHasher &u64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      step(static_cast<unsigned char>(V >> (8 * I)));
    return *this;
  }

  StableHasher &i64(int64_t V) { return u64(static_cast<uint64_t>(V)); }

  StableHasher &boolean(bool V) { return u8(V ? 1 : 0); }

  /// Doubles hash by bit pattern: the exact value, not a rounding of it.
  StableHasher &f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
    __builtin_memcpy(&Bits, &V, sizeof(Bits));
    return u64(Bits);
  }

  /// Length-prefixed string (or raw byte block).
  StableHasher &str(const std::string &S) {
    u64(S.size());
    return bytes(S.data(), S.size());
  }

  Hash128 digest() const {
    return {static_cast<uint64_t>(State >> 64),
            static_cast<uint64_t>(State)};
  }

private:
  using U128 = unsigned __int128;

  /// FNV-1a 128: prime 2^88 + 2^8 + 0x3b, standard offset basis.
  static constexpr U128 offsetBasis() {
    return (static_cast<U128>(0x6c62272e07bb0142ULL) << 64) |
           0x62b821756295c58dULL;
  }
  static constexpr U128 prime() {
    return (static_cast<U128>(1) << 88) | (1u << 8) | 0x3b;
  }

  void step(unsigned char B) {
    State ^= B;
    State *= prime();
  }

  U128 State = offsetBasis();
};

/// One-shot FNV-1a 128 over raw bytes.
inline Hash128 stableHash128(const void *Data, size_t Size) {
  return StableHasher().bytes(Data, Size).digest();
}

inline Hash128 stableHash128(const std::string &S) {
  return stableHash128(S.data(), S.size());
}

} // namespace dbds

#endif // DBDS_SUPPORT_STABLEHASH_H
