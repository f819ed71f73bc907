// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Word-at-a-time (SWAR: "SIMD within a register") byte scanners for the
// HTML front end's hot loops. FindByte/FindEither locate the next
// occurrence of one or two delimiter bytes 8 bytes per iteration (16 with
// SSE2/NEON under the WEBRBD_SIMD build option) instead of one, which is
// what lets the lexer consume text runs, raw-text bodies, and quoted
// attribute values as single bulk scans. CountByte counts one byte value
// the same way (16 bytes at a time with SSE2); the lexer sizes its token
// vector from it.
//
// The portable core is the classic zero-byte trick: for a 64-bit word v,
//
//   (v - 0x0101..01) & ~v & 0x8080..80
//
// has the high bit of byte i set iff byte i of v is zero. XORing v with a
// broadcast of the needle first turns "find needle" into "find zero".
// Loads go through memcpy, which every supported compiler folds into a
// single unaligned load — no alignment UB, no strict-aliasing UB, and
// never a read past `s.size()` (the tails fall back to byte loops), so the
// scanners are exact under ASan/UBSan.
//
// All functions return s.size() (not npos) when nothing matches: callers
// are scanning toward "end of region or end of input", and clamping here
// keeps their arithmetic branch-free.

#ifndef WEBRBD_UTIL_SWAR_H_
#define WEBRBD_UTIL_SWAR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(WEBRBD_SIMD)
#if defined(__SSE2__)
#include <emmintrin.h>
#define WEBRBD_SWAR_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define WEBRBD_SWAR_NEON 1
#endif
#endif

namespace webrbd::swar {

namespace internal {

inline constexpr uint64_t kOnes = 0x0101010101010101ull;
inline constexpr uint64_t kHighs = 0x8080808080808080ull;

inline uint64_t LoadWord(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline constexpr uint64_t Broadcast(char b) {
  return kOnes * static_cast<uint8_t>(b);
}

/// High bit of byte i set iff byte i of `v` is zero.
inline constexpr uint64_t ZeroBytes(uint64_t v) {
  return (v - kOnes) & ~v & kHighs;
}

/// Byte index (little-endian: lowest address first) of the first set
/// high-bit in a ZeroBytes-style mask. Precondition: mask != 0.
inline size_t FirstByteIndex(uint64_t mask) {
  return static_cast<size_t>(__builtin_ctzll(mask)) >> 3;
}

#if defined(WEBRBD_SWAR_SSE2)
inline size_t Find16(const char* p, char a, char b, bool use_b) {
  const __m128i chunk =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i hits = _mm_cmpeq_epi8(chunk, _mm_set1_epi8(a));
  if (use_b) {
    hits = _mm_or_si128(hits, _mm_cmpeq_epi8(chunk, _mm_set1_epi8(b)));
  }
  const int mask = _mm_movemask_epi8(hits);
  if (mask == 0) return 16;
  return static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
}
#elif defined(WEBRBD_SWAR_NEON)
inline size_t Find16(const char* p, char a, char b, bool use_b) {
  const uint8x16_t chunk = vld1q_u8(reinterpret_cast<const uint8_t*>(p));
  uint8x16_t hits = vceqq_u8(chunk, vdupq_n_u8(static_cast<uint8_t>(a)));
  if (use_b) {
    hits = vorrq_u8(hits,
                    vceqq_u8(chunk, vdupq_n_u8(static_cast<uint8_t>(b))));
  }
  // Narrow each 8-bit lane to 4 bits; ctz/4 of the 64-bit result is the
  // first matching lane.
  const uint8x8_t narrowed =
      vshrn_n_u16(vreinterpretq_u16_u8(hits), 4);
  const uint64_t mask = vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
  if (mask == 0) return 16;
  return static_cast<size_t>(__builtin_ctzll(mask)) >> 2;
}
#endif

}  // namespace internal

/// Index of the first `needle` byte in `s` at or after `from`;
/// `s.size()` when there is none.
inline size_t FindByte(std::string_view s, size_t from, char needle) {
  const char* data = s.data();
  size_t i = from;
#if defined(WEBRBD_SWAR_SSE2) || defined(WEBRBD_SWAR_NEON)
  while (i + 16 <= s.size()) {
    const size_t hit = internal::Find16(data + i, needle, needle, false);
    if (hit < 16) return i + hit;
    i += 16;
  }
#endif
  const uint64_t pattern = internal::Broadcast(needle);
  while (i + 8 <= s.size()) {
    const uint64_t mask =
        internal::ZeroBytes(internal::LoadWord(data + i) ^ pattern);
    if (mask != 0) return i + internal::FirstByteIndex(mask);
    i += 8;
  }
  while (i < s.size() && data[i] != needle) ++i;
  return i;
}

/// Index of the first byte equal to `a` or `b` in `s` at or after `from`;
/// `s.size()` when there is none.
inline size_t FindEither(std::string_view s, size_t from, char a, char b) {
  const char* data = s.data();
  size_t i = from;
#if defined(WEBRBD_SWAR_SSE2) || defined(WEBRBD_SWAR_NEON)
  while (i + 16 <= s.size()) {
    const size_t hit = internal::Find16(data + i, a, b, true);
    if (hit < 16) return i + hit;
    i += 16;
  }
#endif
  const uint64_t pattern_a = internal::Broadcast(a);
  const uint64_t pattern_b = internal::Broadcast(b);
  while (i + 8 <= s.size()) {
    const uint64_t word = internal::LoadWord(data + i);
    const uint64_t mask = internal::ZeroBytes(word ^ pattern_a) |
                          internal::ZeroBytes(word ^ pattern_b);
    if (mask != 0) return i + internal::FirstByteIndex(mask);
    i += 8;
  }
  while (i < s.size() && data[i] != a && data[i] != b) ++i;
  return i;
}

/// Number of `needle` bytes in `s`. The lexer's sizing pass: one count of
/// '<' bounds the token stream before lexing starts. No popcount: the
/// baseline x86-64 target has no POPCNT instruction, and the library call
/// the builtin becomes costs more than the scan. The SSE2 loop instead
/// subtracts each compare mask (-1 per match) into byte lanes and sums
/// them with SAD every 255 chunks; the word loop uses an exact per-byte
/// zero test (unlike ZeroBytes, whose borrow can flag a byte above a true
/// zero) and adds its 0/1 bytes up with one multiply.
inline size_t CountByte(std::string_view s, char needle) {
  const char* data = s.data();
  size_t i = 0;
  size_t count = 0;
#if defined(WEBRBD_SWAR_SSE2)
  const __m128i pattern16 = _mm_set1_epi8(needle);
  while (i + 16 <= s.size()) {
    __m128i lanes = _mm_setzero_si128();
    for (int chunk = 0; chunk < 255 && i + 16 <= s.size(); ++chunk, i += 16) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
      lanes = _mm_sub_epi8(lanes, _mm_cmpeq_epi8(bytes, pattern16));
    }
    const __m128i sums = _mm_sad_epu8(lanes, _mm_setzero_si128());
    count += static_cast<size_t>(_mm_cvtsi128_si32(sums)) +
             static_cast<size_t>(_mm_extract_epi16(sums, 4));
  }
#endif
  const uint64_t pattern = internal::Broadcast(needle);
  const uint64_t low7 = ~internal::kHighs;
  for (; i + 8 <= s.size(); i += 8) {
    const uint64_t t = internal::LoadWord(data + i) ^ pattern;
    const uint64_t zero = ~(((t & low7) + low7) | t) & internal::kHighs;
    count += static_cast<size_t>(((zero >> 7) * internal::kOnes) >> 56);
  }
  for (; i < s.size(); ++i) count += data[i] == needle ? 1 : 0;
  return count;
}

/// True iff `s` contains an ASCII uppercase letter [A-Z]. The fast check
/// in front of AsciiToLower and the tag-name interner: names in real
/// markup are overwhelmingly already lowercase, and this answers that 8
/// bytes at a time without touching the heap.
inline bool ContainsAsciiUpper(std::string_view s) {
  const char* data = s.data();
  size_t i = 0;
  // Range test per byte b: 'A' <= (b & 0x7f) <= 'Z' and b < 0x80. The
  // addends keep every per-byte sum below 0x100, so no carry crosses a
  // byte boundary.
  const uint64_t low7 = ~internal::kHighs;
  while (i + 8 <= s.size()) {
    const uint64_t v = internal::LoadWord(data + i);
    const uint64_t seven = v & low7;
    const uint64_t ge_a = seven + internal::Broadcast(static_cast<char>(0x80 - 'A'));
    const uint64_t gt_z =
        seven + internal::Broadcast(static_cast<char>(0x80 - 'Z' - 1));
    if ((ge_a & ~gt_z & ~v & internal::kHighs) != 0) return true;
    i += 8;
  }
  for (; i < s.size(); ++i) {
    if (data[i] >= 'A' && data[i] <= 'Z') return true;
  }
  return false;
}

}  // namespace webrbd::swar

#endif  // WEBRBD_UTIL_SWAR_H_
