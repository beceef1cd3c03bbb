// SHA-NI backend for Sha256 (see sha256.hpp for the dispatch contract).
//
// The intrinsics are enabled per function with target attributes rather
// than per translation unit with build flags, so every build that
// compiles src/ (the root build and any package that pulls src/ in with
// add_subdirectory) carries this path without its own probe. The CPUID
// check gates it at runtime.
//
// SHA256RNDS2 performs two rounds on the state split as ABEF/CDGH, so
// each group of four rounds is two RNDS2 calls on one message quad;
// MSG1/MSG2 expand the schedule four words at a time.
#include "crypto/sha256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define MAXEL_SHA256_X86 1
#endif

namespace maxel::crypto {

#if defined(MAXEL_SHA256_X86)

bool shani_supported() {
  static const bool ok = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
    const bool ssse3 = (c & (1u << 9)) != 0;
    const bool sse41 = (c & (1u << 19)) != 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    const bool sha = (b & (1u << 29)) != 0;
    return sha && ssse3 && sse41;
  }();
  return ok;
}

namespace detail {

__attribute__((target("sha,ssse3,sse4.1"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t n) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // state[] is A..H; the round instruction wants ABEF and CDGH.
  __m128i t = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  t = _mm_shuffle_epi32(t, 0xB1);        // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g % 4] holds schedule quad g; quad g >= 4 is built from the
    // four before it (W[t-16..t-13] + sigma0 .. + W[t-7..t-4], sigma1).
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i w;
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            bswap);
      } else {
        const __m128i prev = msg[(g + 3) & 3];
        w = _mm_sha256msg1_epu32(msg[g & 3], msg[(g + 1) & 3]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(prev, msg[(g + 2) & 3], 4));
        w = _mm_sha256msg2_epu32(w, prev);
      }
      msg[g & 3] = w;
      const __m128i wk = _mm_add_epi32(
          w, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(kSha256K + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  t = _mm_shuffle_epi32(abef, 0x1B);     // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(t, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, t, 8));  // HGFE
}

}  // namespace detail

#else  // not x86 — portable stub; dispatch never calls it.

bool shani_supported() { return false; }

void detail::sha256_compress_shani(std::uint32_t[8], const std::uint8_t*,
                                   std::size_t) {}

#endif

}  // namespace maxel::crypto
