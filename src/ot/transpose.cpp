#include "ot/transpose.hpp"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace maxel::ot {

#if defined(__SSE2__)
namespace {

// 16x16 byte transpose: on return y[b] holds byte b of x[0..15], in order.
// Four unpack stages (8-, 16-, 32-, 64-bit lanes) each interleave pairs.
void transpose_bytes16(const __m128i x[16], __m128i y[16]) {
  __m128i u[16];
  __m128i v[16];
  for (int m = 0; m < 8; ++m) {
    u[m] = _mm_unpacklo_epi8(x[2 * m], x[2 * m + 1]);
    u[m + 8] = _mm_unpackhi_epi8(x[2 * m], x[2 * m + 1]);
  }
  for (int h = 0; h < 16; h += 8) {
    for (int q = 0; q < 4; ++q) {
      v[h + q] = _mm_unpacklo_epi16(u[h + 2 * q], u[h + 2 * q + 1]);
      v[h + 4 + q] = _mm_unpackhi_epi16(u[h + 2 * q], u[h + 2 * q + 1]);
    }
  }
  for (int b = 0; b < 16; b += 4) {
    for (int r = 0; r < 2; ++r) {
      u[b + r] = _mm_unpacklo_epi32(v[b + 2 * r], v[b + 2 * r + 1]);
      u[b + 2 + r] = _mm_unpackhi_epi32(v[b + 2 * r], v[b + 2 * r + 1]);
    }
  }
  for (int p = 0; p < 16; p += 2) {
    y[p] = _mm_unpacklo_epi64(u[p], u[p + 1]);
    y[p + 1] = _mm_unpackhi_epi64(u[p], u[p + 1]);
  }
}

}  // namespace

void transpose128(const std::uint8_t* const cols[128], std::size_t n,
                  crypto::Block* rows) {
  // One 128-row x 128-column tile per pass. tile[r][g] holds row r's
  // bits for columns 16g..16g+15, i.e. bytes 2g and 2g+1 of the row.
  alignas(16) std::uint16_t tile[128][8];
  for (std::size_t j0 = 0; j0 < n; j0 += 128) {
    const std::size_t tile_rows = std::min<std::size_t>(128, n - j0);
    const std::size_t tile_bytes = (tile_rows + 7) / 8;
    const std::size_t off = j0 / 8;
    for (int g = 0; g < 8; ++g) {
      __m128i x[16];
      for (int k = 0; k < 16; ++k) {
        const std::uint8_t* src = cols[16 * g + k] + off;
        if (tile_bytes == 16) {
          x[k] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
        } else {
          alignas(16) std::uint8_t buf[16] = {};
          std::memcpy(buf, src, tile_bytes);
          x[k] = _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
        }
      }
      __m128i y[16];
      transpose_bytes16(x, y);
      // y[b] byte k is column 16g+k's bits for rows j0+8b..j0+8b+7;
      // movemask collects bit 7 of every byte, so shifting left one bit
      // at a time peels off the rows from the top bit down.
      for (int b = 0; b < 16; ++b) {
        __m128i w = y[b];
        for (int bit = 7; bit >= 0; --bit) {
          tile[8 * b + bit][g] =
              static_cast<std::uint16_t>(_mm_movemask_epi8(w));
          w = _mm_slli_epi64(w, 1);
        }
      }
    }
    std::memcpy(static_cast<void*>(rows + j0), tile,
                tile_rows * sizeof(crypto::Block));
  }
}

#else  // scalar fallback

void transpose128(const std::uint8_t* const cols[128], std::size_t n,
                  crypto::Block* rows) {
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t limb[2] = {0, 0};
    for (std::size_t i = 0; i < 128; ++i) {
      const std::uint64_t bit = (cols[i][j / 8] >> (j % 8)) & 1u;
      limb[i / 64] |= bit << (i % 64);
    }
    rows[j] = crypto::Block{limb[0], limb[1]};
  }
}

#endif

}  // namespace maxel::ot
