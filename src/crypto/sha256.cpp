#include "crypto/sha256.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

namespace maxel::crypto {

namespace detail {

const std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace detail

namespace {

std::atomic<Sha256Backend> g_requested{Sha256Backend::kAuto};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t state[8], const std::uint8_t* p,
                       std::size_t n) {
  for (; n > 0; --n, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + detail::kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// The one compress entry point: folds n whole 64-byte blocks into state.
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
              std::size_t n) {
  if (sha256_active_backend() == Sha256Backend::kShani)
    detail::sha256_compress_shani(state.data(), blocks, n);
  else
    compress_portable(state.data(), blocks, n);
}

}  // namespace

void set_sha256_backend(Sha256Backend b) { g_requested.store(b); }

Sha256Backend sha256_active_backend() {
  // CPUID cannot change under a running process, so kAuto resolves once;
  // an override still wins at any time because it is re-read per call.
  static const Sha256Backend auto_backend =
      shani_supported() ? Sha256Backend::kShani : Sha256Backend::kPortable;
  const Sha256Backend b = g_requested.load(std::memory_order_relaxed);
  if (b == Sha256Backend::kAuto) return auto_backend;
  if (b == Sha256Backend::kShani && !shani_supported())
    return Sha256Backend::kPortable;
  return b;
}

const char* sha256_backend_name(Sha256Backend b) {
  switch (b) {
    case Sha256Backend::kAuto:
      return "auto";
    case Sha256Backend::kPortable:
      return "portable";
    case Sha256Backend::kShani:
      return "shani";
  }
  return "?";
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  bit_len_ = 0;
  buf_len_ = 0;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  bit_len_ += static_cast<std::uint64_t>(len) * 8;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ < buf_.size()) return;
    compress(state_, buf_.data(), 1);
    buf_len_ = 0;
  }
  // Whole blocks are hashed in place; only a partial tail is staged.
  const std::size_t whole = len / 64;
  if (whole > 0) compress(state_, data, whole);
  std::memcpy(buf_.data(), data + 64 * whole, len - 64 * whole);
  buf_len_ = len - 64 * whole;
}

std::array<std::uint8_t, 32> Sha256::digest() {
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_),
              buf_.end(), std::uint8_t{0});
    compress(state_, buf_.data(), 1);
    buf_len_ = 0;
  }
  std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_),
            buf_.begin() + 56, std::uint8_t{0});
  for (int i = 0; i < 8; ++i)
    buf_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len_ >> (56 - 8 * i));
  compress(state_, buf_.data(), 1);

  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      out[4 * i + j] = static_cast<std::uint8_t>(state_[i] >> (24 - 8 * j));
  return out;
}

std::string Sha256::hex(const std::array<std::uint8_t, 32>& d) {
  std::string s(64, '0');
  for (std::size_t i = 0; i < 32; ++i)
    std::snprintf(s.data() + 2 * i, 3, "%02x", d[i]);
  return s;
}

}  // namespace maxel::crypto
