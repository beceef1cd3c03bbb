#include "crypto/aes.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace maxel::crypto {
namespace {

// ---- Backend resolution -------------------------------------------------

std::atomic<AesBackend> g_requested{AesBackend::kAuto};

AesBackend resolve_from_env() {
  const char* env = std::getenv("MAXEL_AES_BACKEND");
  if (env != nullptr) {
    if (std::strcmp(env, "table") == 0) return AesBackend::kTable;
    if (std::strcmp(env, "aesni") == 0) return AesBackend::kAesni;
    // "auto" or anything unrecognized: fall through to detection.
  }
  return AesBackend::kAuto;
}

// ---- Compile-time AES table generation (FIPS-197) ----------------------

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// S-box = affine transform of the multiplicative inverse in GF(2^8).
constexpr std::array<std::uint8_t, 256> make_sbox() {
  // Build inverse table by brute force (runs at compile time only).
  std::array<std::uint8_t, 256> inv{};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (gmul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)) ==
          1) {
        inv[static_cast<std::size_t>(a)] = static_cast<std::uint8_t>(b);
        break;
      }
    }
  }
  std::array<std::uint8_t, 256> sbox{};
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t x = inv[static_cast<std::size_t>(i)];
    const auto rotl8 = [](std::uint8_t v, int n) {
      return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
    };
    sbox[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63);
  }
  return sbox;
}

constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();

// Round tables: Te0[x] packs SubBytes+MixColumns for one state byte.
constexpr std::array<std::uint32_t, 256> make_te(int rot) {
  std::array<std::uint32_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[static_cast<std::size_t>(i)];
    const std::uint32_t w = (static_cast<std::uint32_t>(gmul(s, 2)) << 24) |
                            (static_cast<std::uint32_t>(s) << 16) |
                            (static_cast<std::uint32_t>(s) << 8) |
                            static_cast<std::uint32_t>(gmul(s, 3));
    t[static_cast<std::size_t>(i)] =
        rot == 0 ? w : ((w >> (8 * rot)) | (w << (32 - 8 * rot)));
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTe0 = make_te(0);
constexpr std::array<std::uint32_t, 256> kTe1 = make_te(1);
constexpr std::array<std::uint32_t, 256> kTe2 = make_te(2);
constexpr std::array<std::uint32_t, 256> kTe3 = make_te(3);

constexpr std::array<std::uint8_t, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1B, 0x36};

constexpr std::uint32_t sub_word(std::uint32_t w) {
  return (static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xFF]) << 24) |
         (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xFF]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xFF]) << 8) |
         static_cast<std::uint32_t>(kSbox[w & 0xFF]);
}

constexpr std::uint32_t rot_word(std::uint32_t w) {
  return (w << 8) | (w >> 24);
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t w) {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

}  // namespace

bool aesni_supported() { return detail::aesni_compiled_and_supported(); }

void set_aes_backend(AesBackend b) { g_requested.store(b); }

AesBackend aes_active_backend() {
  // The environment and CPUID cannot change under a running process, so
  // kAuto resolves once; an explicit set_aes_backend() still wins at any
  // time because the requested value is re-read on every call.
  static const AesBackend auto_backend = [] {
    const AesBackend env = resolve_from_env();
    if (env == AesBackend::kTable || !aesni_supported())
      return AesBackend::kTable;
    return AesBackend::kAesni;
  }();
  const AesBackend b = g_requested.load(std::memory_order_relaxed);
  if (b == AesBackend::kAuto) return auto_backend;
  if (b == AesBackend::kAesni && !aesni_supported()) return AesBackend::kTable;
  return b;
}

const char* aes_backend_name(AesBackend b) {
  switch (b) {
    case AesBackend::kAuto:
      return "auto";
    case AesBackend::kTable:
      return "table";
    case AesBackend::kAesni:
      return "aesni";
  }
  return "?";
}

Aes128::Aes128(const Block& key) {
  std::uint8_t kb[16];
  key.to_bytes(kb);
  for (int i = 0; i < 4; ++i) rk_[static_cast<std::size_t>(i)] = load_be32(kb + 4 * i);
  for (int i = 4; i < 44; ++i) {
    std::uint32_t t = rk_[static_cast<std::size_t>(i - 1)];
    if (i % 4 == 0) {
      t = sub_word(rot_word(t)) ^
          (static_cast<std::uint32_t>(kRcon[static_cast<std::size_t>(i / 4 - 1)])
           << 24);
    }
    rk_[static_cast<std::size_t>(i)] = rk_[static_cast<std::size_t>(i - 4)] ^ t;
  }
  // AESENC consumes round keys as raw bytes; the FIPS word layout above
  // stores each word big-endian, so serialize in that order once here.
  for (int i = 0; i < 44; ++i)
    store_be32(rk_bytes_.data() + 4 * i, rk_[static_cast<std::size_t>(i)]);
}

Block Aes128::encrypt(const Block& plaintext) const {
  if (aes_active_backend() == AesBackend::kAesni) {
    Block out;
    detail::aesni_encrypt_blocks(rk_bytes_.data(), &plaintext, &out, 1);
    return out;
  }
  return encrypt_table(plaintext);
}

void Aes128::encrypt_batch(const Block* in, Block* out, std::size_t n) const {
  if (aes_active_backend() == AesBackend::kAesni) {
    detail::aesni_encrypt_blocks(rk_bytes_.data(), in, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = encrypt_table(in[i]);
}

Block Aes128::encrypt_table(const Block& plaintext) const {
  std::uint8_t in[16];
  plaintext.to_bytes(in);

  std::uint32_t s0 = load_be32(in + 0) ^ rk_[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk_[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk_[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk_[3];

  for (int round = 1; round < 10; ++round) {
    const std::uint32_t t0 = kTe0[(s0 >> 24) & 0xFF] ^ kTe1[(s1 >> 16) & 0xFF] ^
                             kTe2[(s2 >> 8) & 0xFF] ^ kTe3[s3 & 0xFF] ^
                             rk_[static_cast<std::size_t>(4 * round + 0)];
    const std::uint32_t t1 = kTe0[(s1 >> 24) & 0xFF] ^ kTe1[(s2 >> 16) & 0xFF] ^
                             kTe2[(s3 >> 8) & 0xFF] ^ kTe3[s0 & 0xFF] ^
                             rk_[static_cast<std::size_t>(4 * round + 1)];
    const std::uint32_t t2 = kTe0[(s2 >> 24) & 0xFF] ^ kTe1[(s3 >> 16) & 0xFF] ^
                             kTe2[(s0 >> 8) & 0xFF] ^ kTe3[s1 & 0xFF] ^
                             rk_[static_cast<std::size_t>(4 * round + 2)];
    const std::uint32_t t3 = kTe0[(s3 >> 24) & 0xFF] ^ kTe1[(s0 >> 16) & 0xFF] ^
                             kTe2[(s1 >> 8) & 0xFF] ^ kTe3[s2 & 0xFF] ^
                             rk_[static_cast<std::size_t>(4 * round + 3)];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  const auto final_word = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                              std::uint32_t d, std::uint32_t rk) {
    return ((static_cast<std::uint32_t>(kSbox[(a >> 24) & 0xFF]) << 24) |
            (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xFF]) << 16) |
            (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xFF]) << 8) |
            static_cast<std::uint32_t>(kSbox[d & 0xFF])) ^
           rk;
  };
  std::uint8_t out[16];
  store_be32(out + 0, final_word(s0, s1, s2, s3, rk_[40]));
  store_be32(out + 4, final_word(s1, s2, s3, s0, rk_[41]));
  store_be32(out + 8, final_word(s2, s3, s0, s1, rk_[42]));
  store_be32(out + 12, final_word(s3, s0, s1, s2, rk_[43]));
  return Block::from_bytes(out);
}

}  // namespace maxel::crypto
