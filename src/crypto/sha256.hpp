// SHA-256 (FIPS 180-4), with two interchangeable compress backends:
//
//  * portable — the FIPS 180-4 rounds in plain C++;
//  * shani    — the x86 SHA extensions (SHA256RNDS2/MSG1/MSG2), selected
//    at runtime when CPUID reports SHA, SSSE3 and SSE4.1.
//
// Both backends sit behind one compress entry point that folds n whole
// 64-byte blocks into the chaining state; update() hands whole blocks
// straight from the caller's buffer to it and only stages a partial
// tail. SHA-256 is the key-derivation / random-oracle hash of the base
// OT (Chou-Orlandi style), fingerprints circuits for the handshake and
// the reusable-artifact cache, and checksums every spool file read back
// from disk — the last makes it part of the online path of a spooled
// session, so it runs at hardware speed where the CPU allows.
//
// Backend selection (process-wide): CPUID, resolved once at first use.
// set_sha256_backend() overrides it so tests can pin either backend.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace maxel::crypto {

enum class Sha256Backend : std::uint8_t { kAuto, kPortable, kShani };

// True iff the CPU reports the SHA extensions plus SSSE3 and SSE4.1
// (implemented in sha256_ni.cpp).
[[nodiscard]] bool shani_supported();

// Test-only override for the whole process (kAuto re-enables detection).
// Requesting kShani without CPU support falls back to the portable path.
void set_sha256_backend(Sha256Backend b);

// The backend the compress entry point uses right now (never kAuto).
[[nodiscard]] Sha256Backend sha256_active_backend();

[[nodiscard]] const char* sha256_backend_name(Sha256Backend b);

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::string& s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the 32-byte digest. The object must be reset()
  // before reuse.
  std::array<std::uint8_t, 32> digest();

  static std::array<std::uint8_t, 32> hash(const std::uint8_t* data,
                                           std::size_t len) {
    Sha256 h;
    h.update(data, len);
    return h.digest();
  }

  static std::string hex(const std::array<std::uint8_t, 32>& d);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::uint64_t bit_len_ = 0;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
};

namespace detail {
// The FIPS 180-4 round constants, shared by both backends.
extern const std::uint32_t kSha256K[64];
// Implemented in sha256_ni.cpp (function-level target attributes, so no
// build flags are involved).
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t n);
}  // namespace detail

}  // namespace maxel::crypto
