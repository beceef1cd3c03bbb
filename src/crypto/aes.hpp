// AES-128, encryption only, with two interchangeable backends:
//
//  * table — portable software implementation; round tables are generated
//    at compile time from the S-box and GF(2^8) arithmetic;
//  * aesni — hardware AES-NI (AESENC/AESENCLAST) with software-pipelined
//    batches, selected at runtime when CPUID reports support.
//
// This is the fixed-key block cipher of Bellare et al. (S&P'13) that both
// MAXelerator's GC engine and the software baseline instantiate their
// garbling hash with. Garbling throughput is bounded by this cipher
// (HAAC makes the same observation), so the hot path is the *batch*
// entry point: many independent blocks in flight hide the AESENC latency
// exactly like the FPGA pipelines one table per core per clock.
//
// Backend selection (process-wide):
//   1. set_aes_backend(...), which takes effect at any time (tests, tools);
//   2. else env MAXEL_AES_BACKEND in {auto, table, aesni}, read once at
//      first use;
//   3. else auto: aesni when the CPU supports it, table otherwise.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/block.hpp"

namespace maxel::crypto {

enum class AesBackend : std::uint8_t { kAuto, kTable, kAesni };

// True iff this build carries the AES-NI code path AND the CPU reports
// the AES instruction set.
[[nodiscard]] bool aesni_supported();

// Forces a backend for the whole process (kAuto re-enables detection).
// Requesting kAesni without CPU support falls back to the table path.
void set_aes_backend(AesBackend b);

// The backend encrypt()/encrypt_batch() will actually use right now
// (never kAuto: auto is resolved to a concrete backend).
[[nodiscard]] AesBackend aes_active_backend();

[[nodiscard]] const char* aes_backend_name(AesBackend b);

class Aes128 {
 public:
  // Expands `key` into the 11 round keys. The GC fixed key is public;
  // security of the garbling hash comes from the random-permutation
  // heuristic, not key secrecy.
  explicit Aes128(const Block& key);

  // Default: the fixed garbling key (an arbitrary published constant).
  Aes128() : Aes128(fixed_garbling_key()) {}

  [[nodiscard]] Block encrypt(const Block& plaintext) const;

  // Encrypts `n` independent blocks. This is the garbling hot path: the
  // AES-NI backend keeps up to 8 blocks in flight so the AESENC latency
  // is hidden; the table backend degrades to a scalar loop. Semantics
  // are exactly n x encrypt(); in/out may alias elementwise.
  void encrypt_batch(const Block* in, Block* out, std::size_t n) const;

  // Legacy 4-wide batch entry point; forwards to encrypt_batch.
  void encrypt4(const Block in[4], Block out[4]) const {
    encrypt_batch(in, out, 4);
  }

  static constexpr Block fixed_garbling_key() {
    return Block{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  }

 private:
  Block encrypt_table(const Block& plaintext) const;

  // 44 round-key words, FIPS-197 layout (big-endian packed words).
  std::array<std::uint32_t, 44> rk_{};
  // Same schedule as raw bytes (AESENC round-key layout); kept alongside
  // so the AES-NI path loads keys without per-call byte shuffling.
  alignas(16) std::array<std::uint8_t, 176> rk_bytes_{};
};

namespace detail {
// Implemented in aes_ni.cpp (compiled with -maes when available).
bool aesni_compiled_and_supported();
void aesni_encrypt_blocks(const std::uint8_t rk_bytes[176], const Block* in,
                          Block* out, std::size_t n);
}  // namespace detail

}  // namespace maxel::crypto
