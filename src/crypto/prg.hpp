// Pseudorandom generator: AES-128 in counter mode.
//
// Used wherever the protocol needs an expandable stream from a short
// seed: IKNP column expansion, deterministic test label generation, and
// the software model of the label generator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/block.hpp"

namespace maxel::crypto {

class Prg {
 public:
  explicit Prg(const Block& seed) : aes_(seed) {}

  // Next 128 pseudorandom bits.
  Block next_block() { return aes_.encrypt(next_counter()); }

  std::uint64_t next_u64() { return next_block().lo ^ next_block().hi; }

  // Uniform value in [0, bound). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection sampling on the top range to avoid modulo bias.
    const std::uint64_t limit = bound * (UINT64_MAX / bound);
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return v % bound;
  }

  bool next_bit() { return (next_u64() & 1u) != 0; }

  // Fills `n` bytes of pseudorandom output: the same stream as repeated
  // next_block() calls, serialized with Block::to_bytes, but expanded 8
  // counter blocks per encrypt_batch call so AES-NI pipelines them. A
  // partial trailing block consumes its counter like next_block() does.
  void fill(std::uint8_t* out, std::size_t n) {
    Block ctr[8];
    Block ks[8];
    while (n > 0) {
      const std::size_t blocks = std::min<std::size_t>(8, (n + 15) / 16);
      for (std::size_t i = 0; i < blocks; ++i) ctr[i] = next_counter();
      aes_.encrypt_batch(ctr, ks, blocks);
      const std::size_t bytes = std::min(n, blocks * 16);
      std::memcpy(out, ks, bytes);  // Block's bytes are its to_bytes()
      out += bytes;
      n -= bytes;
    }
  }

  std::vector<bool> bits(std::size_t n) {
    std::vector<bool> v(n);
    for (std::size_t i = 0; i < n; i += 128) {
      const Block b = next_block();
      for (std::size_t j = 0; j < 128 && i + j < n; ++j) {
        const std::uint64_t limb = (j < 64) ? b.lo : b.hi;
        v[i + j] = ((limb >> (j % 64)) & 1u) != 0;
      }
    }
    return v;
  }

 private:
  Block next_counter() {
    return Block{counter_++, 0x5052472D43545221ull};  // "PRG-CTR!"
  }

  Aes128 aes_;
  std::uint64_t counter_ = 0;
};

}  // namespace maxel::crypto
