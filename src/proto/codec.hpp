// The one byte codec every wire record and spool file is written and
// read through: MXCHNK1 chunks (proto/chunk_io.hpp), MXSESS1 and MXSESS3
// sessions (session_io.hpp, v3_session.hpp), the v3 records
// (v3_records.hpp), MXREUS1 artifacts and their offers (reusable_io.hpp),
// the hello (net/handshake.hpp) and the Channel's count-prefixed blocks
// and bits (channel.hpp).
//
// The rules every format shares:
//   - fixed-width integers are little-endian;
//   - a count prefix is checked against its hard cap and against the
//     bytes left before anything is allocated;
//   - bits are packed lsb-first (bit i is bit i % 8 of byte i / 8), and
//     the padding bits of the last byte are zero;
//   - a record ends where its last field ends: trailing bytes are
//     refused.
//
// ByteReader throws the calling codec's own error type, so each codec
// keeps its exception; it takes no options, so the rules cannot drift
// apart again.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/block.hpp"

namespace maxel::proto {

[[nodiscard]] constexpr std::size_t packed_bytes(std::size_t n_bits) {
  return (n_bits + 7) / 8;
}

// Writes packed_bytes(bits.size()) bytes at out, padding bits zero.
inline void pack_bits(const std::vector<bool>& bits, std::uint8_t* out) {
  std::memset(out, 0, packed_bytes(bits.size()));
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
}

// Reads n bits that pack_bits wrote at in into out, reusing its storage.
inline void unpack_bits(const std::uint8_t* in, std::size_t n,
                        std::vector<bool>& out) {
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = (in[i / 8] >> (i % 8)) & 1u;
}

// Appends fields to a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& buf) : buf_(buf) {}

  // Appends n bytes and returns where they start (valid until the next
  // append).
  std::uint8_t* grow(std::size_t n) {
    const std::size_t off = buf_.size();
    buf_.resize(off + n);
    return buf_.data() + off;
  }
  void bytes(const void* p, std::size_t n) {
    if (n != 0) std::memcpy(grow(n), p, n);
  }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void block(const crypto::Block& b) { b.to_bytes(grow(16)); }
  // u64 count, then 16 bytes per block.
  void blocks(const std::vector<crypto::Block>& v) {
    u64(v.size());
    for (const auto& b : v) block(b);
  }
  // Packed bits with no count: the count is a field of its own.
  void bits(const std::vector<bool>& v) {
    pack_bits(v, grow(packed_bytes(v.size())));
  }
  // u64 count, then the packed bits.
  void counted_bits(const std::vector<bool>& v) {
    u64(v.size());
    bits(v);
  }

 private:
  std::vector<std::uint8_t>& buf_;
};

// Bounded cursor over a record's bytes. Every read checks the bytes left
// first, so a truncation is always an Error, never an overread.
// `context` prefixes every message ("parse_chunk: truncated table").
template <class Error>
class ByteReader {
 public:
  ByteReader(const std::uint8_t* p, std::size_t n, const char* context)
      : p_(p), left_(n), context_(context) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(std::string(context_) + ": " + what);
  }

  // The next n bytes; the cursor moves past them.
  const std::uint8_t* take(std::size_t n, const char* what) {
    if (left_ < n) fail(std::string("truncated ") + what);
    const std::uint8_t* at = p_;
    p_ += n;
    left_ -= n;
    return at;
  }
  std::uint8_t u8(const char* what) { return *take(1, what); }
  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    std::memcpy(&v, take(4, what), 4);
    return v;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    std::memcpy(&v, take(8, what), 8);
    return v;
  }
  crypto::Block block(const char* what) {
    return crypto::Block::from_bytes(take(16, what));
  }
  std::array<std::uint8_t, 32> digest(const char* what) {
    std::array<std::uint8_t, 32> d{};
    std::memcpy(d.data(), take(32, what), 32);
    return d;
  }
  void magic(const char (&m)[8], const char* what) {
    if (std::memcmp(take(8, what), m, 8) != 0)
      fail(std::string("bad magic for ") + what);
  }

  // A u64 count prefix of elements at least elem_bytes long each: above
  // cap, or more than the bytes left can hold, it is refused before the
  // caller allocates for it.
  std::uint64_t count(std::uint64_t cap, std::size_t elem_bytes,
                      const char* what) {
    const std::uint64_t n = u64(what);
    check_count(n, cap, what);
    if (n > left_ / elem_bytes)
      fail(std::string(what) + " count exceeds remaining bytes");
    return n;
  }
  // u64 count, then 16 bytes per block (ByteWriter::blocks).
  std::vector<crypto::Block> blocks(std::uint64_t cap, const char* what) {
    const std::uint64_t n = count(cap, 16, what);
    std::vector<crypto::Block> v(static_cast<std::size_t>(n));
    for (auto& b : v) b = block(what);
    return v;
  }

  // n packed bits into out, reusing its storage; a set padding bit is
  // refused.
  void bits(std::size_t n, std::vector<bool>& out, const char* what) {
    const std::size_t bytes = packed_bytes(n);
    const std::uint8_t* at = take(bytes, what);
    if (n % 8 != 0 && (at[bytes - 1] >> (n % 8)) != 0)
      fail(std::string("nonzero padding in ") + what);
    unpack_bits(at, n, out);
  }
  std::vector<bool> bits(std::size_t n, const char* what) {
    std::vector<bool> v;
    bits(n, v, what);
    return v;
  }
  // u64 count, then the packed bits (ByteWriter::counted_bits).
  std::vector<bool> counted_bits(std::uint64_t cap, const char* what) {
    const std::uint64_t n = u64(what);
    check_count(n, cap, what);
    if (packed_bytes(static_cast<std::size_t>(n)) > left_)
      fail(std::string(what) + " count exceeds remaining bytes");
    return bits(static_cast<std::size_t>(n), what);
  }

  // The record must end here.
  void done(const char* what) const {
    if (left_ != 0) fail(std::string("trailing bytes after ") + what);
  }

 private:
  void check_count(std::uint64_t n, std::uint64_t cap, const char* what) {
    if (n > cap)
      fail(std::string("implausible ") + what + " count " +
           std::to_string(n) + " (cap " + std::to_string(cap) + ")");
  }

  const std::uint8_t* p_;
  std::size_t left_;
  const char* context_;
};

}  // namespace maxel::proto
