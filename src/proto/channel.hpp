// Duplex byte channels with exact traffic accounting.
//
// Protocol objects (OT, GC transfer) are written in explicit phases and
// driven by a single-threaded orchestrator, so the in-memory channel is a
// simple pair of byte queues: send() appends, recv() pops and throws if
// the orchestration order is wrong (a cheap deadlock detector).
//
// Byte counters feed the communication columns of the evaluation: garbled
// table traffic is protocol-determined, so counting bytes here is exact
// regardless of the physical link (the paper's PCIe + network).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/block.hpp"
#include "proto/codec.hpp"

namespace maxel::proto {

using crypto::Block;

// A count-prefixed channel record the receiver refuses: a count above
// kMaxChannelCount or other than the one it expects, or a set padding
// bit.
class WireFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Hard cap on the count of one recv_blocks()/recv_bits() record, far
// above any real round (a 64-bit dot-product round holds ~1e4 labels).
inline constexpr std::uint64_t kMaxChannelCount = 1u << 24;

class Channel {
 public:
  virtual ~Channel() = default;

  // Pushes any buffered sends to the peer. In-memory channels deliver
  // immediately and keep the no-op default; a socket channel overrides
  // this to cut a frame. Protocol drivers call it at message boundaries
  // where the peer is about to act on what was sent.
  virtual void flush() {}

  void send_bytes(const std::uint8_t* data, std::size_t n) {
    raw_send(data, n);
    bytes_sent_ += n;
  }
  void recv_bytes(std::uint8_t* data, std::size_t n) {
    raw_recv(data, n);
    bytes_received_ += n;
  }

  void send_block(const Block& b) {
    std::uint8_t buf[16];
    b.to_bytes(buf);
    send_bytes(buf, 16);
  }
  Block recv_block() {
    std::uint8_t buf[16];
    recv_bytes(buf, 16);
    return Block::from_bytes(buf);
  }

  // Blocks travel count-prefixed and back-to-back through one contiguous
  // buffer and a single raw_send/raw_recv: over an in-memory queue this
  // is a free win, over a socket it is the difference between one
  // syscall and one per 16 bytes. The byte stream is identical to the
  // per-block encoding (u64 count, then 16 bytes per block).
  void send_blocks(const std::vector<Block>& v) {
    std::vector<std::uint8_t> buf;
    buf.reserve(8 + 16 * v.size());
    ByteWriter(buf).blocks(v);
    send_bytes(buf.data(), buf.size());
  }
  // A count above kMaxChannelCount throws WireFormatError before
  // anything is allocated.
  std::vector<Block> recv_blocks() {
    return recv_blocks_of<WireFormatError>(recv_count(), "block record");
  }
  // The same record when the receiver already knows its count: any other
  // count throws Error before a byte of payload is allocated or read.
  template <class Error = WireFormatError>
  std::vector<Block> recv_blocks(std::uint64_t expect, const char* what) {
    return recv_blocks_of<Error>(expect_count<Error>(expect, what), what);
  }

  void send_u64(std::uint64_t v) {
    std::uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    send_bytes(buf, 8);
  }
  std::uint64_t recv_u64() {
    std::uint8_t buf[8];
    recv_bytes(buf, 8);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    return v;
  }

  // A u64 count prefix the receiver already knows: any other value
  // throws Error.
  template <class Error = WireFormatError>
  std::uint64_t expect_count(std::uint64_t expect, const char* what) {
    const std::uint64_t n = recv_u64();
    if (n != expect)
      throw Error(std::string(what) + " carries " + std::to_string(n) +
                  ", expected " + std::to_string(expect));
    return n;
  }

  // u64 count, then the bits packed lsb-first (proto/codec.hpp).
  void send_bits(const std::vector<bool>& bits) {
    std::vector<std::uint8_t> buf;
    buf.reserve(8 + packed_bytes(bits.size()));
    ByteWriter(buf).counted_bits(bits);
    send_bytes(buf.data(), buf.size());
  }
  // Capped like recv_blocks(); a set padding bit throws WireFormatError.
  std::vector<bool> recv_bits() {
    return recv_bits_of<WireFormatError>(recv_count(), "bit record");
  }
  template <class Error = WireFormatError>
  std::vector<bool> recv_bits(std::uint64_t expect, const char* what) {
    return recv_bits_of<Error>(expect_count<Error>(expect, what), what);
  }

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  void reset_counters() { bytes_sent_ = bytes_received_ = 0; }

 protected:
  virtual void raw_send(const std::uint8_t* data, std::size_t n) = 0;
  virtual void raw_recv(std::uint8_t* data, std::size_t n) = 0;

 private:
  std::uint64_t recv_count() {
    const std::uint64_t n = recv_u64();
    if (n > kMaxChannelCount)
      throw WireFormatError("channel: implausible count " + std::to_string(n) +
                            " (cap " + std::to_string(kMaxChannelCount) +
                            ")");
    return n;
  }
  template <class Error>
  std::vector<Block> recv_blocks_of(std::uint64_t n, const char* what) {
    std::vector<std::uint8_t> buf(16 * static_cast<std::size_t>(n));
    if (n != 0) recv_bytes(buf.data(), buf.size());
    ByteReader<Error> rd(buf.data(), buf.size(), what);
    std::vector<Block> v(static_cast<std::size_t>(n));
    for (auto& b : v) b = rd.block(what);
    return v;
  }
  template <class Error>
  std::vector<bool> recv_bits_of(std::uint64_t n, const char* what) {
    std::vector<std::uint8_t> buf(packed_bytes(static_cast<std::size_t>(n)));
    if (n != 0) recv_bytes(buf.data(), buf.size());
    return ByteReader<Error>(buf.data(), buf.size(), what)
        .bits(static_cast<std::size_t>(n), what);
  }

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

// In-memory duplex channel pair.
class MemoryChannel final : public Channel {
 public:
  // Returns the two endpoints of a fresh duplex link.
  static std::pair<std::unique_ptr<MemoryChannel>,
                   std::unique_ptr<MemoryChannel>>
  create_pair() {
    auto q_ab = std::make_shared<std::deque<std::uint8_t>>();
    auto q_ba = std::make_shared<std::deque<std::uint8_t>>();
    auto a = std::unique_ptr<MemoryChannel>(new MemoryChannel(q_ab, q_ba));
    auto b = std::unique_ptr<MemoryChannel>(new MemoryChannel(q_ba, q_ab));
    return {std::move(a), std::move(b)};
  }

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override {
    out_->insert(out_->end(), data, data + n);
  }
  void raw_recv(std::uint8_t* data, std::size_t n) override {
    if (in_->size() < n)
      throw std::runtime_error(
          "MemoryChannel: recv before matching send (phase-order bug)");
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = in_->front();
      in_->pop_front();
    }
  }

 private:
  MemoryChannel(std::shared_ptr<std::deque<std::uint8_t>> out,
                std::shared_ptr<std::deque<std::uint8_t>> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  std::shared_ptr<std::deque<std::uint8_t>> out_;
  std::shared_ptr<std::deque<std::uint8_t>> in_;
};

}  // namespace maxel::proto
