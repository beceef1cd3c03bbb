// Non-blocking half of the TCP transport: a proto::Channel whose bytes
// arrive via ingest() (already read off the socket by the event loop)
// and leave as framed iovec segments gathered for writev().
//
// The wire format is byte-identical to TcpChannel: every flush() cuts
// one [u32 LE length][payload] frame from the staged sends, and
// ingest() strips the same frames off the inbound stream into one
// contiguous de-framed buffer. Protocol code written against the
// blocking channel (handshake, OT phases, v3/reusable record IO) runs
// unmodified on top, as long as the driver only calls it once
// available() covers the bytes the next phase will recv — raw_recv
// here never blocks, it throws on underflow (a driver bug, not a peer
// behavior).
//
// Mirrors one load-bearing TcpChannel behavior: raw_recv() flushes
// pending sends first, because protocol phases rely on
// flush-before-recv to avoid deadlocking the peer.
//
// Server-side fault injection: with a net::FaultInjector attached,
// every raw_send/raw_recv consults it first — the op granularity
// FaultyChannel counts around a TcpChannel, so a plan's indices mean
// the same on both sides of the wire. An injected close or truncation
// throws net::PeerClosedError and leaves the channel dead (later ops
// throw too); the owning session fails through its normal error path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include <sys/uio.h>

#include "net/fault.hpp"
#include "proto/channel.hpp"

namespace maxel::evloop {

class BufferedChannel final : public proto::Channel {
 public:
  explicit BufferedChannel(std::size_t max_frame_bytes = 1u << 26)
      : max_frame_bytes_(max_frame_bytes) {}

  // --- inbound (event loop -> channel) ---
  // Appends raw socket bytes and de-frames complete frames. Throws
  // net::FramingError on a zero/oversize length or if the de-framed
  // backlog exceeds the safety cap (a peer flooding us).
  void ingest(const std::uint8_t* data, std::size_t n);

  // De-framed bytes ready for recv.
  [[nodiscard]] std::size_t available() const { return in_.size() - in_pos_; }
  [[nodiscard]] std::uint8_t peek_u8(std::size_t off) const;
  [[nodiscard]] std::uint32_t peek_u32(std::size_t off) const;
  [[nodiscard]] std::uint64_t peek_u64(std::size_t off) const;

  // Attaches a fault schedule (nullptr detaches). The injector is not
  // owned and may be shared across channels and threads.
  void set_fault_injector(net::FaultInjector* faults) { faults_ = faults; }

  // --- outbound (channel -> event loop) ---
  // Cuts a frame from the staged sends onto the output queue.
  void flush() override;

  [[nodiscard]] bool has_output() const { return !out_.empty(); }
  [[nodiscard]] std::size_t output_bytes() const;
  // Fills up to max_iov iovecs from the head of the output queue.
  std::size_t gather(struct iovec* iov, std::size_t max_iov) const;
  // Consumes n bytes from the head after a successful writev.
  void mark_written(std::size_t n);

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override;
  void raw_recv(std::uint8_t* data, std::size_t n) override;

 private:
  struct Segment {
    std::vector<std::uint8_t> bytes;
    std::size_t pos = 0;  // consumed prefix
  };

  // De-framed backlog cap: generous (several max frames) because one
  // session legitimately buffers a whole chunk, but finite so a hostile
  // peer can't balloon us.
  [[nodiscard]] std::size_t in_cap() const { return max_frame_bytes_ + (80u << 20); }
  void compact();
  void stage(const std::uint8_t* data, std::size_t n);
  void read_in(std::uint8_t* data, std::size_t n);
  void faulty_send(const std::uint8_t* data, std::size_t n);
  void faulty_recv(std::uint8_t* data, std::size_t n);

  std::size_t max_frame_bytes_;
  // Inbound: raw (not yet de-framed) then de-framed contiguous bytes.
  std::vector<std::uint8_t> raw_;
  std::size_t raw_pos_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t in_pos_ = 0;
  // Outbound: staged (unframed) sends, then framed segments.
  std::vector<std::uint8_t> staging_;
  std::deque<Segment> out_;
  net::FaultInjector* faults_ = nullptr;
  bool dropped_ = false;  // an injected close/truncation killed the link
};

}  // namespace maxel::evloop
