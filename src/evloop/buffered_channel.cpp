#include "evloop/buffered_channel.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/error.hpp"

namespace maxel::evloop {

void BufferedChannel::compact() {
  // Reclaim consumed prefixes once they dominate the buffer, so a
  // long-lived session doesn't grow without bound.
  if (in_pos_ > 4096 && in_pos_ * 2 > in_.size()) {
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_pos_));
    in_pos_ = 0;
  }
  if (raw_pos_ > 4096 && raw_pos_ * 2 > raw_.size()) {
    raw_.erase(raw_.begin(),
               raw_.begin() + static_cast<std::ptrdiff_t>(raw_pos_));
    raw_pos_ = 0;
  }
}

void BufferedChannel::ingest(const std::uint8_t* data, std::size_t n) {
  raw_.insert(raw_.end(), data, data + n);
  // Strip complete frames into the de-framed buffer.
  while (raw_.size() - raw_pos_ >= 4) {
    std::uint32_t len;
    std::memcpy(&len, raw_.data() + raw_pos_, 4);
    if (len == 0 || len > max_frame_bytes_)
      throw net::FramingError("bad frame length: " + std::to_string(len));
    if (raw_.size() - raw_pos_ < 4 + static_cast<std::size_t>(len)) break;
    const std::uint8_t* payload = raw_.data() + raw_pos_ + 4;
    in_.insert(in_.end(), payload, payload + len);
    raw_pos_ += 4 + static_cast<std::size_t>(len);
  }
  if (available() > in_cap())
    throw net::FramingError("inbound backlog over cap: " +
                            std::to_string(available()) + " bytes");
  compact();
}

std::uint8_t BufferedChannel::peek_u8(std::size_t off) const {
  if (off >= available())
    throw std::logic_error("BufferedChannel::peek_u8 past available bytes");
  return in_[in_pos_ + off];
}

std::uint32_t BufferedChannel::peek_u32(std::size_t off) const {
  if (off + 4 > available())
    throw std::logic_error("BufferedChannel::peek_u32 past available bytes");
  std::uint32_t v;
  std::memcpy(&v, in_.data() + in_pos_ + off, 4);
  return v;
}

std::uint64_t BufferedChannel::peek_u64(std::size_t off) const {
  if (off + 8 > available())
    throw std::logic_error("BufferedChannel::peek_u64 past available bytes");
  std::uint64_t v;
  std::memcpy(&v, in_.data() + in_pos_ + off, 8);
  return v;
}

void BufferedChannel::flush() {
  if (staging_.empty()) return;
  Segment header;
  header.bytes.resize(4);
  const std::uint32_t len = static_cast<std::uint32_t>(staging_.size());
  std::memcpy(header.bytes.data(), &len, 4);
  out_.push_back(std::move(header));
  Segment payload;
  payload.bytes.swap(staging_);
  out_.push_back(std::move(payload));
}

std::size_t BufferedChannel::output_bytes() const {
  std::size_t total = 0;
  for (const auto& s : out_) total += s.bytes.size() - s.pos;
  return total;
}

std::size_t BufferedChannel::gather(struct iovec* iov,
                                    std::size_t max_iov) const {
  std::size_t n = 0;
  for (const auto& s : out_) {
    if (n == max_iov) break;
    iov[n].iov_base =
        const_cast<std::uint8_t*>(s.bytes.data() + s.pos);
    iov[n].iov_len = s.bytes.size() - s.pos;
    ++n;
  }
  return n;
}

void BufferedChannel::mark_written(std::size_t n) {
  while (n > 0) {
    if (out_.empty())
      throw std::logic_error("BufferedChannel::mark_written past output");
    Segment& s = out_.front();
    const std::size_t left = s.bytes.size() - s.pos;
    if (n < left) {
      s.pos += n;
      return;
    }
    n -= left;
    out_.pop_front();
  }
}

void BufferedChannel::stage(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  if (staging_.size() + n > max_frame_bytes_) flush();
  if (n >= max_frame_bytes_)
    throw std::logic_error("BufferedChannel: send larger than max frame");
  staging_.insert(staging_.end(), data, data + n);
}

void BufferedChannel::read_in(std::uint8_t* data, std::size_t n) {
  if (n > available())
    throw std::logic_error(
        "BufferedChannel: recv underflow (driver advanced a session "
        "without enough buffered bytes)");
  std::memcpy(data, in_.data() + in_pos_, n);
  in_pos_ += n;
  compact();
}

void BufferedChannel::raw_send(const std::uint8_t* data, std::size_t n) {
  if (faults_ != nullptr) {
    faulty_send(data, n);
    return;
  }
  stage(data, n);
}

void BufferedChannel::raw_recv(std::uint8_t* data, std::size_t n) {
  // Mirror TcpChannel: a recv is a phase boundary, everything staged
  // must be on the wire (here: queued for the event loop) first.
  flush();
  if (faults_ != nullptr) {
    faulty_recv(data, n);
    return;
  }
  read_in(data, n);
}

// Same fault semantics as net::FaultyChannel, with "the transport" being
// this channel's staged output: bytes staged before the fatal op still
// go out (as a closing TcpChannel would flush them), nothing after it.
void BufferedChannel::faulty_send(const std::uint8_t* data, std::size_t n) {
  if (dropped_) throw net::PeerClosedError("fault: send after injected close");
  const net::FaultInjector::Action a = faults_->on_send();
  switch (a.kind) {
    case net::FaultKind::kClose:
      dropped_ = true;
      throw net::PeerClosedError("fault: injected close at send op");
    case net::FaultKind::kTruncate:
      stage(data, n / 2);
      flush();
      dropped_ = true;
      throw net::PeerClosedError("fault: injected truncation at send op");
    case net::FaultKind::kFlip: {
      std::vector<std::uint8_t> mangled(data, data + n);
      net::fault_flip_bit(mangled.data(), n, a.rand);
      stage(mangled.data(), mangled.size());
      return;
    }
    case net::FaultKind::kSplit: {
      const std::size_t cut = net::fault_split_point(n, a.rand);
      stage(data, cut);
      flush();
      stage(data + cut, n - cut);
      return;
    }
    case net::FaultKind::kStall:
      // Sleeps on the shard thread: every session on the shard stalls,
      // which is what a stalled server process looks like to clients.
      std::this_thread::sleep_for(std::chrono::milliseconds(a.param));
      break;
    default:
      break;
  }
  stage(data, n);
}

void BufferedChannel::faulty_recv(std::uint8_t* data, std::size_t n) {
  if (dropped_) throw net::PeerClosedError("fault: recv after injected close");
  const net::FaultInjector::Action a = faults_->on_recv();
  switch (a.kind) {
    case net::FaultKind::kClose:
      dropped_ = true;
      throw net::PeerClosedError("fault: injected close at recv op");
    case net::FaultKind::kFlip:
      read_in(data, n);
      net::fault_flip_bit(data, n, a.rand);
      return;
    case net::FaultKind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(a.param));
      break;
    default:
      break;
  }
  read_in(data, n);
}

}  // namespace maxel::evloop
