// Test harness for the serving front: an evloop::EvBroker on 127.0.0.1
// over a private spool directory (svc::TempSpoolDir), running on its own
// thread, plus the byte shuttle that drives a lone EvSession over one
// TCP connection.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>

#include "evloop/ev_broker.hpp"
#include "evloop/session.hpp"
#include "net/client.hpp"
#include "net/server_stats.hpp"
#include "net/tcp_channel.hpp"
#include "svc/session_spool.hpp"

namespace maxel::test {

// Loopback, ephemeral port, one shard (the sequential configuration),
// a small spool and quiet logs; tests override what they exercise.
inline evloop::EvBrokerConfig broker_config(const svc::TempSpoolDir& spool,
                                            std::size_t bits,
                                            std::size_t rounds) {
  evloop::EvBrokerConfig cfg;
  cfg.bind_addr = "127.0.0.1";
  cfg.port = 0;
  cfg.bits = bits;
  cfg.rounds_per_session = rounds;
  cfg.spool_dir = spool.path();
  cfg.shards = 1;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 2;
  cfg.precompute_cores = 2;
  cfg.verbose = false;
  cfg.tcp.recv_timeout_ms = 10'000;
  return cfg;
}

inline net::ClientConfig quiet_client(std::uint16_t port, std::size_t bits) {
  net::ClientConfig cfg;
  cfg.port = port;
  cfg.bits = bits;
  cfg.verbose = false;
  cfg.tcp.recv_timeout_ms = 10'000;
  cfg.tcp.connect_attempts = 5;
  cfg.tcp.connect_backoff_ms = 20;
  return cfg;
}

// An EvBroker serving on its own thread from construction. join()
// waits for a self-drain (max_sessions); stop() requests one first. The
// destructor stops, so a failed assertion never leaves a joinable
// thread behind.
class LiveBroker {
 public:
  explicit LiveBroker(const evloop::EvBrokerConfig& cfg)
      : broker_(cfg), thread_([this] { broker_.run(); }) {}
  ~LiveBroker() { stop(); }
  LiveBroker(const LiveBroker&) = delete;
  LiveBroker& operator=(const LiveBroker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return broker_.port(); }
  evloop::EvBroker* operator->() { return &broker_; }
  evloop::EvBroker& operator*() { return broker_; }

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  void stop() {
    broker_.request_stop();
    join();
  }

 private:
  evloop::EvBroker broker_;
  std::thread thread_;
};

// Sessions a broker took per lane: spool claims plus the sessions its
// producer handed straight to a waiting session before spooling them.
inline std::uint64_t sessions_taken(evloop::EvBroker& b) {
  return b.stats().spool.sessions_claimed +
         static_cast<std::uint64_t>(
             b.metrics().counter("spool_handoffs").value());
}
inline std::uint64_t v3_sessions_taken(evloop::EvBroker& b) {
  return b.stats().spool.v3_claimed +
         static_cast<std::uint64_t>(
             b.metrics().counter("spool_handoffs_v3").value());
}

// One connection served by a lone EvSession: accepts on `lst`, feeds
// the machine at most `feed` bytes per call (1 = the harshest readiness
// schedule an event loop can deliver) and drains its output after every
// call, then lingers for the client's EOF so the final frames are not
// reset away.
struct ShuttleResult {
  bool done = false;
  bool failed = false;
  evloop::EvError error = evloop::EvError::kNone;
  std::string mode;
  std::string err;
  net::ServerStats stats;
};

inline bool shuttle_drain(int fd, evloop::BufferedChannel& ch) {
  while (ch.has_output()) {
    struct iovec iov[16];
    const std::size_t n = ch.gather(iov, 16);
    if (n == 0) break;
    const ssize_t w = ::writev(fd, iov, static_cast<int>(n));
    if (w <= 0) return false;
    ch.mark_written(static_cast<std::size_t>(w));
  }
  return true;
}

inline ShuttleResult shuttle_serve_one(net::TcpListener& lst,
                                       const evloop::EvServeContext& ctx,
                                       std::size_t feed = 1) {
  ShuttleResult res;
  const int cfd = ::accept(lst.fd(), nullptr, nullptr);
  if (cfd < 0) {
    res.err = "accept failed";
    return res;
  }
  evloop::EvSession s(ctx);
  std::uint8_t buf[4096];
  while (!s.done() && !s.failed()) {
    const ssize_t n = ::recv(cfd, buf, sizeof buf, 0);
    if (n <= 0) {
      s.on_peer_eof();
      break;
    }
    for (ssize_t i = 0; i < n && !s.done() && !s.failed();) {
      const std::size_t step =
          std::min(feed, static_cast<std::size_t>(n - i));
      s.on_bytes(buf + i, step);
      i += static_cast<ssize_t>(step);
      if (!shuttle_drain(cfd, s.channel())) break;
      // A lost pool gate would park here; a lone session wins at once.
      while (s.wants_gate_retry()) {
        s.on_gate_retry();
        if (!shuttle_drain(cfd, s.channel())) break;
      }
    }
  }
  shuttle_drain(cfd, s.channel());
  ::shutdown(cfd, SHUT_WR);
  char tmp[256];
  while (::recv(cfd, tmp, sizeof tmp, 0) > 0) {
  }
  ::close(cfd);
  res.done = s.done();
  res.failed = s.failed();
  res.error = s.error();
  res.mode = s.mode_name();
  res.err = s.error_text();
  if (s.done()) res.stats = s.stats();
  return res;
}

}  // namespace maxel::test
