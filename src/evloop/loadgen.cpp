#include "evloop/loadgen.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "crypto/rng.hpp"
#include "evloop/buffered_channel.hpp"
#include "evloop/event_loop.hpp"
#include "evloop/poller.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/reusable_io.hpp"
#include "proto/v3_records.hpp"

namespace maxel::evloop {

namespace {

std::uint64_t vm_hwm_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::uint64_t kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

std::size_t open_fd_count() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n >= 3 ? n - 3 : 0;  // ".", "..", the opendir fd itself
}

}  // namespace

std::uint64_t raise_nofile_limit() {
  struct rlimit rl {};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  return static_cast<std::uint64_t>(rl.rlim_cur);
}

ReusableLoadgen::ReusableLoadgen(net::V3PoolRegistry& reg,
                                 const net::ReusableServeContext& rctx,
                                 const net::ServerExpectation& expect)
    : reg_(&reg), rctx_(&rctx), expect_(expect) {}

void ReusableLoadgen::prepare(const LoadgenConfig& cfg) {
  ids_.clear();
  const std::size_t k = std::max<std::size_t>(1, cfg.clients);
  const std::uint64_t n_in = rctx_->artifact.view.n_evaluator_inputs;
  const std::uint64_t need = static_cast<std::uint64_t>(rctx_->rounds) * n_in;
  // Round-robin assignment: identity i serves ceil or floor of the split.
  const std::size_t per_client = (cfg.total_sessions + k - 1) / k;
  // Retries claim again; budget a healthy margin so a retried session
  // can never hit an under-provisioned pool mid-sweep.
  const std::uint64_t sessions_budget =
      static_cast<std::uint64_t>(per_client) +
      static_cast<std::uint64_t>(cfg.max_retries);
  crypto::SystemRandom rng;

  for (std::size_t i = 0; i < k; ++i) {
    const crypto::Block client_id = rng.next_block();
    auto send_pool = std::make_shared<ot::CorrelatedPoolSender>(
        reg_->delta(), reg_->next_pool_id());
    ot::CorrelatedPoolReceiver recv_pool;
    auto [c_ch, s_ch] = proto::MemoryChannel::create_pair();
    ot::pool_base_setup(*send_pool, recv_pool, *s_ch, *c_ch, rng, rng);
    const std::uint64_t target = sessions_budget * need;
    while (send_pool->extended() < target) {
      const std::size_t batch = static_cast<std::size_t>(
          std::min<std::uint64_t>(target - send_pool->extended(),
                                  ot::kMaxPoolExtend));
      // MemoryChannel has no blocking: the receiver's columns must be
      // queued before the sender reads them.
      recv_pool.extend(*c_ch, batch);
      send_pool->extend(*s_ch, batch);
    }

    crypto::Block cookie;
    {
      auto entry = reg_->entry_for(client_id);
      const std::lock_guard<std::mutex> io(entry->io_mu);
      entry->pool = send_pool;
      entry->cookie = reg_->next_block();
      cookie = entry->cookie;
    }

    BufferedChannel bc;
    net::ClientHello hello;
    hello.version = net::kProtocolVersionV3;
    hello.scheme = static_cast<std::uint8_t>(expect_.scheme);
    hello.ot = static_cast<std::uint8_t>(net::OtChoice::kBase);
    hello.mode = static_cast<std::uint8_t>(net::SessionMode::kReusable);
    hello.bit_width = expect_.bit_width;
    hello.rounds = expect_.rounds_per_session;
    hello.circuit_hash = expect_.circuit_hash;
    net::send_hello(bc, hello);
    net::HelloExtV3 ext;
    ext.client_id = client_id;
    ext.has_ticket = true;
    ext.ticket =
        proto::ResumptionTicket{send_pool->pool_id(), client_id, cookie};
    net::send_hello_ext_v3(bc, ext);
    proto::send_client_setup(bc,
                             proto::V3ClientSetup{send_pool->extended(), 0});
    proto::ClientArtifactOffer have;
    have.has_artifact = true;  // skip the artifact transfer: steady state
    have.sha = rctx_->view_sha;
    proto::send_client_offer(bc, have);
    bc.send_bits(std::vector<bool>(static_cast<std::size_t>(need), false));
    bc.flush();

    Identity id;
    id.blob.resize(bc.output_bytes());
    struct iovec iov[64];
    std::size_t off = 0;
    const std::size_t niov = bc.gather(iov, 64);
    for (std::size_t j = 0; j < niov; ++j) {
      std::memcpy(id.blob.data() + off, iov[j].iov_base, iov[j].iov_len);
      off += iov[j].iov_len;
    }
    id.blob.resize(off);
    ids_.push_back(std::move(id));
  }
}

LoadgenResult ReusableLoadgen::run(const LoadgenConfig& cfg) {
  prepare(cfg);
  raise_nofile_limit();

  struct Conn {
    int fd = -1;
    std::size_t identity = 0;
    int attempts = 0;
    bool connected = false;
    std::size_t wr_off = 0;
    std::vector<std::uint8_t> head;  // first reply bytes (frame + status)
    std::uint64_t start_ms = 0;
  };

  LoadgenResult res;
  std::vector<double> lat_ms;
  lat_ms.reserve(cfg.total_sessions);
  Poller poller;
  std::unordered_map<int, Conn> conns;
  std::size_t launched = 0;
  std::size_t next_identity = 0;
  std::vector<std::size_t> retry_queue;  // identity indices to redo

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.port);
  if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
    res.failed = cfg.total_sessions;
    return res;
  }

  const auto t0 = std::chrono::steady_clock::now();

  auto finish = [&](int fd, bool ok, bool retryable, int attempts,
                    std::size_t identity, std::uint64_t start_ms) {
    poller.remove(fd);
    ::close(fd);
    conns.erase(fd);
    if (ok) {
      ++res.ok;
      lat_ms.push_back(
          static_cast<double>(EvLoop::now_ms() - start_ms));
    } else if (retryable && attempts < cfg.max_retries) {
      ++res.retries;
      retry_queue.push_back(identity);
    } else {
      ++res.failed;
    }
  };

  auto start_conn = [&](std::size_t identity, int attempts) -> bool {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int rc = ::connect(
        fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(fd);
      return false;
    }
    Conn c;
    c.fd = fd;
    c.identity = identity;
    c.attempts = attempts;
    c.connected = rc == 0;
    c.start_ms = EvLoop::now_ms();
    conns.emplace(fd, c);
    poller.set(fd, true, true);
    return true;
  };

  std::vector<PollEvent> events;
  std::uint64_t last_deadline_scan = EvLoop::now_ms();
  std::size_t sessions_open_total = 0;

  while (res.ok + res.failed < cfg.total_sessions) {
    // Keep the window full: retries first, then fresh sessions.
    while (conns.size() < cfg.window &&
           (launched < cfg.total_sessions || !retry_queue.empty())) {
      std::size_t identity;
      int attempts = 0;
      if (!retry_queue.empty()) {
        identity = retry_queue.back();
        retry_queue.pop_back();
        attempts = 1;  // conservatively count the retry against the cap
      } else {
        identity = next_identity;
        next_identity = (next_identity + 1) % ids_.size();
        ++launched;
      }
      if (!start_conn(identity, attempts)) {
        ++res.failed;
        continue;
      }
      ++sessions_open_total;
    }
    res.peak_inflight = std::max(res.peak_inflight, conns.size());
    if (conns.size() > cfg.window / 2)
      res.peak_open_fds = std::max(res.peak_open_fds, open_fd_count());

    events.clear();
    poller.wait(50, events);

    for (const PollEvent& ev : events) {
      auto it = conns.find(ev.fd);
      if (it == conns.end()) continue;
      Conn& c = it->second;
      if (!c.connected && (ev.writable || ev.error)) {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        if (soerr != 0) {
          finish(c.fd, false, /*retryable=*/true, c.attempts, c.identity,
                 c.start_ms);
          continue;
        }
        c.connected = true;
      }
      const std::vector<std::uint8_t>& blob = ids_[c.identity].blob;
      bool closed = false;
      if (c.connected && c.wr_off < blob.size() && (ev.writable || ev.error)) {
        while (c.wr_off < blob.size()) {
          const ssize_t w =
              ::send(c.fd, blob.data() + c.wr_off, blob.size() - c.wr_off,
                     MSG_NOSIGNAL);
          if (w > 0) {
            c.wr_off += static_cast<std::size_t>(w);
            continue;
          }
          if (w < 0 && errno == EINTR) continue;
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          finish(c.fd, false, true, c.attempts, c.identity, c.start_ms);
          closed = true;
          break;
        }
        if (!closed && c.wr_off == blob.size())
          poller.set(c.fd, true, false);  // all sent: read side only
      }
      if (closed) continue;
      if (ev.readable || ev.error) {
        for (;;) {
          std::uint8_t buf[64 * 1024];
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            if (c.head.size() < 8)
              c.head.insert(c.head.end(), buf,
                            buf + std::min<std::size_t>(
                                      static_cast<std::size_t>(n),
                                      8 - c.head.size()));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          // EOF (or reset): the session is over. The verdict is the
          // first reply frame's status word: [u32 len][u32 status ...].
          std::uint32_t status = 0xffffffffu;
          if (c.head.size() >= 8) std::memcpy(&status, c.head.data() + 4, 4);
          const bool ok = n == 0 && status == 0;
          const bool retryable =
              status == static_cast<std::uint32_t>(
                            net::RejectCode::kServerBusy);
          finish(c.fd, ok, retryable, c.attempts, c.identity, c.start_ms);
          break;
        }
      }
    }

    // Deadline sweep, amortized: a session that made no progress within
    // io_timeout_ms is failed (not retried — the server is wedged).
    const std::uint64_t now = EvLoop::now_ms();
    if (now - last_deadline_scan >= 200) {
      last_deadline_scan = now;
      std::vector<int> expired;
      for (const auto& kv : conns)
        if (now - kv.second.start_ms >=
            static_cast<std::uint64_t>(cfg.io_timeout_ms))
          expired.push_back(kv.first);
      for (int fd : expired) {
        const Conn& c = conns.at(fd);
        finish(fd, false, false, c.attempts, c.identity, c.start_ms);
      }
    }
  }

  res.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  std::sort(lat_ms.begin(), lat_ms.end());
  if (!lat_ms.empty()) {
    res.p50_ms = lat_ms[lat_ms.size() / 2];
    res.p99_ms = lat_ms[std::min(lat_ms.size() - 1,
                                 (lat_ms.size() * 99) / 100)];
  }
  res.peak_rss_kb = vm_hwm_kb();
  (void)sessions_open_total;
  return res;
}

}  // namespace maxel::evloop
