#include "evloop/ev_broker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include <errno.h>
#include <fcntl.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "crypto/rng.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "proto/reusable_io.hpp"

namespace maxel::evloop {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int accept_nonblock(int lfd) {
#ifdef __linux__
  return ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(lfd, nullptr, nullptr);
  if (fd >= 0) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return fd;
#endif
}

}  // namespace

// --- SpareFd --------------------------------------------------------------

SpareFd::SpareFd() { reacquire(); }

SpareFd::~SpareFd() { release(); }

void SpareFd::release() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SpareFd::reacquire() {
  if (fd_ < 0) fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

// --- connection / shard state ---------------------------------------------

struct EvBroker::EvConn {
  explicit EvConn(const EvServeContext& ctx) : session(ctx) {}
  int fd = -1;
  EvSession session;
  std::uint64_t last_activity = 0;
  std::uint64_t idle_timer = 0;  // timer-wheel handle, 0 = none armed
  std::uint64_t gate_timer = 0;  // pool-gate retry handle
  bool want_write = false;
  bool write_dead = false;  // peer reset our sends; output undeliverable
};

struct EvBroker::Shard {
  std::size_t index = 0;
  EvLoop loop;
  std::unique_ptr<net::TcpListener> listener;
  SpareFd spare;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<EvConn>> conns;
  bool draining = false;
  bool listener_on = false;
};

// --- construction ----------------------------------------------------------

EvBroker::Ledger::Ledger(svc::MetricsRegistry& m, std::size_t shards)
    : sessions_served(m.counter("sessions_served")),
      rounds_served(m.counter("rounds_served")),
      stream_sessions_served(m.counter("stream_sessions_served")),
      v3_sessions_served(m.counter("v3_sessions_served")),
      reusable_sessions_served(m.counter("reusable_sessions_served")),
      reusable_artifacts_sent(m.counter("reusable_artifacts_sent")),
      v3_fresh_pools(m.counter("v3_fresh_pools")),
      v3_ot_extended(m.counter("v3_ot_extended")),
      bytes_sent(m.counter("bytes_sent")),
      bytes_received(m.counter("bytes_received")),
      tx_bytes{&m.counter("net_tx_bytes_precomputed"),
               &m.counter("net_tx_bytes_stream"),
               &m.counter("net_tx_bytes_v3"),
               &m.counter("net_tx_bytes_reusable")},
      rx_bytes{&m.counter("net_rx_bytes_precomputed"),
               &m.counter("net_rx_bytes_stream"),
               &m.counter("net_rx_bytes_v3"),
               &m.counter("net_rx_bytes_reusable")},
      handshakes_rejected(m.counter("handshakes_rejected")),
      connection_errors(m.counter("connection_errors")),
      idle_timeouts(m.counter("idle_timeouts")),
      peer_disconnects(m.counter("peer_disconnects")),
      admission_rejects(m.counter("admission_rejects")),
      sessions_precomputed(m.counter("sessions_precomputed")),
      spool_handoffs(m.counter("spool_handoffs")),
      spool_handoffs_v3(m.counter("spool_handoffs_v3")),
      spool_empty_waits(m.counter("spool_empty_waits")),
      reusable_garbles(m.counter("reusable_garbles")),
      reusable_artifact_loaded(m.counter("reusable_artifact_loaded")),
      peak_resident_tables(m.gauge("peak_resident_tables")),
      open_fds(m.gauge("ev_open_fds")),
      ready_queue_depth(m.gauge("ev_ready_queue_depth")),
      faults_injected(m.gauge("faults_injected")),
      handshake_seconds(m.histogram("handshake_seconds")),
      transfer_seconds(m.histogram("transfer_seconds")),
      ot_seconds(m.histogram("ot_seconds")),
      session_seconds(m.histogram("session_seconds")),
      first_table_seconds(m.histogram("first_table_seconds")),
      total_seconds(m.histogram("total_seconds")) {
  static_assert(EvSession::kModes == 4, "one tx/rx counter pair per mode");
  for (std::size_t i = 0; i < shards; ++i)
    shard_sessions.push_back(
        &m.gauge("ev_shard" + std::to_string(i) + "_sessions"));
}

EvBroker::EvBroker(const EvBrokerConfig& cfg)
    : cfg_(cfg),
      m_(metrics_, std::max<std::size_t>(cfg.shards, 1)),
      served_(net::served_circuit(cfg.bits)),
      v3_reg_(crypto::SystemRandom().next_block()),
      spool_(svc::SpoolConfig{cfg.spool_dir, cfg.ram_cache_sessions, true}),
      pool_(cfg.precompute_cores, crypto::SystemRandom().next_block()) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (!cfg_.fault_plan.empty())
    faults_ = std::make_unique<net::FaultInjector>(
        net::FaultPlan::parse(cfg_.fault_plan));
  if (cfg_.idle_timeout_ms > 0) {
    cfg_.tcp.recv_timeout_ms = cfg_.idle_timeout_ms;
    cfg_.tcp.send_timeout_ms = cfg_.idle_timeout_ms;
  }
  expect_.scheme = cfg_.scheme;
  expect_.bit_width = static_cast<std::uint32_t>(cfg_.bits);
  expect_.circuit_hash = served_.fingerprint;
  expect_.rounds_per_session =
      static_cast<std::uint32_t>(cfg_.rounds_per_session);
  expect_.allow_stream = cfg_.allow_stream;
  expect_.allow_v3 = cfg_.allow_v3;
  expect_.allow_reusable = cfg_.allow_v3 && cfg_.allow_reusable;
  net::DemoInputStream a_inputs(cfg_.demo_seed, net::kGarblerStream,
                                cfg_.bits);
  v3_g_bits_.resize(cfg_.rounds_per_session);
  for (auto& row : v3_g_bits_) row = a_inputs.next_bits();
  if (cfg_.spool_high_watermark < cfg_.spool_low_watermark)
    cfg_.spool_high_watermark = cfg_.spool_low_watermark;
  if (expect_.allow_reusable) ensure_reusable();

  serve_ctx_.circ = &served_.circ;
  serve_ctx_.expect = expect_;
  serve_ctx_.reg = &v3_reg_;
  serve_ctx_.reusable = reusable_ctx_ ? &*reusable_ctx_ : nullptr;
  serve_ctx_.bits = cfg_.bits;
  serve_ctx_.rounds = cfg_.rounds_per_session;
  serve_ctx_.demo_seed = cfg_.demo_seed;
  serve_ctx_.scheme = cfg_.scheme;
  serve_ctx_.stream_chunk_rounds = cfg_.stream_chunk_rounds;
  serve_ctx_.take_session = [this] { return take_session_blocking(); };
  serve_ctx_.take_v3 = [this] { return take_v3_blocking(); };
  serve_ctx_.faults = faults_.get();

  // The busy verdict, framed once: the EMFILE path sends it raw with a
  // single syscall, no channel object needed on a dying fd.
  {
    BufferedChannel bc;
    net::send_accept(bc,
                     net::ServerAccept{net::RejectCode::kServerBusy, 0,
                                       "fd limit reached, retry later"});
    bc.flush();
    struct iovec iov[16];
    const std::size_t n = bc.gather(iov, 16);
    for (std::size_t i = 0; i < n; ++i) {
      const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
      busy_reject_bytes_.insert(busy_reject_bytes_.end(), p,
                                p + iov[i].iov_len);
    }
  }

  // Listeners up front so port() is valid before run(). Shard 0 may bind
  // an ephemeral port; the rest join it via SO_REUSEPORT, giving the
  // kernel a per-shard accept queue to spread connections over.
  net::ListenOptions lo;
  lo.backlog = cfg_.listen_backlog;
  lo.reuseport = cfg_.shards > 1;
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    const std::uint16_t p = (i == 0) ? cfg_.port : port_;
    sh->listener = std::make_unique<net::TcpListener>(p, cfg_.bind_addr, lo);
    if (i == 0) port_ = sh->listener->port();
    // The listener must be non-blocking: accept4's SOCK_NONBLOCK flag
    // shapes the accepted socket, not the accept call itself, and an
    // edge-triggered drain loop re-accepts until EAGAIN — on a blocking
    // listener that second call would freeze the whole shard.
    const int lfl = ::fcntl(sh->listener->fd(), F_GETFL, 0);
    if (lfl >= 0)
      ::fcntl(sh->listener->fd(), F_SETFL, lfl | O_NONBLOCK);
    shards_.push_back(std::move(sh));
  }
}

EvBroker::~EvBroker() { request_stop(); }

// The producer, shard and run threads each allocate from their own malloc
// arena, and glibc keeps what they free there. A thread of the next
// broker in the same process may get a different arena, so a process
// that runs brokers one after another would otherwise keep each one's
// spool cache and session batches resident on top of the next one's.
EvBroker::ReleaseFreedPages::~ReleaseFreedPages() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
}

void EvBroker::ensure_reusable() {
  reusable_key_ =
      svc::reusable_artifact_key(expect_.circuit_hash, cfg_.bits);
  if (auto bytes = spool_.fetch_reusable(reusable_key_)) {
    try {
      gc::ReusableCircuit rc =
          proto::parse_reusable(bytes->data(), bytes->size());
      if (rc.view.fingerprint == expect_.circuit_hash &&
          rc.view.bit_width == cfg_.bits) {
        reusable_ctx_ = net::make_reusable_context(
            served_.circ, std::move(rc),
            static_cast<std::uint32_t>(cfg_.rounds_per_session),
            cfg_.demo_seed);
        m_.reusable_artifact_loaded.inc();
        return;
      }
    } catch (const std::exception&) {
      // Checksum passed but the blob no longer parses; re-garble below.
    }
  }
  crypto::SystemRandom garble_rng;
  gc::ReusableCircuit rc = net::garble_reusable(
      served_.circ, static_cast<std::uint32_t>(cfg_.bits), garble_rng);
  spool_.put_reusable(reusable_key_, proto::serialize_reusable(rc));
  reusable_ctx_ = net::make_reusable_context(
      served_.circ, std::move(rc),
      static_cast<std::uint32_t>(cfg_.rounds_per_session), cfg_.demo_seed);
  m_.reusable_garbles.inc();
}

// --- spool plumbing --------------------------------------------------------

template <class S, class TakeSpooled>
S EvBroker::take_blocking(Handoff<S>& lane, svc::Counter& handoffs,
                          TakeSpooled take_spooled) {
  std::unique_lock<std::mutex> lock(spool_mu_, std::defer_lock);
  bool waiting = false;  // counted in lane.waiting while blocked
  for (;;) {
    std::optional<S> s = take_spooled();
    if (s) spool_cv_.notify_all();  // the producer may refill now
    lock.lock();
    if (!s && !lane.fresh.empty()) {
      s = std::move(lane.fresh.front());
      lane.fresh.pop_front();
      handoffs.inc();
    }
    if (s || producer_stop_.load(std::memory_order_relaxed)) {
      if (waiting) --lane.waiting;
      if (!s) throw net::NetError("evbroker stopping: spool drained");
      return std::move(*s);
    }
    if (!waiting) ++lane.waiting;
    waiting = true;
    m_.spool_empty_waits.inc();
    spool_cv_.wait_for(lock, std::chrono::milliseconds(20));
    lock.unlock();
  }
}

proto::PrecomputedSession EvBroker::take_session_blocking() {
  return take_blocking(handoff_, m_.spool_handoffs,
                       [this] { return spool_.take(); });
}

proto::PrecomputedSessionV3 EvBroker::take_v3_blocking() {
  return take_blocking(handoff_v3_, m_.spool_handoffs_v3,
                       [this] { return spool_.take_v3(v3_reg_.lineage()); });
}

template <class S, class Put>
void EvBroker::hand_off_then_spool(Handoff<S>& lane, std::vector<S>& batch,
                                   Put put) {
  std::size_t i = 0;
  {
    const std::lock_guard<std::mutex> lock(spool_mu_);
    for (; i < batch.size() && lane.fresh.size() < lane.waiting; ++i)
      lane.fresh.push_back(std::move(batch[i]));
  }
  if (i > 0) spool_cv_.notify_all();
  for (; i < batch.size(); ++i) put(batch[i]);
}

void EvBroker::producer_loop() {
  // A lane starts refilling below the low watermark and keeps at it up
  // to the high one, one batch of pool_.cores() sessions at a time. The
  // watermarks are re-read between batches, so waiting takers get fresh
  // sessions after each batch and at most one batch is held in memory.
  const std::size_t low = cfg_.spool_low_watermark;
  const std::size_t high = cfg_.spool_high_watermark;
  bool refill = false;
  bool refill_v3 = false;
  while (!producer_stop_.load(std::memory_order_relaxed)) {
    const std::size_t ready = spool_.ready();
    const std::size_t ready_v3 = cfg_.allow_v3 ? spool_.ready_v3() : high;
    refill = ready < high && (refill || ready < low);
    refill_v3 = ready_v3 < high && (refill_v3 || ready_v3 < low);
    if (!refill && !refill_v3) {
      std::unique_lock<std::mutex> lock(spool_mu_);
      spool_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    std::size_t garbled = 0;
    if (refill) {
      const std::size_t batch = std::min(pool_.cores(), high - ready);
      std::vector<proto::PrecomputedSession> fresh(batch);
      pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
        fresh[item] = proto::garble_session(served_.circ, cfg_.scheme,
                                            cfg_.rounds_per_session,
                                            pool_.core_rng(core));
      });
      garbled += batch;
      hand_off_then_spool(handoff_, fresh,
                          [&](auto& s) { spool_.put(std::move(s)); });
    }
    if (refill_v3) {
      const std::size_t batch = std::min(pool_.cores(), high - ready_v3);
      std::vector<proto::PrecomputedSessionV3> fresh(batch);
      pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
        auto& rng = pool_.core_rng(core);
        fresh[item] = proto::garble_session_v3(
            served_.circ, served_.v3, v3_g_bits_, v3_reg_.delta(),
            rng.next_block(), rng);
      });
      garbled += batch;
      hand_off_then_spool(handoff_v3_, fresh,
                          [&](auto& s) { spool_.put_v3(std::move(s)); });
    }
    m_.sessions_precomputed.inc(garbled);
    spool_cv_.notify_all();
  }
}

// --- shard event handling ---------------------------------------------------

std::uint64_t EvBroker::idle_deadline_ms() const {
  if (cfg_.idle_timeout_ms > 0)
    return static_cast<std::uint64_t>(cfg_.idle_timeout_ms);
  if (cfg_.tcp.recv_timeout_ms > 0)
    return static_cast<std::uint64_t>(cfg_.tcp.recv_timeout_ms);
  return 30'000;
}

void EvBroker::shard_loop(Shard& sh) {
  const int lfd = sh.listener->fd();
  sh.loop.add_fd(
      lfd, true, false,
      [this, &sh](bool r, bool, bool) {
        if (r) accept_drain(sh);
      },
      /*edge=*/true);
  sh.listener_on = true;
  if (stop_.load(std::memory_order_relaxed)) begin_drain(sh);
  sh.loop.run();
  // Defensive sweep: a forced stop may leave connections behind; their
  // session destructors discard open claims and release gates.
  for (auto& kv : sh.conns) ::close(kv.first);
  sh.conns.clear();
}

void EvBroker::accept_drain(Shard& sh) {
  m_.ready_queue_depth.set(
      static_cast<std::int64_t>(sh.loop.last_batch_size()));
  // Edge-triggered listener: one readiness event may stand for many
  // queued connections, so drain until EAGAIN or we'd lose events.
  for (;;) {
    if (sh.draining) return;
    const int cfd = accept_nonblock(sh.listener->fd());
    if (cfd >= 0) {
      add_conn(sh, cfd);
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EMFILE || errno == ENFILE) {
      if (!busy_reject(sh)) return;
      continue;
    }
    return;  // transient accept failure; the next readiness event retries
  }
}

bool EvBroker::busy_reject(Shard& sh) {
  // Out of fd slots. Closing the reserve frees exactly one, which admits
  // the connection at the head of the queue long enough to deliver the
  // typed kServerBusy verdict — the client backs off and retries instead
  // of timing out against a full, frozen accept queue.
  sh.spare.release();
  const int cfd = accept_nonblock(sh.listener->fd());
  bool admitted = false;
  if (cfd >= 0) {
    ::send(cfd, busy_reject_bytes_.data(), busy_reject_bytes_.size(),
           MSG_DONTWAIT | MSG_NOSIGNAL);
    ::shutdown(cfd, SHUT_WR);
    ::close(cfd);
    m_.admission_rejects.inc();
    admitted = true;
  }
  sh.spare.reacquire();
  return admitted;
}

void EvBroker::add_conn(Shard& sh, int cfd) {
  int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<EvConn>(serve_ctx_);
  EvConn* c = conn.get();
  c->fd = cfd;
  c->last_activity = EvLoop::now_ms();
  sh.conns.emplace(cfd, std::move(conn));
  m_.open_fds.set(open_conns_.fetch_add(1, std::memory_order_relaxed) + 1);
  m_.shard_sessions[sh.index]->set(
      static_cast<std::int64_t>(sh.conns.size()));
  sh.loop.add_fd(cfd, true, false, [this, &sh, c](bool r, bool w, bool err) {
    on_io(sh, c, r, w, err);
  });
  arm_idle(sh, c);
}

void EvBroker::on_io(Shard& sh, EvConn* c, bool r, bool w, bool err) {
  m_.ready_queue_depth.set(
      static_cast<std::int64_t>(sh.loop.last_batch_size()));
  (void)w;  // service_conn drains output regardless of which edge woke us
  if (r || err) {
    for (;;) {
      std::uint8_t buf[64 * 1024];
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->last_activity = EvLoop::now_ms();
        c->session.on_bytes(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        c->session.on_peer_eof();
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // ECONNRESET-class: same taxonomy as a mid-session hangup.
      c->session.on_peer_eof();
      break;
    }
  }
  service_conn(sh, c);
}

bool EvBroker::write_drain(Shard& sh, EvConn& c) {
  BufferedChannel& ch = c.session.channel();
  while (ch.has_output()) {
    struct iovec iov[16];
    const std::size_t n = ch.gather(iov, 16);
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(n);
    const ssize_t w = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      c.last_activity = EvLoop::now_ms();
      ch.mark_written(static_cast<std::size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.write_dead = true;
    break;
  }
  const bool want = ch.has_output() && !c.write_dead;
  if (want != c.want_write) {
    c.want_write = want;
    sh.loop.set_interest(c.fd, true, want);
  }
  if (c.write_dead) {
    if (!c.session.done() && !c.session.failed())
      c.session.on_peer_eof();  // record the taxonomy before closing
    return false;
  }
  if (!ch.has_output()) c.session.on_output_drained();
  return true;
}

void EvBroker::service_conn(Shard& sh, EvConn* c) {
  if (!write_drain(sh, *c)) {
    finish_conn(sh, c, false);
    return;
  }
  if (c->session.wants_gate_retry() && c->gate_timer == 0) {
    // Lost the per-client pool gate to a concurrent session (possibly on
    // this very thread): park on the wheel and re-poke shortly.
    c->gate_timer = sh.loop.arm_timer(16, [this, &sh, c] {
      c->gate_timer = 0;
      c->session.on_gate_retry();
      service_conn(sh, c);
    });
    return;
  }
  if ((c->session.done() || c->session.failed()) &&
      !c->session.channel().has_output())
    finish_conn(sh, c, false);
}

void EvBroker::arm_idle(Shard& sh, EvConn* c) {
  const std::uint64_t now = EvLoop::now_ms();
  const std::uint64_t due = c->last_activity + idle_deadline_ms();
  c->idle_timer =
      sh.loop.arm_timer(due > now ? due - now : 1, [this, &sh, c] {
        c->idle_timer = 0;
        // Lazy re-arm: activity since arming pushes the deadline out
        // instead of resetting a timer on every byte.
        if (EvLoop::now_ms() - c->last_activity >= idle_deadline_ms())
          finish_conn(sh, c, /*evicted_idle=*/true);
        else
          arm_idle(sh, c);
      });
}

void EvBroker::finish_conn(Shard& sh, EvConn* c, bool evicted_idle) {
  if (c->idle_timer != 0) {
    sh.loop.cancel_timer(c->idle_timer);
    c->idle_timer = 0;
  }
  if (c->gate_timer != 0) {
    sh.loop.cancel_timer(c->gate_timer);
    c->gate_timer = 0;
  }
  record_result(sh, *c, evicted_idle);
  const int fd = c->fd;
  sh.loop.remove_fd(fd);
  sh.loop.defer_close(fd);
  sh.conns.erase(fd);
  m_.open_fds.set(open_conns_.fetch_sub(1, std::memory_order_relaxed) - 1);
  m_.shard_sessions[sh.index]->set(
      static_cast<std::int64_t>(sh.conns.size()));
  if (sh.draining && sh.conns.empty()) sh.loop.stop();
}

void EvBroker::record_result(Shard& sh, EvConn& c, bool evicted_idle) {
  EvSession& s = c.session;
  if (s.done()) {
    const net::ServerStats& st = s.stats();
    m_.handshake_seconds.observe(st.handshake_seconds);
    m_.transfer_seconds.observe(st.transfer_seconds);
    m_.ot_seconds.observe(st.ot_seconds);
    m_.session_seconds.observe(s.session_seconds());
    m_.rounds_served.inc(st.rounds_served);
    m_.stream_sessions_served.inc(st.stream_sessions_served);
    m_.v3_sessions_served.inc(st.v3_sessions_served);
    m_.reusable_sessions_served.inc(st.reusable_sessions_served);
    m_.reusable_artifacts_sent.inc(st.reusable_artifacts_sent);
    m_.v3_fresh_pools.inc(st.v3_fresh_pools);
    m_.v3_ot_extended.inc(st.v3_ot_extended);
    m_.bytes_sent.inc(st.bytes_sent);
    m_.bytes_received.inc(st.bytes_received);
    const auto mode = static_cast<std::size_t>(s.mode());
    m_.tx_bytes[mode]->inc(st.bytes_sent);
    m_.rx_bytes[mode]->inc(st.bytes_received);
    m_.peak_resident_tables.raise_to(
        static_cast<std::int64_t>(st.peak_resident_tables));
    if (s.mode() == EvSession::Mode::kStream)
      m_.first_table_seconds.observe(st.first_table_seconds);
    if (s.mode() == EvSession::Mode::kReusable)
      spool_.add_reusable_evaluations(reusable_key_,
                                      cfg_.rounds_per_session);
    const std::uint64_t total = m_.sessions_served.inc();
    if (cfg_.verbose)
      std::fprintf(stderr,
                   "[evbroker] shard %zu served session %llu (%s)\n",
                   sh.index, static_cast<unsigned long long>(total),
                   s.mode_name());
    if (cfg_.max_sessions != 0 && total >= cfg_.max_sessions) request_stop();
  } else if (!evicted_idle && s.error() == EvError::kHandshake) {
    m_.handshakes_rejected.inc();
  } else {
    m_.connection_errors.inc();
    if (evicted_idle)
      m_.idle_timeouts.inc();
    else if (s.error() == EvError::kPeerClosed)
      m_.peer_disconnects.inc();
  }
  if (cfg_.verbose && !s.done()) {
    if (evicted_idle)
      std::fprintf(stderr, "[evbroker] shard %zu evicted idle peer\n",
                   sh.index);
    else
      std::fprintf(stderr, "[evbroker] shard %zu session error: %s\n",
                   sh.index, s.error_text().c_str());
  }
  if (faults_)
    m_.faults_injected.set(static_cast<std::int64_t>(faults_->faults_fired()));
}

// --- lifecycle --------------------------------------------------------------

void EvBroker::begin_drain(Shard& sh) {
  if (sh.draining) return;
  sh.draining = true;
  if (sh.listener_on) {
    sh.loop.remove_fd(sh.listener->fd());
    sh.listener_on = false;
  }
  if (sh.conns.empty()) sh.loop.stop();
}

void EvBroker::request_stop() {
  if (stop_.exchange(true, std::memory_order_relaxed)) return;
  for (auto& sh : shards_) {
    Shard* s = sh.get();
    s->loop.post([this, s] { begin_drain(*s); });
  }
}

void EvBroker::run() {
  const auto t0 = Clock::now();
  producer_stop_.store(false, std::memory_order_relaxed);
  std::thread producer([this] { producer_loop(); });
  for (auto& sh : shards_)
    sh->thread = std::thread([this, s = sh.get()] { shard_loop(*s); });
  for (auto& sh : shards_) sh->thread.join();
  // The producer outlives the shards so an in-flight session that still
  // needed a spool refill during drain could get one.
  producer_stop_.store(true, std::memory_order_relaxed);
  spool_cv_.notify_all();
  producer.join();
  // A hand-off whose taker found spooled stock first is spooled, not lost.
  for (auto& s : handoff_.fresh) spool_.put(std::move(s));
  for (auto& s : handoff_v3_.fresh) spool_.put_v3(std::move(s));
  handoff_.fresh.clear();
  handoff_v3_.fresh.clear();
  m_.total_seconds.observe(seconds_since(t0));
}

svc::BrokerStats EvBroker::stats() const {
  const auto sum = [](const svc::Histogram& h) {
    return h.snapshot().sum_seconds;
  };
  svc::BrokerStats st;
  net::ServerStats& s = st.server;
  s.sessions_served = m_.sessions_served.value();
  s.rounds_served = m_.rounds_served.value();
  s.handshakes_rejected = m_.handshakes_rejected.value();
  s.connection_errors = m_.connection_errors.value();
  s.idle_timeouts = m_.idle_timeouts.value();
  s.bytes_sent = m_.bytes_sent.value();
  s.bytes_received = m_.bytes_received.value();
  s.sessions_precomputed = m_.sessions_precomputed.value();
  s.stream_sessions_served = m_.stream_sessions_served.value();
  s.v3_sessions_served = m_.v3_sessions_served.value();
  s.reusable_sessions_served = m_.reusable_sessions_served.value();
  s.reusable_artifacts_sent = m_.reusable_artifacts_sent.value();
  s.reusable_garbles = m_.reusable_garbles.value();
  s.v3_fresh_pools = m_.v3_fresh_pools.value();
  s.v3_ot_extended = m_.v3_ot_extended.value();
  s.peak_resident_tables =
      static_cast<std::uint64_t>(m_.peak_resident_tables.value());
  s.handshake_seconds = sum(m_.handshake_seconds);
  s.transfer_seconds = sum(m_.transfer_seconds);
  s.ot_seconds = sum(m_.ot_seconds);
  s.first_table_seconds = sum(m_.first_table_seconds);
  s.total_seconds = sum(m_.total_seconds);
  st.admission_rejects = m_.admission_rejects.value();
  st.spool = spool_.stats();
  return st;
}

std::string EvBroker::to_json() const {
  std::string json = metrics_.to_json();
  json.pop_back();  // reopen the object; the schema is never empty
  return json + ",\"spool\":" + spool_.stats().to_json() + "}";
}

}  // namespace maxel::evloop
