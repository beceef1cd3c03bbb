// The serving front — the cloud host of Fig. 1: N single-threaded
// shards, each running an EvLoop with its own SO_REUSEPORT listener,
// serving every session mode through non-blocking EvSession machines
// instead of a thread per connection. 10k concurrent sessions cost 10k
// fds and state machines, not 10k stacks; shards = 1 is the sequential
// server.
//
// Shared state across shards: one SessionSpool, one V3PoolRegistry (one
// garbling delta), one read-only reusable artifact, one MetricsRegistry
// (the only ledger of serving facts), one producer thread keeping the
// spool between its watermarks (the software stand-in for the
// accelerator streaming fresh sessions up over PCIe). A lane that drops
// below its low watermark is refilled to the high one in batches of one
// session per GC core (GcCorePool::cores()), re-reading the watermarks
// between batches, so the producer never holds more than one core's
// worth of garbled sessions in memory. A freshly garbled batch is
// offered to sessions waiting on an empty lane before it is spooled, so
// a cold start's first table waits behind one batch's garble, not
// behind the spool put too (counted in spool_handoffs /
// spool_handoffs_v3). Per-client pool phases are
// serialized by Entry::ev_gate (see evloop/session.hpp), so two shards
// serving the same client never interleave wire phases.
//
// Accept discipline (per shard): the listener is registered
// edge-triggered and every readiness event drains accept4() until
// EAGAIN. EMFILE/ENFILE does not abort the shard — a reserved spare fd
// is closed to admit one more connection, which gets the typed
// kServerBusy reject and an immediate close, then the spare is
// reacquired (counted in admission_rejects).
//
// Idle eviction: one timer wheel per shard, one armed timer per
// connection, lazily re-armed against last-activity — 10k idle sessions
// cost a wheel scan per tick, not 10k poll timeouts. An eviction counts
// idle_timeouts + connection_errors.
//
// Fault injection: a non-empty fault_plan (net/fault.hpp grammar) wraps
// every session's channel in one FaultInjector that spans the broker's
// lifetime, so each event fires once across all connections and shards.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/gc_core_pool.hpp"
#include "net/fault.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "svc/broker_stats.hpp"
#include "svc/metrics.hpp"
#include "svc/session_spool.hpp"

#include "evloop/event_loop.hpp"
#include "evloop/session.hpp"

namespace maxel::evloop {

// A file descriptor held in reserve so an EMFILE-saturated accept loop
// can always free one slot, accept the waiting connection, and tell it
// "busy" instead of leaving it queued forever (or aborting). Exported
// for unit tests.
class SpareFd {
 public:
  SpareFd();
  ~SpareFd();
  SpareFd(const SpareFd&) = delete;
  SpareFd& operator=(const SpareFd&) = delete;

  [[nodiscard]] bool held() const { return fd_ >= 0; }
  void release();    // close the spare, freeing one fd slot
  void reacquire();  // best effort; held() may stay false under pressure

 private:
  int fd_ = -1;
};

struct EvBrokerConfig {
  std::string bind_addr = "0.0.0.0";
  std::uint16_t port = 7117;  // 0 picks an ephemeral port (EvBroker::port())
  std::size_t bits = 16;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t rounds_per_session = 128;
  std::uint64_t demo_seed = 7;

  std::size_t shards = 2;     // event-loop threads (>= 1)
  int listen_backlog = 1024;  // deep enough for 10k-client connect bursts

  std::string spool_dir;  // required
  std::size_t spool_low_watermark = 2;
  std::size_t spool_high_watermark = 8;
  std::size_t ram_cache_sessions = 4;
  std::size_t precompute_cores = 0;  // 0 = hardware concurrency

  std::uint64_t max_sessions = 0;  // stop after this many; 0 = forever
  bool verbose = false;
  std::size_t stream_chunk_rounds = 16;
  bool allow_stream = true;
  bool allow_v3 = true;
  bool allow_reusable = true;
  net::TcpOptions tcp;
  // Per-connection idle deadline; when 0, tcp.recv_timeout_ms bounds a
  // silent peer instead (same default the TCP transport enforces).
  int idle_timeout_ms = 0;
  // Deterministic server-side fault schedule (net/fault.hpp grammar);
  // empty = no injection. Throws std::invalid_argument when malformed.
  std::string fault_plan;
};

class EvBroker {
 public:
  explicit EvBroker(const EvBrokerConfig& cfg);
  ~EvBroker();
  EvBroker(const EvBroker&) = delete;
  EvBroker& operator=(const EvBroker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Spawns the shard threads + producer; returns after a graceful drain
  // (request_stop() or max_sessions): listeners stop accepting,
  // in-flight sessions run to completion (bounded by idle eviction),
  // then the loops exit. Safe to run on its own thread.
  void run();
  void request_stop();

  // Read back from the metrics registry, plus the spool's own ledger.
  [[nodiscard]] svc::BrokerStats stats() const;
  [[nodiscard]] svc::MetricsRegistry& metrics() { return metrics_; }
  // The one export — the `STATS` line and `--json FILE`: the registry
  // snapshot with the spool ledger nested under "spool".
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::uint64_t v3_outstanding_claims() const {
    return v3_reg_.outstanding_claims();
  }

  // Load-generation hooks: the in-process loadgen fabricates client OT
  // pools directly into the live registry and cans byte streams against
  // the reusable artifact + expectation (see evloop/loadgen.hpp).
  [[nodiscard]] net::V3PoolRegistry& v3_registry() { return v3_reg_; }
  [[nodiscard]] const net::ReusableServeContext* reusable_context() const {
    return reusable_ctx_ ? &*reusable_ctx_ : nullptr;
  }
  [[nodiscard]] const net::ServerExpectation& expectation() const {
    return expect_;
  }

 private:
  struct Shard;  // defined in ev_broker.cpp (EvLoop + conns + listener)
  struct EvConn;

  void shard_loop(Shard& sh);
  void accept_drain(Shard& sh);
  void add_conn(Shard& sh, int cfd);
  void on_io(Shard& sh, EvConn* c, bool r, bool w, bool err);
  void service_conn(Shard& sh, EvConn* c);
  bool write_drain(Shard& sh, EvConn& c);
  void arm_idle(Shard& sh, EvConn* c);
  void finish_conn(Shard& sh, EvConn* c, bool evicted_idle);
  void record_result(Shard& sh, EvConn& c, bool evicted_idle);
  // EMFILE path; false when even the freed spare couldn't admit one.
  bool busy_reject(Shard& sh);
  void begin_drain(Shard& sh);
  void producer_loop();
  proto::PrecomputedSession take_session_blocking();
  proto::PrecomputedSessionV3 take_v3_blocking();
  // Per lane, guarded by spool_mu_: how many takers are blocked on an
  // empty lane, and the fresh sessions the producer handed them instead
  // of spooling, so after a cold start the first table waits behind the
  // garble only, not behind the spool put as well.
  template <class S>
  struct Handoff {
    std::size_t waiting = 0;
    std::deque<S> fresh;
  };
  // Claims from the spool lane, else from the lane's hand-offs, else
  // blocks as one of the lane's waiters.
  template <class S, class TakeSpooled>
  S take_blocking(Handoff<S>& lane, svc::Counter& handoffs,
                  TakeSpooled take_spooled);
  // Hands up to one fresh session per blocked taker over, spools the rest.
  template <class S, class Put>
  void hand_off_then_spool(Handoff<S>& lane, std::vector<S>& batch, Put put);
  void ensure_reusable();
  [[nodiscard]] std::uint64_t idle_deadline_ms() const;

  // The serving schema: every fact the front reports is one metric,
  // resolved here once (a registry lookup takes its mutex and scans the
  // names) and updated through these handles only. Registration order
  // is the export's field order.
  struct Ledger {
    Ledger(svc::MetricsRegistry& m, std::size_t shards);
    // Completed sessions and what they moved.
    svc::Counter &sessions_served, &rounds_served, &stream_sessions_served,
        &v3_sessions_served, &reusable_sessions_served,
        &reusable_artifacts_sent, &v3_fresh_pools, &v3_ot_extended,
        &bytes_sent, &bytes_received;
    // Per-direction wire bytes, indexed by EvSession::Mode.
    std::array<svc::Counter*, EvSession::kModes> tx_bytes, rx_bytes;
    // Failed connections.
    svc::Counter &handshakes_rejected, &connection_errors, &idle_timeouts,
        &peer_disconnects, &admission_rejects;
    // Offline side: the producer, the spool takers, the reusable artifact.
    svc::Counter &sessions_precomputed, &spool_handoffs, &spool_handoffs_v3,
        &spool_empty_waits, &reusable_garbles, &reusable_artifact_loaded;
    svc::Gauge &peak_resident_tables, &open_fds, &ready_queue_depth,
        &faults_injected;
    std::vector<svc::Gauge*> shard_sessions;  // ev_shard<i>_sessions
    svc::Histogram &handshake_seconds, &transfer_seconds, &ot_seconds,
        &session_seconds, &first_table_seconds, &total_seconds;
  };

  // Declared first so that it is destroyed last: once every other member
  // is gone it hands the pages this broker's threads freed back to the OS.
  struct ReleaseFreedPages {
    ~ReleaseFreedPages();
  } release_freed_pages_;
  EvBrokerConfig cfg_;
  svc::MetricsRegistry metrics_;
  Ledger m_;
  std::unique_ptr<net::FaultInjector> faults_;  // null when fault_plan empty
  const net::ServedCircuit& served_;
  net::V3PoolRegistry v3_reg_;
  std::vector<std::vector<bool>> v3_g_bits_;
  net::ServerExpectation expect_;
  svc::SessionSpool spool_;
  core::GcCorePool pool_;
  EvServeContext serve_ctx_;
  std::vector<std::uint8_t> busy_reject_bytes_;

  std::optional<net::ReusableServeContext> reusable_ctx_;
  std::string reusable_key_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> producer_stop_{false};
  std::atomic<std::int64_t> open_conns_{0};

  std::mutex spool_mu_;
  std::condition_variable spool_cv_;
  Handoff<proto::PrecomputedSession> handoff_;
  Handoff<proto::PrecomputedSessionV3> handoff_v3_;
};

}  // namespace maxel::evloop
