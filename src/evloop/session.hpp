// Non-blocking session state machine: one EvSession per accepted
// connection, advanced by buffered bytes instead of owning a thread.
// It is the server half of every session mode — the serving front
// (evloop::EvBroker) drives it, and so can any harness that shuttles
// bytes: the machine owns no sockets, it takes bytes in (on_bytes) and
// leaves bytes out on channel().
//
// The protocol is the client's counterpart (net/client.hpp): the same
// handshake, the same four session modes, the same OT phase cadence.
// Every recv of the protocol is a parked state with a known byte need,
// and the machine resumes once the inbound buffer covers it. Sends go
// through the BufferedChannel and are drained by the owner via writev.
//
// Pool-gate discipline (v3/reusable): one client's pool wire phases
// must not interleave. A single-threaded shard cannot block on a mutex
// another of its own sessions holds, so sessions serialize on
// Entry::ev_gate (an atomic test-and-set), re-arming via a short timer
// on contention; io_mu is still taken for the brief pointer mutations
// so V3PoolRegistry::outstanding_claims stays race-free. Every claim
// ends in consume (success) or discard (failure/teardown).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "evloop/buffered_channel.hpp"
#include "gc/garble.hpp"
#include "net/demo_inputs.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/fault.hpp"
#include "net/server_stats.hpp"
#include "net/v3_service.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/precompute.hpp"

namespace maxel::evloop {

// Everything a shard shares across its sessions. The registry and the
// reusable context are process-wide (shared across shards); the
// take_session / take_v3 callbacks front the spool.
struct EvServeContext {
  const circuit::Circuit* circ = nullptr;
  net::ServerExpectation expect;
  net::V3PoolRegistry* reg = nullptr;
  const net::ReusableServeContext* reusable = nullptr;  // null: mode off
  std::size_t bits = 16;
  std::size_t rounds = 128;
  std::uint64_t demo_seed = 7;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t stream_chunk_rounds = 16;
  std::function<proto::PrecomputedSession()> take_session;
  std::function<proto::PrecomputedSessionV3()> take_v3;
  // Server-side fault schedule applied to every session's channel;
  // null (the default) costs one branch per channel op.
  net::FaultInjector* faults = nullptr;
};

// Failure taxonomy: the owning connection maps each kind onto the
// broker's error metrics.
enum class EvError : std::uint8_t {
  kNone = 0,
  kHandshake,   // typed reject sent (counts handshakes_rejected)
  kPeerClosed,  // EOF mid-session (counts peer_disconnects)
  kNet,         // transport/protocol error
  kOther,       // anything else (logic/corruption)
};

class EvSession {
 public:
  enum class Mode : std::uint8_t { kPre, kStream, kV3, kReusable };
  static constexpr std::size_t kModes = 4;

  explicit EvSession(const EvServeContext& ctx);
  ~EvSession();
  EvSession(const EvSession&) = delete;
  EvSession& operator=(const EvSession&) = delete;

  // Feeds raw socket bytes and advances as far as they allow. All
  // protocol errors are absorbed into the failed() state.
  void on_bytes(const std::uint8_t* data, std::size_t n);
  // Orderly EOF from the peer. Normal after done(); an error before.
  void on_peer_eof();
  // Retries the pool gate (call from a timer while wants_gate_retry()).
  void on_gate_retry();

  [[nodiscard]] BufferedChannel& channel() { return ch_; }
  [[nodiscard]] bool done() const { return state_ == St::kDone; }
  [[nodiscard]] bool failed() const { return state_ == St::kFailed; }
  [[nodiscard]] EvError error() const { return err_; }
  [[nodiscard]] const std::string& error_text() const { return err_text_; }
  // True while the session holds buffered input but lost the per-client
  // pool gate to a concurrent session; re-poke via on_gate_retry().
  [[nodiscard]] bool wants_gate_retry() const { return wants_gate_retry_; }

  // Valid once done(): the per-session stats block and the serve wall
  // time. Its ot_seconds / transfer_seconds sum the session's own OT
  // steps and material sends (precomputed: a round's tables, labels and
  // OT phase-1 message), not the waits between them.
  [[nodiscard]] const net::ServerStats& stats() const { return stats_; }
  [[nodiscard]] double session_seconds() const { return session_seconds_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] const char* mode_name() const;

 private:
  enum class St : std::uint8_t {
    kHello,
    kOtSetup2,    // IKNP setup step 2 (precomputed/stream)
    kOtSetup4,    // IKNP setup step 4
    kPreOt,       // precomputed: waiting the round's OT phase-2 bytes
    kStrOt,       // stream: waiting the round's OT phase-2 bytes
    kV3Gate,      // v3: client setup buffered, waiting the pool gate
    kReGate,      // reusable: likewise
    kPoolBase2,   // pool base OT step 2 (v3/reusable)
    kPoolBase4,   // pool base OT step 4
    kPoolExtend,  // pool extension columns
    kV3Round,     // v3: waiting a round's derandomization bits
    kReDbits,     // reusable: waiting the whole-session d bits
    kDone,
    kFailed,
  };
  using Clock = std::chrono::steady_clock;

  void advance();
  void step();
  [[nodiscard]] std::size_t current_need() const;
  [[nodiscard]] std::size_t hello_need() const;
  [[nodiscard]] std::size_t ot_need() const;

  void finish_handshake();
  void init_precomputed();
  void init_stream();
  void begin_pre_round();
  void start_stream_chunk();
  void pool_gate_step();   // kV3Gate / kReGate action once the gate is won
  // Resume-or-fresh decision, extension size and claim start for the
  // client's pool, from the materialized count its setup record reports.
  void reconcile_pool(std::uint64_t client_extended);
  void begin_pool_phases();  // base OT / extend / claim, as needed
  void v3_setup_part_a();
  void re_setup_part_a();
  void finish_pool_setup();  // claim + ticket (+artifact), releases gate
  void v3_send_round_frame();
  void v3_round_step();
  void re_dbits_step();
  void finalize(Mode done_mode);
  void fail(EvError kind, const std::string& what);
  void release_gate();
  void teardown();

  const EvServeContext* ctx_;
  BufferedChannel ch_;
  crypto::SystemRandom rng_;  // declared before members that reference it
  net::DemoInputStream a_inputs_;
  St state_ = St::kHello;
  Mode mode_ = Mode::kPre;

  net::ClientHello hello_{};
  std::optional<net::HelloExtV3> ext_;
  bool v3_ = false;
  bool iknp_ = false;
  std::size_t n_eval_ = 0;
  std::size_t r_ = 0;  // rounds completed in the current mode's flow

  // Precomputed mode.
  std::unique_ptr<proto::PrecomputedGarblerParty> party_;

  // Stream mode (inline garbling — no producer thread to block on).
  std::unique_ptr<gc::CircuitGarbler> garbler_;
  std::unique_ptr<ot::BaseOtSender> base_ot_;
  std::unique_ptr<ot::IknpSender> iknp_ot_;
  ot::OtSender* ot_ = nullptr;
  std::vector<std::vector<std::pair<crypto::Block, crypto::Block>>>
      chunk_pairs_;
  std::size_t round_in_chunk_ = 0;
  std::size_t next_round_ = 0;  // next round index to garble
  bool first_chunk_sent_ = false;

  // v3 / reusable (shared pool plumbing).
  proto::PrecomputedSessionV3 v3_session_;
  std::shared_ptr<net::V3PoolRegistry::Entry> entry_;
  std::shared_ptr<ot::CorrelatedPoolSender> pool_;
  crypto::Block cookie_{};
  ot::PoolClaim claim_{};
  bool claim_open_ = false;
  bool gate_held_ = false;
  bool wants_gate_retry_ = false;
  bool fresh_pool_ = false;
  bool artifact_sent_ = false;
  std::uint64_t need_total_ = 0;
  std::uint64_t extend_count_ = 0;
  std::uint64_t claim_start_expected_ = 0;
  std::uint64_t round_idx_ = 0;  // next pool index for v3 rounds

  net::ServerStats stats_;
  double session_seconds_ = 0;
  EvError err_ = EvError::kNone;
  std::string err_text_;
  Clock::time_point t_accept_ = Clock::now();
  Clock::time_point t_session_{};
};

}  // namespace maxel::evloop
