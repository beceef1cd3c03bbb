// Evaluator-side network client: the remote, memory-constrained party
// of Fig. 1.
//
// Connects to a maxel server, handshakes (version / scheme / bit width /
// circuit fingerprint), then runs the session: per round it receives the
// garbled tables and label material, obtains its input labels through OT
// (base or IKNP), and evaluates with gc::StreamingEvaluator as the
// tables arrive — the client's label working set is the circuit's live
// width, never the whole wire count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "gc/scheme.hpp"
#include "net/handshake.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "proto/channel.hpp"

namespace maxel::net {

// Session-level recovery: on any retryable NetError (see
// net_error_is_retryable) the client tears the whole session down —
// channel, OT state, half-evaluated tables — and re-runs handshake +
// OT + eval against a *fresh* garbled session. Wire labels are
// single-use, so resuming a partially evaluated session is never safe;
// retry is always from scratch.
struct SessionRetryPolicy {
  int max_attempts = 1;  // total attempts; 1 = fail on the first error
  int backoff_ms = 100;  // wait after the 1st failure; doubles per retry
  int backoff_max_ms = 2'000;     // cap on the doubled wait
  std::uint32_t jitter_pct = 20;  // +-% applied to each wait
  std::uint64_t jitter_seed = 1;  // deterministic jitter (replayable)
};

// Wait before the (attempt+1)-th try, attempt counted from 1:
// min(backoff_ms * 2^(attempt-1), backoff_max_ms), jittered by up to
// +-jitter_pct percent from the seeded mixer. Pure function of the
// policy — exposed so tests can assert the exact schedule.
[[nodiscard]] std::uint64_t retry_backoff_ms(const SessionRetryPolicy& policy,
                                             int attempt);

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7117;
  std::size_t bits = 16;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  OtChoice ot = OtChoice::kIknp;
  // kStream: chunked delivery. kReusable: garble-once artifact over a
  // v3 hello (no v2 fallback; weaker garbler privacy — see
  // docs/SECURITY_MODELS.md).
  SessionMode mode = SessionMode::kPrecomputed;
  // Preferred protocol version. kProtocolVersionV3 = slim wire +
  // cross-session OT pool (precomputed mode only); a server that only
  // speaks v2 rejects with kVersionMismatch and the client
  // transparently redials with a v2 hello. 2 = classic flow.
  std::uint32_t protocol = kProtocolVersion;
  // Cross-session client identity + OT pool. Share one instance across
  // run_client calls to amortize the base OT; when null, a fresh state
  // is created per call (it still spans that call's retries).
  std::shared_ptr<V3ClientState> v3_state;
  std::uint32_t rounds_hint = 0;  // requested; the server's reply wins
  std::uint64_t demo_seed = 7;    // must match the server's (demo_inputs.hpp)
  bool check = true;  // verify the decoded MAC against the plaintext reference
  bool verbose = true;
  TcpOptions tcp;
  SessionRetryPolicy retry;

  // Deterministic fault schedule (fault.hpp grammar) injected between
  // the client and the socket; empty = no injection. Spans all retry
  // attempts of one run_client call, so each event fires once.
  std::string fault_plan;

  // Test seam: when set, each attempt gets its channel from here
  // instead of TcpChannel::connect (fault_plan is then ignored — the
  // factory composes its own wrappers).
  std::function<std::unique_ptr<proto::Channel>()> channel_factory;
};

struct ClientStats {
  std::uint32_t rounds = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t output_value = 0;  // decoded final-round accumulator
  bool checked = false;
  bool verified = false;
  std::size_t working_set_bytes = 0;  // streaming evaluator peak label memory
  std::uint64_t chunks_received = 0;  // stream mode: wire chunks consumed
  std::uint32_t protocol_used = kProtocolVersion;  // after any v2 fallback
  std::uint64_t setup_bytes = 0;  // v3: wire bytes before the first frame
  bool pool_resumed = false;      // v3: served without a fresh base OT
  double handshake_seconds = 0;
  double transfer_seconds = 0;  // table + label receive
  double ot_seconds = 0;        // OT setup + per-round label OT
  double eval_seconds = 0;      // streaming evaluation + decode
  double first_table_seconds = 0;  // connect -> first round material in hand
  double total_seconds = 0;        // across all attempts, waits included
  std::uint32_t attempts = 1;      // session attempts, including the last
  std::uint64_t retry_wait_ms = 0;  // total backoff slept between attempts

  [[nodiscard]] std::string to_json() const;
};

// Runs a session against the server, retrying per cfg.retry (each
// attempt is a fresh connection, handshake, OT setup, and garbled
// session). Throws net::NetError (or a subclass) once the attempts are
// exhausted or the failure is non-retryable; a completed-but-wrong
// final result is reported via stats.verified, not an exception.
ClientStats run_client(const ClientConfig& cfg);

}  // namespace maxel::net
