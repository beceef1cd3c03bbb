// Protocol-v3 service plumbing shared by the serving front
// (evloop::EvSession), the client, and the loopback benches: the
// per-client OT-pool registry on the garbler side, the client's pool
// join — the one pool-reconciliation flow both pooled modes (v3 and
// reusable, net/reusable_service.hpp) run after a v3 handshake is
// accepted — and the client half of a v3 session.
//
// Cross-session amortization contract:
//   * The registry keys long-lived CorrelatedPoolSender instances by the
//     client identity from the hello extension. One garbling delta spans
//     the registry, so any spooled v3 session can be served from any
//     pool in it (checked via pool lineage).
//   * A connection is served from the existing pool iff the client
//     presents the ticket issued with it AND its materialized count
//     matches the server's — anything else (first contact, lost state,
//     desync from a death mid-extend) falls back to a fresh pool with a
//     new base OT. Fallback is always safe, never wrong answers.
//   * One session per client entry runs its setup/extend/claim phases
//     at a time (Entry::ev_gate), and every claim ends in consume
//     (success) or discard (any failure), so a retried or resumed
//     session can never see an OT index twice.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/reusable.hpp"
#include "gc/v3.hpp"
#include "net/handshake.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/reusable_io.hpp"
#include "proto/v3_records.hpp"
#include "proto/v3_session.hpp"

namespace maxel::net {

// Garbler-side registry of per-client correlated-OT pools. Thread-safe:
// the broker's shards serve concurrent sessions of the same client
// against one entry (wire phases serialized by the entry's gate, pad
// reads lock-free per the pool's own contract).
class V3PoolRegistry {
 public:
  explicit V3PoolRegistry(const crypto::Block& seed);

  struct Entry {
    // Guards the pointer fields below against concurrent registry
    // snapshots (outstanding_claims); held only for brief mutations.
    std::mutex io_mu;
    std::shared_ptr<ot::CorrelatedPoolSender> pool;  // null before base OT
    crypto::Block cookie{};
    // Serializes one client's setup/extend/claim wire phases. A shard
    // thread cannot block on a mutex another session on the same thread
    // holds, so sessions take this test-and-set instead and retry off a
    // timer on contention (see evloop/session.hpp).
    std::atomic<bool> ev_gate{false};
  };

  // Entry for a client identity, created on first sight.
  std::shared_ptr<Entry> entry_for(const crypto::Block& client_id);

  [[nodiscard]] const crypto::Block& delta() const { return delta_; }
  [[nodiscard]] std::uint64_t lineage() const { return lineage_; }
  crypto::Block next_block();
  std::uint64_t next_pool_id();
  [[nodiscard]] std::size_t clients() const;

  // Claims currently outstanding across every pool — the "no stuck
  // claims" invariant: once no session is in flight, this must be 0
  // (every claim ended in consume or discard, even under chaos).
  [[nodiscard]] std::uint64_t outstanding_claims() const;

 private:
  crypto::Block delta_;
  std::uint64_t lineage_ = 0;
  mutable std::mutex mu_;
  crypto::SystemRandom rng_;
  std::uint64_t next_pool_id_ = 1;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::shared_ptr<Entry>>
      entries_;
};

// Client-side identity + pool state. Outlives connections, retries, and
// run_client calls: share one instance across sessions to amortize the
// base OT down to (almost always) zero setup per session.
struct V3ClientState {
  crypto::Block client_id{};
  ot::CorrelatedPoolReceiver pool;
  std::optional<proto::ResumptionTicket> ticket;
  // Reusable-mode artifact cache: the view received (and SHA-verified)
  // on a previous reusable session. Offered back by hash in the setup
  // record so repeat sessions skip the artifact transfer entirely.
  std::optional<gc::ReusableView> reusable_view;
  std::array<std::uint8_t, 32> reusable_sha{};
};

std::shared_ptr<V3ClientState> make_v3_client_state(crypto::RandomSource& rng);

// What the client learned from joining the server's pool.
struct PoolJoin {
  proto::V3ServerSetup setup;  // the claim is [start_index, +claim_count)
  proto::ServerArtifactOffer artifact;  // reusable mode only
  bool fresh_pool = false;
};

// Client half of pool reconciliation, shared by the pooled modes: sends
// the V3ClientSetup (with `offer` stapled on in reusable mode, else
// null), reads the server's setup (and its offer), resets the pool and
// runs the base OT when the server demands a fresh one, runs any
// extension, receives the resumption ticket and checks it names this
// client and the server's pool and that the claim holds exactly `need`
// indices, then watermarks the claim and stores the ticket. Throws
// NetError on a failed check and V3FormatError/ReusableFormatError on
// hostile records.
PoolJoin join_pool(proto::Channel& ch, V3ClientState& st, std::uint64_t need,
                   crypto::RandomSource& rng,
                   const proto::ClientArtifactOffer* offer);

struct V3EvalOutcome {
  std::vector<bool> decoded;     // final-round outputs
  bool fresh_pool = false;
  std::uint64_t setup_bytes = 0; // wire bytes before the first round frame
};

// Client half of a v3 session (server half: evloop::EvSession), run
// after client_handshake_v3 was accepted. evaluator_bits[r] holds round
// r's true input bits.
V3EvalOutcome eval_v3_session(
    proto::Channel& ch, const circuit::Circuit& circ,
    const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng);

}  // namespace maxel::net
