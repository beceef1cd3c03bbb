// Reusable-mode session flows: garble once, serve unbounded sessions.
//
// The garbler builds a ReusableServeContext exactly once per
// (circuit fingerprint, bit width): the CRGC-style artifact of
// gc/reusable.hpp, its serialized evaluator view with SHA-256, and the
// demo-stream garbler inputs pre-masked for the whole session. Every
// session after that is a single exchange on top of the shared v3
// OT-pool registry:
//
//   client  V3ClientSetup (pool state) + ClientArtifactOffer
//           (cached-artifact hash)
//   server  V3ServerSetup (fresh/resume verdict, claim window) +
//           ServerArtifactOffer (artifact size: 0 when the client
//           cache is current)
//           [base OT + pool extend as needed] ticket [artifact view]
//   client  d bits — one per (round, evaluator input): the true input
//           bit XOR the pool choice bit at the claimed index
//           (derandomized bit-OT, input-independent to the server; the
//           same record a v3 session sends, proto::send_dbits)
//   server  z bits (pad lsb ^ d ^ input flip) + the masked garbler
//           bits for every round
//   client  evaluates all rounds locally — plaintext table lookups,
//           zero AES, zero further wire traffic.
//
// The setup exchange is v3's own pool join (net::join_pool) with the
// offers stapled on, so pool discipline is v3's: one claim per session
// under the per-client pool gate, ended by consume on success or
// discard on any failure, so no OT index ever backs two sessions and no
// claim can stay stuck. The server half runs in evloop::EvSession.
// Security model: weaker than the single-use modes — see
// gc/reusable.hpp and docs/SECURITY_MODELS.md before serving real data.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/reusable.hpp"
#include "net/v3_service.hpp"
#include "proto/channel.hpp"

namespace maxel::net {

// Garbles `c` once and stamps the transport identity (fingerprint via
// net::circuit_fingerprint, bit width as given) into the view.
gc::ReusableCircuit garble_reusable(const circuit::Circuit& c,
                                    std::uint32_t bit_width,
                                    crypto::RandomSource& rng);

// Everything the serve path needs, derived once from an artifact (fresh
// from garble_reusable or reloaded from the broker spool).
struct ReusableServeContext {
  gc::ReusableCircuit artifact;
  std::vector<std::uint8_t> view_bytes;       // MXREUS1 view framing
  std::array<std::uint8_t, 32> view_sha{};    // SHA-256 of view_bytes
  std::uint32_t rounds = 0;                   // rounds per session
  // Demo-stream garbler inputs for all rounds, already masked with the
  // garbler input flips (v ^ r). The demo stream restarts from the seed
  // every session, so this is session-invariant and computed once.
  std::vector<bool> masked_garbler_bits;
};

// Builds the serve context: serializes + hashes the view and pre-masks
// `rounds` worth of demo garbler inputs under `demo_seed`. Throws
// std::invalid_argument if the artifact does not match the circuit
// shape or the session would overrun the OT-pool claim cap.
ReusableServeContext make_reusable_context(const circuit::Circuit& c,
                                           gc::ReusableCircuit artifact,
                                           std::uint32_t rounds,
                                           std::uint64_t demo_seed);

struct ReusableEvalOutcome : V3EvalOutcome {
  bool artifact_received = false;
};

// Client half, run after client_handshake_v3 with SessionMode::kReusable
// was accepted. evaluator_bits[r] holds round r's true input bits. The
// artifact view is taken from st.reusable_view when the server confirms
// the cached hash, else received, SHA-verified, fingerprint-checked
// against `served`, and cached into `st` for the next session.
ReusableEvalOutcome eval_reusable_session(
    proto::Channel& ch, const ServedCircuit& served,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng);

}  // namespace maxel::net
