// Versioned session handshake for the remote secure-MAC service.
//
// The client opens every connection with a fixed-size hello naming the
// protocol version, garbling scheme, OT mode, operand bit width and a
// SHA-256 fingerprint of the circuit it will evaluate. The server
// either accepts — replying with the authoritative rounds-per-session
// (sessions are precomputed, so the server dictates their length) — or
// rejects with a typed code and a human-readable reason, then closes.
// Either way the client gets a definite answer: mismatches surface as
// HandshakeError, never as a hang or a garbled protocol stream.
//
// Version policy: the version field must match exactly. Anything that
// changes the session byte stream (frame layout, hello fields, round
// material order, OT messages) bumps kProtocolVersion.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "circuit/netlist.hpp"
#include "gc/scheme.hpp"
#include "net/error.hpp"
#include "proto/channel.hpp"
#include "proto/v3_records.hpp"

namespace maxel::net {

inline constexpr std::uint64_t kHelloMagic = 0x54454e4c4558414dull;  // "MAXELNET"
// v2: the hello's first reserved byte became the session-mode flag and
// stream mode added the chunk frames (see chunk_io.hpp) — a new session
// byte stream, so per the policy below the version bumps.
inline constexpr std::uint32_t kProtocolVersion = 2;
// v3: slim wire format (PRG-seeded garbler labels, packed select bits)
// plus the cross-session correlated-OT pool. A v3 hello is the same
// 56-byte record with version=3, immediately followed by the v3
// extension (client identity + optional resumption ticket). Servers
// that don't speak v3 reject with kVersionMismatch; the client then
// retries on a fresh connection with a v2 hello — old and new endpoints
// always interoperate. This server drains the extension frame before
// rejecting so the verdict survives the close (closing with it unread
// would reset the connection and could destroy the in-flight reject).
// A bare peer close during a v3 handshake is an ordinary retryable
// failure, never a fallback.
inline constexpr std::uint32_t kProtocolVersionV3 = 3;

enum class OtChoice : std::uint8_t { kBase = 0, kIknp = 1 };

// How the session body is delivered after the accept. kPrecomputed is
// the original per-round flow served from a stored session; kStream is
// the garble-while-transfer pipeline: the server garbles on the fly and
// ships fixed-size chunks of rounds (proto::chunk_io frames), with OT
// still run per round. The decoded outputs are bit-identical across
// modes for the same inputs — only delivery and server memory differ.
// kReusable serves evaluations off a circuit garbled once (the
// CRGC-style artifact of gc/reusable.hpp); it rides a version-3 hello
// (the extension's identity/ticket drive the same OT pool) and has a
// weaker garbler-privacy model — see docs/SECURITY_MODELS.md.
enum class SessionMode : std::uint8_t {
  kPrecomputed = 0,
  kStream = 1,
  kReusable = 2,
};

// Canonical SHA-256 fingerprint of a netlist (structure only — wire
// counts, input/output lists, gates, DFFs; the name is excluded). Both
// endpoints build their circuit locally and compare fingerprints, so
// any divergence in circuit construction across builds is caught at
// handshake time instead of as garbage outputs.
std::array<std::uint8_t, 32> circuit_fingerprint(const circuit::Circuit& c);

struct ClientHello {
  std::uint64_t magic = kHelloMagic;
  std::uint32_t version = kProtocolVersion;
  std::uint8_t scheme = 0;    // gc::Scheme
  std::uint8_t ot = 0;        // OtChoice
  std::uint8_t mode = 0;      // SessionMode (was reserved before v2)
  std::uint32_t bit_width = 0;
  std::uint32_t rounds = 0;   // requested; server replies with actual
  std::array<std::uint8_t, 32> circuit_hash{};
};

inline constexpr std::size_t kHelloWireSize = 8 + 4 + 1 + 1 + 2 + 4 + 4 + 32;

struct ServerAccept {
  RejectCode status = RejectCode::kOk;
  std::uint32_t rounds = 0;  // authoritative rounds per session
  std::string message;       // reject reason (empty on accept)
};

void send_hello(proto::Channel& ch, const ClientHello& h);
ClientHello recv_hello(proto::Channel& ch);
void send_accept(proto::Channel& ch, const ServerAccept& a);
ServerAccept recv_accept(proto::Channel& ch);

// Client side: sends the hello, reads the verdict; returns the
// negotiated rounds-per-session or throws HandshakeError on rejection.
std::uint32_t client_handshake(proto::Channel& ch, const ClientHello& hello);

// Server side: reads a hello and validates it against this server's
// configuration. On mismatch sends the reject record and throws
// HandshakeError; on success sends the accept carrying
// `rounds_per_session` and returns the validated hello.
struct ServerExpectation {
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::uint32_t bit_width = 0;
  std::array<std::uint8_t, 32> circuit_hash{};
  std::uint32_t rounds_per_session = 0;
  bool allow_stream = true;  // accept hellos asking for SessionMode::kStream
  bool allow_v3 = false;     // accept version-3 hellos (slim wire + OT pool)
  // Accept SessionMode::kReusable. Only meaningful with allow_v3: the
  // reusable flow needs the v3 hello extension, so a v2 hello asking
  // for it is rejected with kBadMode regardless of this flag.
  bool allow_reusable = false;
};
ClientHello server_handshake(proto::Channel& ch, const ServerExpectation& ex);

// --- Protocol v3 ---------------------------------------------------------

// Trailer a v3 client sends directly after its hello: a persistent
// client identity (random, generated once per client process/state) and,
// on reconnect, the resumption ticket the server issued last time. The
// identity keys the server's OT-pool registry; the ticket proves the
// client believes it holds pool state and names which pool.
struct HelloExtV3 {
  crypto::Block client_id{};
  bool has_ticket = false;
  proto::ResumptionTicket ticket{};
};

void send_hello_ext_v3(proto::Channel& ch, const HelloExtV3& ext);
HelloExtV3 recv_hello_ext_v3(proto::Channel& ch);

// Client side of a v3 handshake: sends the hello (version forced to 3,
// mode passed through — kPrecomputed for the slim-wire flow, kReusable
// for the reusable-artifact flow; kStream is not served over v3) plus
// the extension, reads the verdict. Returns the negotiated rounds or
// throws HandshakeError — kVersionMismatch means "server only speaks
// v2"; precomputed callers fall back by reconnecting with
// client_handshake, reusable callers surface it (there is no v2
// equivalent of the reusable flow).
std::uint32_t client_handshake_v3(proto::Channel& ch, ClientHello hello,
                                  const HelloExtV3& ext);

// Version-negotiating server handshake: accepts v2 hellos exactly like
// server_handshake, and v3 hellos when ex.allow_v3 (v3 serves the
// precomputed and reusable session modes). `ext` is set iff
// version == 3.
struct V23Handshake {
  ClientHello hello;
  std::uint32_t version = kProtocolVersion;
  std::optional<HelloExtV3> ext;
};
V23Handshake server_handshake_v23(proto::Channel& ch,
                                  const ServerExpectation& ex);

}  // namespace maxel::net
