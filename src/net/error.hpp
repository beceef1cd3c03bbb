// Typed error surface of the network subsystem.
//
// Every failure mode a remote peer can induce — refused/unreachable
// host, silence past the deadline, mid-frame hangup, malformed framing,
// protocol-level rejection — maps to a distinct exception type, so
// callers (the server's accept loop, the client's retry logic, tests)
// can react per cause instead of string-matching what() text.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace maxel::net {

// Root of the hierarchy; catching this covers any transport failure.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// connect() failed after the configured bounded-backoff retries.
class ConnectError : public NetError {
 public:
  using NetError::NetError;
};

// No data within the recv deadline (the peer is alive-but-silent case;
// distinguishes a stuck protocol from a dead one).
class TimeoutError : public NetError {
 public:
  using NetError::NetError;
};

// Orderly EOF at a frame boundary: the peer closed the connection.
class PeerClosedError : public NetError {
 public:
  using NetError::NetError;
};

// The byte stream violates the frame layout: EOF inside a frame,
// zero/oversize length, or a short header.
class FramingError : public NetError {
 public:
  using NetError::NetError;
};

// The stream framed correctly but decoded to garbage: an impossible
// count prefix, a parse/eval failure deep in the session, or — with
// checking enabled — a MAC that fails the plaintext reference. The
// session state is poisoned; the only safe reaction is to tear it down
// and start a fresh one, so this is retryable.
class CorruptionError : public NetError {
 public:
  using NetError::NetError;
};

// Session-protocol rejection codes (see handshake.hpp for the fields).
// kServerBusy is the load-state reject the broker sends before it reads
// the hello, when it is out of descriptors. It is retryable from the
// client's point of view, unlike the configuration mismatches above it.
// Value 8 stays reserved, never reused, so an older peer's 8 is not
// misread as another code; a client that receives it sees an unknown,
// non-retryable reject.
enum class RejectCode : std::uint32_t {
  kOk = 0,
  kBadMagic = 1,
  kVersionMismatch = 2,
  kSchemeMismatch = 3,
  kBitWidthMismatch = 4,
  kCircuitMismatch = 5,
  kBadOtMode = 6,
  kServerBusy = 7,
  kBadMode = 9,  // unknown/unsupported session mode byte in the hello
};

[[nodiscard]] constexpr const char* reject_name(RejectCode c) {
  switch (c) {
    case RejectCode::kOk: return "ok";
    case RejectCode::kBadMagic: return "bad-magic";
    case RejectCode::kVersionMismatch: return "version-mismatch";
    case RejectCode::kSchemeMismatch: return "scheme-mismatch";
    case RejectCode::kBitWidthMismatch: return "bit-width-mismatch";
    case RejectCode::kCircuitMismatch: return "circuit-mismatch";
    case RejectCode::kBadOtMode: return "bad-ot-mode";
    case RejectCode::kServerBusy: return "server-busy";
    case RejectCode::kBadMode: return "bad-mode";
  }
  return "?";
}

// True for rejects that describe transient server load rather than a
// configuration mismatch; a client may retry these after a backoff.
[[nodiscard]] constexpr bool reject_is_retryable(RejectCode c) {
  return c == RejectCode::kServerBusy;
}

// Handshake failed: the peer rejected us (code from the wire) or sent a
// hello we must reject (code we are about to send).
class HandshakeError : public NetError {
 public:
  HandshakeError(RejectCode code, const std::string& msg)
      : NetError("handshake rejected [" + std::string(reject_name(code)) +
                 "]: " + msg),
        code_(code) {}

  [[nodiscard]] RejectCode code() const { return code_; }

 private:
  RejectCode code_;
};

// Whether a failed session attempt is worth a fresh one. Transport
// failures (connect, timeout, hangup, framing, corruption) are treated
// as transient — a retry gets a brand-new garbled session, so nothing
// is lost by trying. Handshake rejections retry only for the load-state
// codes; a config mismatch will reject identically forever.
[[nodiscard]] inline bool net_error_is_retryable(const NetError& e) {
  if (const auto* hs = dynamic_cast<const HandshakeError*>(&e))
    return reject_is_retryable(hs->code());
  return true;
}

}  // namespace maxel::net
