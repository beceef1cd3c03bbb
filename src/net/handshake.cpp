#include "net/handshake.hpp"

#include <cstring>
#include <vector>

#include "crypto/sha256.hpp"

namespace maxel::net {

namespace {

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  const std::size_t off = buf.size();
  buf.resize(off + 4);
  std::memcpy(buf.data() + off, &v, 4);
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const std::size_t off = buf.size();
  buf.resize(off + 8);
  std::memcpy(buf.data() + off, &v, 8);
}

}  // namespace

std::array<std::uint8_t, 32> circuit_fingerprint(const circuit::Circuit& c) {
  std::vector<std::uint8_t> enc;
  enc.reserve(64 + 13 * c.gates.size());
  put_u64(enc, 0x4d584e4554463031ull);  // domain tag "MXNETF01"
  put_u32(enc, c.num_wires);
  const auto put_wires = [&](const std::vector<circuit::Wire>& ws) {
    put_u64(enc, ws.size());
    for (const circuit::Wire w : ws) put_u32(enc, w);
  };
  put_wires(c.garbler_inputs);
  put_wires(c.evaluator_inputs);
  put_wires(c.outputs);
  put_u64(enc, c.gates.size());
  for (const auto& g : c.gates) {
    enc.push_back(static_cast<std::uint8_t>(g.type));
    put_u32(enc, g.a);
    put_u32(enc, g.b);
    put_u32(enc, g.out);
  }
  put_u64(enc, c.dffs.size());
  for (const auto& d : c.dffs) {
    put_u32(enc, d.q);
    put_u32(enc, d.d);
    enc.push_back(d.init ? 1 : 0);
  }
  return crypto::Sha256::hash(enc.data(), enc.size());
}

void send_hello(proto::Channel& ch, const ClientHello& h) {
  std::uint8_t buf[kHelloWireSize];
  std::size_t off = 0;
  std::memcpy(buf + off, &h.magic, 8); off += 8;
  std::memcpy(buf + off, &h.version, 4); off += 4;
  buf[off++] = h.scheme;
  buf[off++] = h.ot;
  buf[off++] = h.mode;  // v1 reserved byte; always 0 (precomputed) pre-v2
  buf[off++] = 0;       // reserved
  std::memcpy(buf + off, &h.bit_width, 4); off += 4;
  std::memcpy(buf + off, &h.rounds, 4); off += 4;
  std::memcpy(buf + off, h.circuit_hash.data(), 32); off += 32;
  ch.send_bytes(buf, off);
  ch.flush();
}

ClientHello recv_hello(proto::Channel& ch) {
  std::uint8_t buf[kHelloWireSize];
  ch.recv_bytes(buf, kHelloWireSize);
  ClientHello h;
  std::size_t off = 0;
  std::memcpy(&h.magic, buf + off, 8); off += 8;
  std::memcpy(&h.version, buf + off, 4); off += 4;
  h.scheme = buf[off++];
  h.ot = buf[off++];
  h.mode = buf[off++];
  off += 1;  // reserved
  std::memcpy(&h.bit_width, buf + off, 4); off += 4;
  std::memcpy(&h.rounds, buf + off, 4); off += 4;
  std::memcpy(h.circuit_hash.data(), buf + off, 32);
  return h;
}

void send_accept(proto::Channel& ch, const ServerAccept& a) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, static_cast<std::uint32_t>(a.status));
  put_u32(buf, a.rounds);
  put_u32(buf, static_cast<std::uint32_t>(a.message.size()));
  buf.insert(buf.end(), a.message.begin(), a.message.end());
  ch.send_bytes(buf.data(), buf.size());
  ch.flush();
}

ServerAccept recv_accept(proto::Channel& ch) {
  std::uint8_t head[12];
  ch.recv_bytes(head, 12);
  ServerAccept a;
  std::uint32_t status = 0, len = 0;
  std::memcpy(&status, head, 4);
  std::memcpy(&a.rounds, head + 4, 4);
  std::memcpy(&len, head + 8, 4);
  if (len > 4096) throw FramingError("oversized accept message");
  a.status = static_cast<RejectCode>(status);
  a.message.resize(len);
  if (len > 0)
    ch.recv_bytes(reinterpret_cast<std::uint8_t*>(a.message.data()), len);
  return a;
}

std::uint32_t client_handshake(proto::Channel& ch, const ClientHello& hello) {
  send_hello(ch, hello);
  const ServerAccept a = recv_accept(ch);
  if (a.status != RejectCode::kOk)
    throw HandshakeError(a.status,
                         a.message.empty() ? "server rejected" : a.message);
  return a.rounds;
}

ClientHello server_handshake(proto::Channel& ch, const ServerExpectation& ex) {
  ServerExpectation v2_only = ex;
  v2_only.allow_v3 = false;
  return server_handshake_v23(ch, v2_only).hello;
}

void send_hello_ext_v3(proto::Channel& ch, const HelloExtV3& ext) {
  ch.send_block(ext.client_id);
  const std::uint8_t flag = ext.has_ticket ? 1 : 0;
  ch.send_bytes(&flag, 1);
  if (ext.has_ticket) proto::send_ticket(ch, ext.ticket);
  ch.flush();
}

HelloExtV3 recv_hello_ext_v3(proto::Channel& ch) {
  HelloExtV3 ext;
  ext.client_id = ch.recv_block();
  std::uint8_t flag = 0;
  ch.recv_bytes(&flag, 1);
  if (flag > 1) throw FramingError("bad v3 hello extension ticket flag");
  ext.has_ticket = flag == 1;
  if (ext.has_ticket) ext.ticket = proto::recv_ticket(ch);
  return ext;
}

std::uint32_t client_handshake_v3(proto::Channel& ch, ClientHello hello,
                                  const HelloExtV3& ext) {
  hello.version = kProtocolVersionV3;
  // v3 never serves stream delivery; anything but the reusable flow is
  // the precomputed slim-wire session.
  if (hello.mode != static_cast<std::uint8_t>(SessionMode::kReusable))
    hello.mode = static_cast<std::uint8_t>(SessionMode::kPrecomputed);
  send_hello(ch, hello);
  send_hello_ext_v3(ch, ext);
  const ServerAccept a = recv_accept(ch);
  if (a.status != RejectCode::kOk)
    throw HandshakeError(a.status,
                         a.message.empty() ? "server rejected" : a.message);
  return a.rounds;
}

V23Handshake server_handshake_v23(proto::Channel& ch,
                                  const ServerExpectation& ex) {
  const ClientHello h = recv_hello(ch);
  const auto reject = [&](RejectCode code, const std::string& msg) {
    send_accept(ch, ServerAccept{code, 0, msg});
    throw HandshakeError(code, msg);
  };
  if (h.magic != kHelloMagic) reject(RejectCode::kBadMagic, "bad magic");
  const bool v3 = h.version == kProtocolVersionV3 && ex.allow_v3;
  if (!v3 && h.version != kProtocolVersion) {
    // A v3 hello is trailed by its extension frame. Even when v3 is
    // disabled this server knows the layout, so drain the extension
    // before rejecting: closing with it unread would reset the
    // connection, and the reset can destroy the in-flight reject before
    // the client reads it — the client would see a bare peer close
    // instead of the typed version verdict it redials v2 on.
    if (h.version == kProtocolVersionV3) {
      try {
        (void)recv_hello_ext_v3(ch);
      } catch (const NetError&) {
        // Malformed or truncated extension: the reject below still goes
        // out; the stream is torn down right after anyway.
      }
    }
    reject(RejectCode::kVersionMismatch,
           "server speaks version " + std::to_string(kProtocolVersion) +
               ", client sent " + std::to_string(h.version));
  }
  V23Handshake out;
  out.hello = h;
  out.version = v3 ? kProtocolVersionV3 : kProtocolVersion;
  // The v3 extension rides directly behind the hello, so read it before
  // any further verdict; a reject after this point still leaves the
  // stream clean.
  if (v3) out.ext = recv_hello_ext_v3(ch);
  if (h.scheme != static_cast<std::uint8_t>(ex.scheme))
    reject(RejectCode::kSchemeMismatch,
           std::string("server garbles ") + gc::scheme_name(ex.scheme));
  if (h.ot > static_cast<std::uint8_t>(OtChoice::kIknp))
    reject(RejectCode::kBadOtMode, "unknown OT mode");
  if (h.mode > static_cast<std::uint8_t>(SessionMode::kReusable))
    reject(RejectCode::kBadMode, "unknown session mode");
  if (h.mode == static_cast<std::uint8_t>(SessionMode::kStream) &&
      !ex.allow_stream)
    reject(RejectCode::kBadMode, "server does not serve stream mode");
  if (h.mode == static_cast<std::uint8_t>(SessionMode::kReusable)) {
    // The reusable flow needs the v3 hello extension (client identity +
    // OT-pool ticket); a v2 hello asking for it is a typed mismatch,
    // never a silent downgrade.
    if (!v3)
      reject(RejectCode::kBadMode, "reusable mode requires protocol v3");
    if (!ex.allow_reusable)
      reject(RejectCode::kBadMode, "server does not serve reusable mode");
  }
  if (v3 && h.mode == static_cast<std::uint8_t>(SessionMode::kStream))
    reject(RejectCode::kBadMode, "protocol v3 does not serve stream mode");
  if (h.bit_width != ex.bit_width)
    reject(RejectCode::kBitWidthMismatch,
           "server serves bit width " + std::to_string(ex.bit_width) +
               ", client asked " + std::to_string(h.bit_width));
  if (h.circuit_hash != ex.circuit_hash)
    reject(RejectCode::kCircuitMismatch,
           "circuit fingerprint mismatch (incompatible builds?)");
  send_accept(ch, ServerAccept{RejectCode::kOk, ex.rounds_per_session, ""});
  return out;
}

}  // namespace maxel::net
