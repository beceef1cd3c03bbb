// Network subsystem tests: TcpChannel loopback transport, frame-layer
// fuzzing (every malformed stream must surface as a typed net error,
// never a hang), handshake rejection, and the full server/client
// session over 127.0.0.1 — whose decoded MAC must match the in-process
// ThreadedChannel protocol path bit for bit.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "sweep_env.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/handshake.hpp"
#include "net/server_stats.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "proto/protocol.hpp"
#include "proto/threaded_channel.hpp"
#include "live_broker.hpp"

namespace maxel::net {
namespace {

using crypto::Block;

// Raw (frame-oblivious) socket for injecting malformed byte streams.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  return fd;
}

void raw_write(int fd, const void* data, std::size_t n) {
  EXPECT_EQ(::send(fd, data, n, 0), static_cast<ssize_t>(n));
}

TcpOptions fast_opts() {
  TcpOptions o;
  o.recv_timeout_ms = 5'000;  // tests must fail fast, never hang
  o.connect_attempts = 3;
  o.connect_backoff_ms = 10;
  return o;
}

// ---------------------------------------------------------------------------
// Transport: loopback round trips through the Channel API.

TEST(TcpChannel, LoopbackRoundTrip) {
  TcpListener lis(0, "127.0.0.1");
  const TcpOptions opts = fast_opts();

  std::thread peer([&] {
    auto ch = lis.accept(5'000, opts);
    ASSERT_NE(ch, nullptr);
    // Echo in the protocol's own vocabulary: the recv calls auto-flush
    // the pending replies, exactly like a protocol phase boundary.
    const std::uint64_t v = ch->recv_u64();
    ch->send_u64(v + 1);
    const auto blocks = ch->recv_blocks();
    ch->send_blocks(blocks);
    const auto bits = ch->recv_bits();
    ch->send_bits(bits);
    ch->flush();
  });

  auto ch = TcpChannel::connect("127.0.0.1", lis.port(), opts);
  ch->send_u64(41);
  EXPECT_EQ(ch->recv_u64(), 42u);

  std::vector<Block> blocks;
  for (std::uint64_t i = 0; i < 300; ++i) blocks.push_back(Block{i, ~i});
  ch->send_blocks(blocks);
  const auto echoed = ch->recv_blocks();
  ASSERT_EQ(echoed.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i)
    EXPECT_EQ(echoed[i], blocks[i]) << "block " << i;

  std::vector<bool> bits;
  for (int i = 0; i < 99; ++i) bits.push_back((i * 7) % 3 == 0);
  ch->send_bits(bits);
  EXPECT_EQ(ch->recv_bits(), bits);

  peer.join();
  // A pure echo: payload counters are frame-independent and symmetric.
  EXPECT_EQ(ch->bytes_sent(), ch->bytes_received());
}

TEST(TcpChannel, SmallFramesReassembleLargePayload) {
  TcpListener lis(0, "127.0.0.1");
  TcpOptions opts = fast_opts();
  opts.flush_threshold_bytes = 64;  // force many tiny frames
  opts.max_frame_bytes = 128;       // and exercise the frame splitter

  std::vector<std::uint8_t> payload(10'000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);

  std::thread peer([&] {
    auto ch = lis.accept(5'000, opts);
    ASSERT_NE(ch, nullptr);
    std::vector<std::uint8_t> got(payload.size());
    ch->recv_bytes(got.data(), got.size());
    EXPECT_EQ(got, payload);
    ch->send_u64(1);  // release the client
    ch->flush();
  });

  auto ch = TcpChannel::connect("127.0.0.1", lis.port(), opts);
  ch->send_bytes(payload.data(), payload.size());
  EXPECT_EQ(ch->recv_u64(), 1u);
  peer.join();
}

TEST(TcpChannel, ConnectToDeadPortIsTypedError) {
  std::uint16_t dead_port;
  {
    TcpListener lis(0, "127.0.0.1");
    dead_port = lis.port();
  }  // closed: nobody listens here now
  TcpOptions opts;
  opts.connect_attempts = 2;
  opts.connect_backoff_ms = 5;
  opts.connect_timeout_ms = 500;
  EXPECT_THROW(TcpChannel::connect("127.0.0.1", dead_port, opts),
               ConnectError);
}

// ---------------------------------------------------------------------------
// Framing fuzz: every way a peer can mangle the stream maps to a typed
// error, with the recv deadline guaranteeing no test ever hangs.

TEST(TcpFraming, TruncatedFrameIsFramingError) {
  TcpListener lis(0, "127.0.0.1");
  const int fd = raw_connect(lis.port());
  auto ch = lis.accept(5'000, fast_opts());
  ASSERT_NE(ch, nullptr);

  const std::uint32_t claimed = 100;
  std::uint8_t partial[10] = {};
  raw_write(fd, &claimed, 4);
  raw_write(fd, partial, sizeof(partial));
  ::close(fd);  // EOF mid-frame

  std::uint8_t buf[100];
  EXPECT_THROW(ch->recv_bytes(buf, sizeof(buf)), FramingError);
}

TEST(TcpFraming, TruncatedHeaderIsFramingError) {
  TcpListener lis(0, "127.0.0.1");
  const int fd = raw_connect(lis.port());
  auto ch = lis.accept(5'000, fast_opts());
  ASSERT_NE(ch, nullptr);

  const std::uint8_t half_header[2] = {0x10, 0x00};
  raw_write(fd, half_header, sizeof(half_header));
  ::close(fd);

  std::uint8_t b;
  EXPECT_THROW(ch->recv_bytes(&b, 1), FramingError);
}

TEST(TcpFraming, OversizeLengthIsFramingError) {
  TcpListener lis(0, "127.0.0.1");
  TcpOptions opts = fast_opts();
  opts.max_frame_bytes = 1'024;
  const int fd = raw_connect(lis.port());
  auto ch = lis.accept(5'000, opts);
  ASSERT_NE(ch, nullptr);

  const std::uint32_t huge = 1u << 20;  // 1 MiB claim against a 1 KiB cap
  raw_write(fd, &huge, 4);

  std::uint8_t b;
  EXPECT_THROW(ch->recv_bytes(&b, 1), FramingError);
  ::close(fd);
}

TEST(TcpFraming, ZeroLengthFrameIsFramingError) {
  TcpListener lis(0, "127.0.0.1");
  const int fd = raw_connect(lis.port());
  auto ch = lis.accept(5'000, fast_opts());
  ASSERT_NE(ch, nullptr);

  const std::uint32_t zero = 0;
  raw_write(fd, &zero, 4);

  std::uint8_t b;
  EXPECT_THROW(ch->recv_bytes(&b, 1), FramingError);
  ::close(fd);
}

TEST(TcpFraming, CleanEofIsPeerClosed) {
  TcpListener lis(0, "127.0.0.1");
  const int fd = raw_connect(lis.port());
  auto ch = lis.accept(5'000, fast_opts());
  ASSERT_NE(ch, nullptr);

  ::close(fd);  // orderly hangup at a frame boundary

  std::uint8_t b;
  EXPECT_THROW(ch->recv_bytes(&b, 1), PeerClosedError);
}

TEST(TcpFraming, SilentPeerIsTimeoutError) {
  TcpListener lis(0, "127.0.0.1");
  TcpOptions opts = fast_opts();
  opts.recv_timeout_ms = 100;
  const int fd = raw_connect(lis.port());
  auto ch = lis.accept(5'000, opts);
  ASSERT_NE(ch, nullptr);

  std::uint8_t b;
  EXPECT_THROW(ch->recv_bytes(&b, 1), TimeoutError);  // peer never writes
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Handshake: mismatches produce a typed rejection on both ends.

struct HandshakePair {
  std::unique_ptr<TcpChannel> client;
  std::unique_ptr<TcpChannel> server;
};

HandshakePair make_pair_over_loopback(TcpListener& lis) {
  HandshakePair p;
  std::thread t([&] { p.server = lis.accept(5'000, fast_opts()); });
  p.client = TcpChannel::connect("127.0.0.1", lis.port(), fast_opts());
  t.join();
  return p;
}

// Runs a doctored hello against a server expectation; returns the
// reject code each side observed.
std::pair<RejectCode, RejectCode> run_handshake(const ClientHello& hello,
                                                const ServerExpectation& ex) {
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);

  RejectCode server_code = RejectCode::kOk;
  std::thread server([&] {
    try {
      server_handshake(*p.server, ex);
    } catch (const HandshakeError& e) {
      server_code = e.code();
    }
  });

  RejectCode client_code = RejectCode::kOk;
  try {
    client_handshake(*p.client, hello);
  } catch (const HandshakeError& e) {
    client_code = e.code();
  }
  server.join();
  return {client_code, server_code};
}

ServerExpectation demo_expectation(std::size_t bits) {
  ServerExpectation ex;
  ex.scheme = gc::Scheme::kHalfGates;
  ex.bit_width = static_cast<std::uint32_t>(bits);
  ex.circuit_hash = circuit_fingerprint(
      circuit::make_mac_circuit(circuit::MacOptions{bits, bits, true}));
  ex.rounds_per_session = 16;
  return ex;
}

ClientHello demo_hello(const ServerExpectation& ex) {
  ClientHello h;
  h.scheme = static_cast<std::uint8_t>(ex.scheme);
  h.ot = static_cast<std::uint8_t>(OtChoice::kIknp);
  h.bit_width = ex.bit_width;
  h.circuit_hash = ex.circuit_hash;
  return h;
}

TEST(Handshake, MatchingHelloNegotiatesRounds) {
  const ServerExpectation ex = demo_expectation(8);
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);

  std::thread server([&] { server_handshake(*p.server, ex); });
  // The server dictates rounds regardless of the client's request.
  ClientHello h = demo_hello(ex);
  h.rounds = 9'999;
  EXPECT_EQ(client_handshake(*p.client, h), ex.rounds_per_session);
  server.join();
}

TEST(Handshake, WrongMagicRejected) {
  const ServerExpectation ex = demo_expectation(8);
  ClientHello h = demo_hello(ex);
  h.magic = 0xDEADBEEFDEADBEEFull;
  const auto [client_code, server_code] = run_handshake(h, ex);
  EXPECT_EQ(client_code, RejectCode::kBadMagic);
  EXPECT_EQ(server_code, RejectCode::kBadMagic);
}

TEST(Handshake, VersionMismatchRejected) {
  const ServerExpectation ex = demo_expectation(8);
  ClientHello h = demo_hello(ex);
  h.version = kProtocolVersion + 7;
  const auto [client_code, server_code] = run_handshake(h, ex);
  EXPECT_EQ(client_code, RejectCode::kVersionMismatch);
  EXPECT_EQ(server_code, RejectCode::kVersionMismatch);
}

TEST(Handshake, CircuitMismatchRejected) {
  const ServerExpectation ex = demo_expectation(8);
  ClientHello h = demo_hello(ex);
  h.circuit_hash[0] ^= 1;  // single-bit fingerprint divergence
  const auto [client_code, server_code] = run_handshake(h, ex);
  EXPECT_EQ(client_code, RejectCode::kCircuitMismatch);
  EXPECT_EQ(server_code, RejectCode::kCircuitMismatch);
}

TEST(Handshake, UnknownModeByteRejected) {
  const ServerExpectation ex = demo_expectation(8);
  ClientHello h = demo_hello(ex);
  h.mode = 2;  // neither precomputed (0) nor stream (1)
  const auto [client_code, server_code] = run_handshake(h, ex);
  EXPECT_EQ(client_code, RejectCode::kBadMode);
  EXPECT_EQ(server_code, RejectCode::kBadMode);
}

// Status 8 is reserved: a verdict carrying it is an unknown reject —
// typed, and final rather than retried.
TEST(Handshake, ReservedStatusEightIsANonRetryableReject) {
  auto [client, server] = proto::MemoryChannel::create_pair();
  send_accept(*server,
              ServerAccept{static_cast<RejectCode>(8), 0, "draining"});
  try {
    (void)client_handshake(*client, demo_hello(demo_expectation(8)));
    FAIL() << "a status-8 verdict was taken as an accept";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(static_cast<std::uint32_t>(e.code()), 8u);
    EXPECT_FALSE(net_error_is_retryable(e));
  }
}

TEST(Handshake, StreamModeRefusedWhenDisallowed) {
  ServerExpectation ex = demo_expectation(8);
  ex.allow_stream = false;
  ClientHello h = demo_hello(ex);
  h.mode = static_cast<std::uint8_t>(SessionMode::kStream);
  const auto [client_code, server_code] = run_handshake(h, ex);
  EXPECT_EQ(client_code, RejectCode::kBadMode);
  EXPECT_EQ(server_code, RejectCode::kBadMode);
}

TEST(Handshake, StreamModeAcceptedWhenAllowed) {
  const ServerExpectation ex = demo_expectation(8);
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);

  std::thread server([&] {
    const ClientHello seen = server_handshake(*p.server, ex);
    EXPECT_EQ(seen.mode, static_cast<std::uint8_t>(SessionMode::kStream));
  });
  ClientHello h = demo_hello(ex);
  h.mode = static_cast<std::uint8_t>(SessionMode::kStream);
  EXPECT_EQ(client_handshake(*p.client, h), ex.rounds_per_session);
  server.join();
}

TEST(Handshake, FingerprintIgnoresNameButNotStructure) {
  circuit::Circuit a =
      circuit::make_mac_circuit(circuit::MacOptions{8, 8, true});
  circuit::Circuit b = a;
  b.name = "renamed";
  EXPECT_EQ(circuit_fingerprint(a), circuit_fingerprint(b));
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{16, 16, true});
  EXPECT_NE(circuit_fingerprint(a), circuit_fingerprint(c));
}

// ---------------------------------------------------------------------------
// Full service: the serving front + client threads over 127.0.0.1.

// A single-shard broker (the sequential configuration) that drains
// after one session unless the test raises max_sessions.
evloop::EvBrokerConfig quiet_server_config(const svc::TempSpoolDir& spool,
                                           std::size_t bits,
                                           std::size_t rounds) {
  evloop::EvBrokerConfig cfg = test::broker_config(spool, bits, rounds);
  cfg.max_sessions = 1;
  return cfg;
}

ClientConfig quiet_client_config(std::uint16_t port, std::size_t bits) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.bits = bits;
  cfg.verbose = false;
  return cfg;
}

// Runs the same demo-seeded MAC session through the in-process
// ThreadedChannel protocol path (no sockets, the pre-existing reference
// implementation) and returns the decoded accumulator.
std::uint64_t in_process_reference(std::size_t bits, std::size_t rounds,
                                   std::uint64_t seed) {
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{bits, bits, true});
  auto [g_ch, e_ch] = proto::ThreadedChannel::create_pair();
  proto::ProtocolOptions opt;
  opt.ot = proto::OtMode::kIknp;

  std::thread garbler([&, g = std::move(g_ch)]() mutable {
    crypto::SystemRandom rng(Block{seed, 100});
    proto::GarblerParty garbler(c, opt, *g, rng);
    garbler.setup_step2();
    garbler.setup_step4();
    DemoInputStream a(seed, kGarblerStream, bits);
    for (std::size_t r = 0; r < rounds; ++r) {
      garbler.garble_and_send(a.next_bits());
      garbler.finish_ot();
    }
  });

  std::uint64_t decoded = 0;
  std::thread evaluator([&, e = std::move(e_ch)]() mutable {
    crypto::SystemRandom rng(Block{seed, 200});
    proto::EvaluatorParty evaluator(c, opt, *e, rng);
    evaluator.setup_step1();
    evaluator.setup_step3();
    DemoInputStream x(seed, kEvaluatorStream, bits);
    std::vector<bool> out;
    for (std::size_t r = 0; r < rounds; ++r) {
      evaluator.receive_and_choose(x.next_bits());
      out = evaluator.evaluate_round();
    }
    decoded = circuit::from_bits(out);
  });

  garbler.join();
  evaluator.join();
  return decoded;
}

TEST(NetService, EndToEndMatchesInProcessPathBitForBit) {
  const std::size_t bits = 8, rounds = 120;
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = quiet_server_config(spool, bits, rounds);
  test::LiveBroker server(scfg);

  ClientConfig ccfg = quiet_client_config(server.port(), bits);
  const ClientStats cs = run_client(ccfg);
  server.join();

  // The decoded MAC over TCP equals the in-process ThreadedChannel
  // protocol run on identical inputs, and both equal the plaintext fold.
  EXPECT_EQ(cs.output_value,
            in_process_reference(bits, rounds, ccfg.demo_seed));
  EXPECT_EQ(cs.output_value,
            demo_mac_reference(ccfg.demo_seed, bits, rounds));
  EXPECT_TRUE(cs.checked);
  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.rounds, rounds);

  // Payload byte accounting agrees exactly across the wire.
  const ServerStats ss = server->stats().server;
  EXPECT_EQ(ss.sessions_served, 1u);
  EXPECT_EQ(ss.rounds_served, rounds);
  EXPECT_EQ(cs.bytes_received, ss.bytes_sent);
  EXPECT_EQ(cs.bytes_sent, ss.bytes_received);
  EXPECT_GE(ss.sessions_precomputed, 1u);
  EXPECT_GT(cs.working_set_bytes, 0u);
}

TEST(NetService, BaseOtSession) {
  const std::size_t bits = 8, rounds = 20;
  svc::TempSpoolDir spool;
  test::LiveBroker server(quiet_server_config(spool, bits, rounds));

  ClientConfig ccfg = quiet_client_config(server.port(), bits);
  ccfg.ot = OtChoice::kBase;
  const ClientStats cs = run_client(ccfg);
  server.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, demo_mac_reference(ccfg.demo_seed, bits, rounds));
  EXPECT_EQ(cs.bytes_received, server->stats().server.bytes_sent);
  EXPECT_EQ(cs.bytes_sent, server->stats().server.bytes_received);
}

TEST(NetService, MismatchedClientRejectedAndServerSurvives) {
  const std::size_t bits = 16, rounds = 12;
  svc::TempSpoolDir spool;
  test::LiveBroker server(quiet_server_config(spool, bits, rounds));

  // Wrong bit width: typed rejection, not a hang or stream corruption.
  ClientConfig bad = quiet_client_config(server.port(), 8);
  try {
    run_client(bad);
    FAIL() << "mismatched client was accepted";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.code(), RejectCode::kBitWidthMismatch);
  }

  // The server shrugs it off and serves the next, well-formed client.
  const ClientStats cs = run_client(quiet_client_config(server.port(), bits));
  server.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(server->stats().server.handshakes_rejected, 1u);
  EXPECT_EQ(server->stats().server.sessions_served, 1u);
}

// ---------------------------------------------------------------------------
// Streaming mode: same service, garble-while-transfer delivery.

TEST(NetService, StreamSessionMatchesPrecomputedBitForBit) {
  const std::size_t bits = 8, rounds = 120;
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = quiet_server_config(spool, bits, rounds);
  scfg.max_sessions = 2;
  scfg.stream_chunk_rounds = 16;
  test::LiveBroker server(scfg);

  ClientConfig pre = quiet_client_config(server.port(), bits);
  const ClientStats ps = run_client(pre);

  ClientConfig str = quiet_client_config(server.port(), bits);
  str.mode = SessionMode::kStream;
  const ClientStats ss = run_client(str);
  server.join();

  // Identical demo seed, identical decoded MAC: delivery mode must not
  // change a single output bit.
  EXPECT_TRUE(ps.verified);
  EXPECT_TRUE(ss.verified);
  EXPECT_EQ(ss.output_value, ps.output_value);
  EXPECT_EQ(ss.output_value, demo_mac_reference(str.demo_seed, bits, rounds));
  EXPECT_EQ(ss.rounds, rounds);

  // 120 rounds at 16 per chunk: ceil -> 8 chunk frames.
  EXPECT_EQ(ss.chunks_received, (rounds + 15) / 16);
  EXPECT_GT(ss.first_table_seconds, 0.0);

  const ServerStats st = server->stats().server;
  EXPECT_EQ(st.sessions_served, 2u);
  EXPECT_EQ(st.stream_sessions_served, 1u);
  EXPECT_EQ(st.rounds_served, 2 * rounds);
  EXPECT_GT(st.peak_resident_tables, 0u);
  // Both sessions' payload bytes, both directions, must balance.
  EXPECT_EQ(ps.bytes_received + ss.bytes_received, st.bytes_sent);
  EXPECT_EQ(ps.bytes_sent + ss.bytes_sent, st.bytes_received);
}

TEST(NetService, StreamSessionWithBaseOt) {
  const std::size_t bits = 8, rounds = 20;
  svc::TempSpoolDir spool;
  test::LiveBroker server(quiet_server_config(spool, bits, rounds));

  ClientConfig cfg = quiet_client_config(server.port(), bits);
  cfg.mode = SessionMode::kStream;
  cfg.ot = OtChoice::kBase;
  const ClientStats cs = run_client(cfg);
  server.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, demo_mac_reference(cfg.demo_seed, bits, rounds));
  EXPECT_EQ(cs.bytes_received, server->stats().server.bytes_sent);
  EXPECT_EQ(cs.bytes_sent, server->stats().server.bytes_received);
}

TEST(NetService, StreamRefusedByNoStreamServerWhichSurvives) {
  const std::size_t bits = 8, rounds = 12;
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = quiet_server_config(spool, bits, rounds);
  scfg.allow_stream = false;
  test::LiveBroker server(scfg);

  ClientConfig str = quiet_client_config(server.port(), bits);
  str.mode = SessionMode::kStream;
  try {
    run_client(str);
    FAIL() << "stream client was accepted by a --mode precomputed server";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.code(), RejectCode::kBadMode);
  }

  // The refusal is per-connection: a precomputed client still gets
  // served and the server exits cleanly.
  const ClientStats cs = run_client(quiet_client_config(server.port(), bits));
  server.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(server->stats().server.handshakes_rejected, 1u);
  EXPECT_EQ(server->stats().server.sessions_served, 1u);
  EXPECT_EQ(server->stats().server.stream_sessions_served, 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: randomized session shapes against the plaintext
// reference. Bit widths, vector lengths (rounds) and demo seeds are
// drawn from a pinned PRG stream and logged per trial, so any failure
// reproduces exactly from the trace line.

TEST(NetService, RandomizedSessionsMatchPlaintextReference) {
  const std::uint64_t kSweepSeed = test::sweep_seed(0x5EED5EED);
  crypto::Prg prg(Block{kSweepSeed, 0});
  const int n_trials = test::sweep_trials(4);
  for (int trial = 0; trial < n_trials; ++trial) {
    const std::size_t bits = 4 + prg.next_u64() % 13;    // 4..16
    const std::size_t rounds = 5 + prg.next_u64() % 28;  // 5..32
    const std::uint64_t seed = prg.next_u64();
    const bool stream = prg.next_bit();
    SCOPED_TRACE("sweep_seed=" + std::to_string(kSweepSeed) +
                 " trial=" + std::to_string(trial) +
                 " bits=" + std::to_string(bits) +
                 " rounds=" + std::to_string(rounds) +
                 " demo_seed=" + std::to_string(seed) +
                 (stream ? " mode=stream" : " mode=precomputed"));

    svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = quiet_server_config(spool, bits, rounds);
    scfg.demo_seed = seed;
    test::LiveBroker server(scfg);

    ClientConfig ccfg = quiet_client_config(server.port(), bits);
    ccfg.demo_seed = seed;
    if (stream) ccfg.mode = SessionMode::kStream;
    const ClientStats cs = run_client(ccfg);
    server.join();

    // Three-way agreement: TCP session == in-process protocol run ==
    // plaintext fixed-point MAC fold, for this randomized shape.
    EXPECT_TRUE(cs.verified);
    EXPECT_EQ(cs.output_value, demo_mac_reference(seed, bits, rounds));
    EXPECT_EQ(cs.output_value, in_process_reference(bits, rounds, seed));
  }
}

// ---------------------------------------------------------------------------
// Stalled-peer regressions: a peer that stops reading (or never writes)
// must surface as a typed error within the configured deadline on BOTH
// sides — the send path historically blocked forever in ::send once the
// socket buffers filled.

TEST(TcpChannel, SenderUnblocksWhenPeerStopsDraining) {
  TcpListener lis(0, "127.0.0.1");
  TcpOptions opts = fast_opts();
  opts.send_timeout_ms = 300;
  opts.flush_threshold_bytes = 1 << 12;  // flush eagerly into the kernel
  const int fd = raw_connect(lis.port());  // this peer never reads
  auto ch = lis.accept(5'000, opts);
  ASSERT_NE(ch, nullptr);
  // Shrink our send buffer so the kernel back-pressures quickly.
  int snd = 4'096;
  ::setsockopt(ch->fd(), SOL_SOCKET, SO_SNDBUF, &snd, sizeof(snd));

  std::vector<std::uint8_t> chunk(1 << 16, 0xAB);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Enough volume to overrun both socket buffers many times over; the
    // old blocking send would wedge here forever.
    for (int i = 0; i < 4'096; ++i) {
      ch->send_bytes(chunk.data(), chunk.size());
      ch->flush();
    }
    FAIL() << "256 MiB vanished into a peer that never reads";
  } catch (const TimeoutError&) {
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 10.0);  // deadline honored, not a 30 s default
  ::close(fd);
}

TEST(NetService, SilentClientIsEvictedAndServerKeepsServing) {
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig cfg = quiet_server_config(spool, 8, 8);
  cfg.idle_timeout_ms = 200;
  test::LiveBroker server(cfg);

  // Connect and never send the hello: the server must evict this
  // connection at the idle deadline instead of pinning on it...
  const int fd = raw_connect(server.port());
  // ...and then serve the well-behaved client queued behind it.
  const ClientStats cs = run_client(quiet_client_config(server.port(), 8));
  server.join();
  ::close(fd);

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(server->stats().server.sessions_served, 1u);
  EXPECT_EQ(server->stats().server.idle_timeouts, 1u);
  EXPECT_GE(server->stats().server.connection_errors, 1u);
}

TEST(NetService, UnresponsiveServerYieldsTimeoutNotHang) {
  TcpListener lis(0, "127.0.0.1");
  std::unique_ptr<TcpChannel> held;  // accepted, then left silent
  std::thread acceptor([&] { held = lis.accept(5'000, fast_opts()); });

  ClientConfig cfg = quiet_client_config(lis.port(), 8);
  cfg.tcp.recv_timeout_ms = 200;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(run_client(cfg), TimeoutError);  // handshake reply never comes
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 5.0);
  acceptor.join();
}

// ---------------------------------------------------------------------------
// Protocol v3: slim-wire sessions and cross-session OT amortization.

TEST(HandshakeV3, V3HelloNegotiatesWhenAllowed) {
  ServerExpectation ex = demo_expectation(8);
  ex.allow_v3 = true;
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);

  const Block client_id{0x1D, 0xC0FFEE};
  std::thread server([&] {
    const V23Handshake hs = server_handshake_v23(*p.server, ex);
    EXPECT_EQ(hs.version, kProtocolVersionV3);
    ASSERT_TRUE(hs.ext.has_value());
    EXPECT_EQ(hs.ext->client_id, client_id);
    EXPECT_FALSE(hs.ext->has_ticket);
  });
  HelloExtV3 ext;
  ext.client_id = client_id;
  EXPECT_EQ(client_handshake_v3(*p.client, demo_hello(ex), ext),
            ex.rounds_per_session);
  server.join();
}

TEST(HandshakeV3, V3HelloRejectedByV2OnlyServer) {
  const ServerExpectation ex = demo_expectation(8);  // allow_v3 defaults off
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);

  RejectCode server_code = RejectCode::kOk;
  std::thread server([&] {
    try {
      server_handshake_v23(*p.server, ex);
    } catch (const HandshakeError& e) {
      server_code = e.code();
    }
  });
  HelloExtV3 ext;
  ext.client_id = Block{1, 2};
  RejectCode client_code = RejectCode::kOk;
  try {
    client_handshake_v3(*p.client, demo_hello(ex), ext);
  } catch (const HandshakeError& e) {
    client_code = e.code();
  }
  server.join();
  // Both sides see the typed version mismatch — the signal the client
  // uses to redial with a v2 hello.
  EXPECT_EQ(client_code, RejectCode::kVersionMismatch);
  EXPECT_EQ(server_code, RejectCode::kVersionMismatch);
}

TEST(NetV3, SessionMatchesV2BitForBitAndSlimsTheWire) {
  const std::size_t bits = 16, rounds = 16;
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = quiet_server_config(spool, bits, rounds);
  scfg.max_sessions = 2;
  test::LiveBroker server(scfg);

  ClientConfig v2 = quiet_client_config(server.port(), bits);
  const ClientStats s2 = run_client(v2);

  ClientConfig v3 = quiet_client_config(server.port(), bits);
  v3.protocol = kProtocolVersionV3;
  const ClientStats s3 = run_client(v3);
  server.join();

  // Same demo seed: the slim wire format must not change one output bit.
  EXPECT_TRUE(s2.verified);
  EXPECT_TRUE(s3.verified);
  EXPECT_EQ(s3.output_value, s2.output_value);
  EXPECT_EQ(s3.output_value, demo_mac_reference(v3.demo_seed, bits, rounds));
  EXPECT_EQ(s3.protocol_used, kProtocolVersionV3);
  EXPECT_FALSE(s3.pool_resumed);

  // ISSUE acceptance: the v3 session body (setup excluded — that is
  // amortized across sessions, measured separately below) moves well
  // under 0.65x the v2 bytes for the same work.
  const std::uint64_t v2_total = s2.bytes_sent + s2.bytes_received;
  const std::uint64_t v3_body =
      s3.bytes_sent + s3.bytes_received - s3.setup_bytes;
  EXPECT_LT(v3_body, (v2_total * 65) / 100)
      << "v3 body " << v3_body << " vs v2 total " << v2_total;

  const ServerStats ss = server->stats().server;
  EXPECT_EQ(ss.sessions_served, 2u);
  EXPECT_EQ(ss.v3_sessions_served, 1u);
  EXPECT_EQ(ss.v3_fresh_pools, 1u);
  EXPECT_EQ(server->v3_outstanding_claims(), 0u);
  EXPECT_EQ(s3.bytes_received, ss.bytes_sent - s2.bytes_received);
  EXPECT_EQ(s3.bytes_sent, ss.bytes_received - s2.bytes_sent);
}

TEST(NetV3, ResumptionSkipsBaseOtAndShrinksSetup) {
  const std::size_t bits = 8, rounds = 16;
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = quiet_server_config(spool, bits, rounds);
  scfg.max_sessions = 3;
  test::LiveBroker server(scfg);

  // One client state shared across three separate run_client calls: the
  // base OT and the pool extension are paid once, then amortized.
  crypto::SystemRandom id_rng(Block{77, 7});
  auto state = make_v3_client_state(id_rng);
  ClientConfig cfg = quiet_client_config(server.port(), bits);
  cfg.protocol = kProtocolVersionV3;
  cfg.v3_state = state;

  const ClientStats s1 = run_client(cfg);
  const ClientStats s2 = run_client(cfg);
  const ClientStats s3 = run_client(cfg);
  server.join();

  EXPECT_TRUE(s1.verified);
  EXPECT_TRUE(s2.verified);
  EXPECT_TRUE(s3.verified);
  EXPECT_FALSE(s1.pool_resumed);
  EXPECT_TRUE(s2.pool_resumed);
  EXPECT_TRUE(s3.pool_resumed);

  // A resumed setup is a ticket round-trip, not a base OT + extension:
  // at least an order of magnitude smaller (ISSUE: 100th session setup
  // <= 10% of the 1st — already true by the 2nd).
  EXPECT_LE(s2.setup_bytes * 10, s1.setup_bytes)
      << "resumed setup " << s2.setup_bytes << " vs fresh " << s1.setup_bytes;
  EXPECT_LE(s3.setup_bytes * 10, s1.setup_bytes);

  const ServerStats ss = server->stats().server;
  EXPECT_EQ(ss.v3_sessions_served, 3u);
  EXPECT_EQ(ss.v3_fresh_pools, 1u);  // one base OT for all three sessions
  // One extension batch covered all three sessions' OT needs.
  EXPECT_EQ(ss.v3_ot_extended, static_cast<std::uint64_t>(ot::kPoolExtendBatch));
  EXPECT_EQ(server->v3_outstanding_claims(), 0u);
  // Client consumed exactly 3 sessions' worth of pool indices.
  EXPECT_EQ(state->pool.watermark(), 3u * rounds * bits);
}

TEST(NetV3, FallsBackToV2AgainstV2OnlyServer) {
  const std::size_t bits = 8, rounds = 12;
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = quiet_server_config(spool, bits, rounds);
  scfg.allow_v3 = false;
  test::LiveBroker server(scfg);

  // A v3-preferring client against a v2-only server: the rejected v3
  // hello turns into a transparent redial, not an error.
  ClientConfig cfg = quiet_client_config(server.port(), bits);
  cfg.protocol = kProtocolVersionV3;
  const ClientStats cs = run_client(cfg);
  server.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, demo_mac_reference(cfg.demo_seed, bits, rounds));
  EXPECT_EQ(cs.protocol_used, kProtocolVersion);
  EXPECT_FALSE(cs.pool_resumed);
  const ServerStats ss = server->stats().server;
  EXPECT_EQ(ss.handshakes_rejected, 1u);  // the v3 attempt
  EXPECT_EQ(ss.sessions_served, 1u);
  EXPECT_EQ(ss.v3_sessions_served, 0u);
}

}  // namespace
}  // namespace maxel::net
