// Wire transcripts of the two pooled session modes (v3 and reusable),
// pinned by SHA-256 per direction.
//
// Each session runs in process: the client half (net::eval_v3_session /
// net::eval_reusable_session after client_handshake_v3) speaks to a lone
// evloop::EvSession through a byte shuttle that frames both directions
// exactly as the TCP transport does. Every random source is seeded — the
// client identity and base OT, the V3PoolRegistry (pool secret, pool ids,
// cookies, server base OT) and the garblings — so the bytes are a pure
// function of the protocol. A change to any record layout, record order
// or flush boundary changes a hash; a refactor that keeps the wire keeps
// all eight.
//
// Four sessions, in order, over one registry:
//   v3-fresh           first contact: fresh pool, base OT, one extension
//   v3-resume-extend   same client, ticket accepted, the pool runs dry and
//                      extends again
//   reusable-first     a second client: fresh pool, artifact sent
//   reusable-cached    the same client again: pool resumed, artifact
//                      cached (only its hash crosses the wire)
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/uio.h>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "evloop/buffered_channel.hpp"
#include "evloop/session.hpp"
#include "gc/v3.hpp"
#include "net/demo_inputs.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/v3_service.hpp"
#include "ot/pool.hpp"
#include "proto/v3_session.hpp"

namespace maxel {
namespace {

constexpr std::size_t kBits = 8;
// 600 rounds x 8 evaluator inputs = 4800 pool indices per session: the
// second v3 session outruns the first 8192-index extension.
constexpr std::size_t kRounds = 600;
constexpr std::uint64_t kDemoSeed = 7;

// Client end of an in-process shuttle. Sends are framed by a private
// BufferedChannel; every flush hands the frame to the server session,
// and every recv first pulls whatever the server has produced. The two
// hashers see each direction's framed bytes, as they would cross a
// socket.
class ShuttleChannel final : public proto::Channel {
 public:
  explicit ShuttleChannel(evloop::EvSession& server) : server_(server) {}

  void flush() override {
    end_.flush();
    forward(end_, up_, [this](const std::uint8_t* p, std::size_t n) {
      server_.on_bytes(p, n);
    });
  }

  std::string up_hex() { return crypto::Sha256::hex(up_.digest()); }
  std::string down_hex() { return crypto::Sha256::hex(down_.digest()); }

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override {
    end_.send_bytes(data, n);
  }
  void raw_recv(std::uint8_t* data, std::size_t n) override {
    flush();
    forward(server_.channel(), down_,
            [this](const std::uint8_t* p, std::size_t k) {
              end_.ingest(p, k);
            });
    server_.on_output_drained();
    if (end_.available() < n)
      throw std::runtime_error("shuttle: server produced too few bytes (" +
                               server_.error_text() + ")");
    end_.recv_bytes(data, n);
  }

 private:
  template <class Sink>
  static void forward(evloop::BufferedChannel& from, crypto::Sha256& hash,
                      Sink&& sink) {
    while (from.has_output()) {
      struct iovec iov[16];
      const std::size_t k = from.gather(iov, 16);
      std::size_t moved = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
        hash.update(p, iov[i].iov_len);
        sink(p, iov[i].iov_len);
        moved += iov[i].iov_len;
      }
      from.mark_written(moved);
    }
  }

  evloop::EvSession& server_;
  evloop::BufferedChannel end_;
  crypto::Sha256 up_;
  crypto::Sha256 down_;
};

struct Transcript {
  std::string up;    // client -> server
  std::string down;  // server -> client
};

class PooledTranscript : public ::testing::Test {
 protected:
  void SetUp() override {
    circ_ = circuit::make_mac_circuit(circuit::MacOptions{kBits, kBits, true});
    an_ = gc::analyze_v3(circ_);
    reg_ = std::make_unique<net::V3PoolRegistry>(crypto::Block{0x5EED, 0x1});
    net::DemoInputStream a_inputs(kDemoSeed, net::kGarblerStream, kBits);
    g_bits_.resize(kRounds);
    for (auto& row : g_bits_) row = a_inputs.next_bits();
    net::DemoInputStream x_inputs(kDemoSeed, net::kEvaluatorStream, kBits);
    e_bits_.resize(kRounds);
    for (auto& row : e_bits_) row = x_inputs.next_bits();

    crypto::SystemRandom garble_rng(crypto::Block{0x6A, 0x2});
    rctx_ = std::make_unique<net::ReusableServeContext>(
        net::make_reusable_context(
            circ_, net::garble_reusable(circ_, kBits, garble_rng), kRounds,
            kDemoSeed));

    ctx_.circ = &circ_;
    ctx_.expect.scheme = gc::Scheme::kHalfGates;
    ctx_.expect.bit_width = kBits;
    ctx_.expect.circuit_hash = net::circuit_fingerprint(circ_);
    ctx_.expect.rounds_per_session = kRounds;
    ctx_.expect.allow_v3 = true;
    ctx_.expect.allow_reusable = true;
    ctx_.reg = reg_.get();
    ctx_.reusable = rctx_.get();
    ctx_.bits = kBits;
    ctx_.rounds = kRounds;
    ctx_.demo_seed = kDemoSeed;
    ctx_.take_v3 = [this] {
      crypto::SystemRandom rng(crypto::Block{0x7A4E, ++v3_garblings_});
      return proto::garble_session_v3(circ_, an_, g_bits_, reg_->delta(),
                                      rng.next_block(), rng);
    };
  }

  // One session of `mode` for client `st`; checks the decoded MAC and
  // the server's clean finish, returns both directions' hashes.
  Transcript run(net::SessionMode mode, net::V3ClientState& st,
                 std::uint64_t rng_tag) {
    evloop::EvSession server(ctx_);
    ShuttleChannel ch(server);
    net::ClientHello hello;
    hello.scheme = static_cast<std::uint8_t>(gc::Scheme::kHalfGates);
    hello.ot = static_cast<std::uint8_t>(net::OtChoice::kIknp);
    hello.mode = static_cast<std::uint8_t>(mode);
    hello.bit_width = kBits;
    hello.circuit_hash = net::circuit_fingerprint(circ_);
    net::HelloExtV3 ext;
    ext.client_id = st.client_id;
    if (st.ticket) {
      ext.has_ticket = true;
      ext.ticket = *st.ticket;
    }
    EXPECT_EQ(net::client_handshake_v3(ch, hello, ext), kRounds);

    crypto::SystemRandom rng(crypto::Block{0xC11E, rng_tag});
    const std::vector<bool> decoded =
        mode == net::SessionMode::kReusable
            ? net::eval_reusable_session(ch, net::served_circuit(kBits),
                                         e_bits_, st, rng)
                  .decoded
            : net::eval_v3_session(ch, circ_, an_, e_bits_, st, rng).decoded;
    EXPECT_EQ(circuit::from_bits(decoded),
              net::demo_mac_reference(kDemoSeed, kBits, kRounds));
    EXPECT_TRUE(server.done()) << server.error_text();
    return Transcript{ch.up_hex(), ch.down_hex()};
  }

  circuit::Circuit circ_;
  gc::V3Analysis an_;
  std::unique_ptr<net::V3PoolRegistry> reg_;
  std::vector<std::vector<bool>> g_bits_;
  std::vector<std::vector<bool>> e_bits_;
  std::unique_ptr<net::ReusableServeContext> rctx_;
  std::uint64_t v3_garblings_ = 0;
  evloop::EvServeContext ctx_;
};

TEST_F(PooledTranscript, FourSessionsMatchThePinnedWire) {
  crypto::SystemRandom id_rng(crypto::Block{0x1D, 0x3});
  auto v3_client = net::make_v3_client_state(id_rng);
  auto re_client = net::make_v3_client_state(id_rng);

  const net::SessionMode v3 = net::SessionMode::kPrecomputed;
  const net::SessionMode reusable = net::SessionMode::kReusable;
  const Transcript v3_fresh = run(v3, *v3_client, 1);
  const Transcript v3_resume = run(v3, *v3_client, 2);
  // The shape the names promise: one base OT, then a resumed extension.
  EXPECT_EQ(v3_client->pool.extended(), 2u * ot::kPoolExtendBatch);
  const Transcript re_first = run(reusable, *re_client, 3);
  ASSERT_TRUE(re_client->reusable_view.has_value());
  const Transcript re_cached = run(reusable, *re_client, 4);
  EXPECT_EQ(reg_->outstanding_claims(), 0u);

  // Pinned: a change to any of these is a change to the wire.
  EXPECT_EQ(v3_fresh.up,
            "b853cdf618e6718f91d4d7de4697e5a23bb3bac5480b22652583b0f7422a03d3");
  EXPECT_EQ(v3_fresh.down,
            "9c7fbbb8834ccb4ac50fda66d928d138fe90a1aa9df72ee3a896a9bcbb1630f1");
  EXPECT_EQ(v3_resume.up,
            "5f290ff1232ebbeda477126e8782fb4f8c38f8a8645a06650e99bc6f5898fd27");
  EXPECT_EQ(v3_resume.down,
            "67e4a2bc1635c7ce15a5fa6f6e69a83388ccc63bdd450f56fd17ee783ea35f13");
  EXPECT_EQ(re_first.up,
            "ef935dbd0eef2341bb9d96ea1e5f94e8dafbd056595a2c36d550f8ebffbd4784");
  EXPECT_EQ(re_first.down,
            "972862cd28728f91473fd5ebf4378343946d83485a14a0b0677610bd5fb05c87");
  EXPECT_EQ(re_cached.up,
            "46b413370a60f85a0da69c05194124e0033d2568a460ae302c3086e0718fb638");
  EXPECT_EQ(re_cached.down,
            "80124436050fe3ce1b47196b5757c8ac3b569a43bdea31d9e2f4418c4a134658");
}

}  // namespace
}  // namespace maxel
