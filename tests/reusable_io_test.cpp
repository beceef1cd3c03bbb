// Hostile-input contract for the MXREUS1 codec, in the chunk_io mold:
// every truncation of a valid record throws ReusableFormatError, every
// single-byte mutation either parses or throws (never crashes, never
// over-allocates), and hostile count prefixes are rejected by value
// before any allocation. The reusable setup (the v3 setup records with
// the artifact offers stapled on) keeps its byte layout and every
// reject.
#include "proto/reusable_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/v3_records.hpp"

namespace maxel {
namespace {

gc::ReusableCircuit sample_artifact() {
  const auto c = circuit::make_mac_circuit({.bit_width = 8});
  crypto::SystemRandom rng(crypto::Block{13, 37});
  auto rc = gc::make_reusable_circuit(c, rng);
  rc.view.bit_width = 8;
  for (std::size_t i = 0; i < rc.view.fingerprint.size(); ++i)
    rc.view.fingerprint[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return rc;
}

TEST(ReusableIo, ArtifactRoundtripsBothFramings) {
  const auto rc = sample_artifact();
  const auto view_bytes = proto::serialize_reusable_view(rc.view);
  const auto full_bytes = proto::serialize_reusable(rc);
  ASSERT_GT(full_bytes.size(), view_bytes.size());

  const auto view = proto::parse_reusable_view(view_bytes.data(),
                                               view_bytes.size());
  EXPECT_EQ(view.bit_width, rc.view.bit_width);
  EXPECT_EQ(view.fingerprint, rc.view.fingerprint);
  EXPECT_EQ(view.n_gates, rc.view.n_gates);
  EXPECT_EQ(view.tables, rc.view.tables);
  EXPECT_EQ(view.dff_init_masked, rc.view.dff_init_masked);
  EXPECT_EQ(view.dff_corrections, rc.view.dff_corrections);
  EXPECT_EQ(view.output_flips, rc.view.output_flips);

  const auto full = proto::parse_reusable(full_bytes.data(),
                                          full_bytes.size());
  EXPECT_EQ(full.view.tables, rc.view.tables);
  EXPECT_EQ(full.garbler_flips, rc.garbler_flips);
  EXPECT_EQ(full.evaluator_flips, rc.evaluator_flips);
}

// The full MXREUS1 layout (the spool-persisted artifact) is pinned: the
// seeded artifact must encode to the exact bytes (length and SHA-256)
// below, and re-encode identically after a parse.
TEST(ReusableIo, SerializedFormatIsPinned) {
  const auto rc = sample_artifact();
  const auto bytes = proto::serialize_reusable(rc);
  EXPECT_EQ(bytes.size(), 155u);
  EXPECT_EQ(
      crypto::Sha256::hex(crypto::Sha256::hash(bytes.data(), bytes.size())),
      "4a07e2acd2b019ee842f77bc1bd703b3d206ca121a1a41f3d5d2e5e8601f0dca");
  const auto back = proto::parse_reusable(bytes.data(), bytes.size());
  EXPECT_EQ(proto::serialize_reusable(back), bytes);
}

TEST(ReusableIo, FramingFlagsAreMutuallyExclusive) {
  const auto rc = sample_artifact();
  const auto view_bytes = proto::serialize_reusable_view(rc.view);
  const auto full_bytes = proto::serialize_reusable(rc);
  // A client must refuse a secrets-bearing blob outright.
  EXPECT_THROW(proto::parse_reusable_view(full_bytes.data(),
                                          full_bytes.size()),
               proto::ReusableFormatError);
  // The spool loader must refuse a secrets-free blob.
  EXPECT_THROW(proto::parse_reusable(view_bytes.data(), view_bytes.size()),
               proto::ReusableFormatError);
}

TEST(ReusableIo, EveryTruncationThrowsTyped) {
  const auto rc = sample_artifact();
  for (const auto& blob :
       {proto::serialize_reusable_view(rc.view), proto::serialize_reusable(rc)}) {
    for (std::size_t len = 0; len < blob.size(); ++len) {
      EXPECT_THROW(proto::parse_reusable_view(blob.data(), len),
                   proto::ReusableFormatError)
          << "len=" << len;
      EXPECT_THROW(proto::parse_reusable(blob.data(), len),
                   proto::ReusableFormatError)
          << "len=" << len;
    }
  }
}

TEST(ReusableIo, TrailingBytesAreRejected) {
  const auto rc = sample_artifact();
  auto blob = proto::serialize_reusable_view(rc.view);
  blob.push_back(0);
  EXPECT_THROW(proto::parse_reusable_view(blob.data(), blob.size()),
               proto::ReusableFormatError);
}

TEST(ReusableIo, EveryByteMutationIsHandled) {
  const auto rc = sample_artifact();
  const auto blob = proto::serialize_reusable_view(rc.view);
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (const std::uint8_t mut : {std::uint8_t{0x80}, std::uint8_t{0x00},
                                   std::uint8_t{0xff}}) {
      auto copy = blob;
      copy[pos] = mut == 0x80 ? static_cast<std::uint8_t>(copy[pos] ^ 0x80)
                              : mut;
      if (copy == blob) continue;
      try {
        (void)proto::parse_reusable_view(copy.data(), copy.size());
      } catch (const proto::ReusableFormatError&) {
        // Typed rejection is the expected common case.
      }
      // Anything else escaping (bad_alloc, segfault) fails the test run.
    }
  }
}

TEST(ReusableIo, HostileCountsRejectedBeforeAllocation) {
  const auto rc = sample_artifact();
  auto blob = proto::serialize_reusable_view(rc.view);
  const std::size_t gates_off = 8 + 1 + 4 + 32;  // magic|flag|bits|sha
  const auto stamp_u64 = [&](std::size_t off, std::uint64_t v) {
    auto copy = blob;
    std::memcpy(copy.data() + off, &v, 8);
    EXPECT_THROW(proto::parse_reusable_view(copy.data(), copy.size()),
                 proto::ReusableFormatError)
        << "off=" << off << " v=" << v;
  };
  stamp_u64(gates_off, ~0ull);                  // gate count
  stamp_u64(gates_off, proto::kMaxReusableGates + 1);
  stamp_u64(gates_off + 8, ~0ull);              // table slots
  stamp_u64(gates_off + 16, ~0ull);             // garbler inputs
  stamp_u64(gates_off + 24, proto::kMaxReusableInputs + 1);
  stamp_u64(gates_off + 32, ~0ull);             // outputs
  stamp_u64(gates_off + 40, proto::kMaxReusableDffs + 1);
}

// A reusable session's setup is the v3 setup record with an
// artifact-offer record stapled after it. These helpers push records
// through a channel pair and return the bytes (or parse them back), so
// the composed layout is checked byte for byte against the one the
// reusable setup has always had on the wire.
template <class Send>
std::vector<std::uint8_t> wire_bytes(Send&& send) {
  auto [tx, rx] = proto::MemoryChannel::create_pair();
  send(*tx);
  std::vector<std::uint8_t> buf(tx->bytes_sent());
  rx->recv_bytes(buf.data(), buf.size());
  return buf;
}

std::unique_ptr<proto::MemoryChannel> holding(
    const std::vector<std::uint8_t>& bytes, std::size_t len) {
  auto [tx, rx] = proto::MemoryChannel::create_pair();
  tx->send_bytes(bytes.data(), len);
  return std::move(rx);
}

std::vector<std::uint8_t> client_setup_wire(
    const proto::V3ClientSetup& cs, const proto::ClientArtifactOffer& o) {
  return wire_bytes([&](proto::Channel& ch) {
    proto::send_client_setup(ch, cs);
    proto::send_client_offer(ch, o);
  });
}

std::pair<proto::V3ClientSetup, proto::ClientArtifactOffer> recv_client_side(
    const std::vector<std::uint8_t>& bytes, std::size_t len) {
  auto rx = holding(bytes, len);
  const proto::V3ClientSetup cs = proto::recv_client_setup(*rx);
  return {cs, proto::recv_client_offer(*rx)};
}

TEST(ReusableIo, ClientSetupRoundtripAndRejects) {
  proto::ClientArtifactOffer o;
  o.has_artifact = true;
  for (std::size_t i = 0; i < o.sha.size(); ++i)
    o.sha[i] = static_cast<std::uint8_t>(i);
  const auto buf = client_setup_wire(proto::V3ClientSetup{8192, 100}, o);
  // extended u64 | watermark u64 | has_artifact u8 | sha 32B
  ASSERT_EQ(buf.size(), 8u + 8 + 1 + 32);
  ASSERT_EQ(buf.size(), proto::V3ClientSetup::kWireSize +
                            proto::ClientArtifactOffer::kWireSize);
  std::uint64_t extended = 0, watermark = 0;
  std::memcpy(&extended, buf.data(), 8);
  std::memcpy(&watermark, buf.data() + 8, 8);
  EXPECT_EQ(extended, 8192u);
  EXPECT_EQ(watermark, 100u);
  EXPECT_EQ(buf[16], 1);
  EXPECT_EQ(std::memcmp(buf.data() + 17, o.sha.data(), 32), 0);

  const auto [cs, back] = recv_client_side(buf, buf.size());
  EXPECT_EQ(cs.extended, 8192u);
  EXPECT_EQ(cs.watermark, 100u);
  EXPECT_TRUE(back.has_artifact);
  EXPECT_EQ(back.sha, o.sha);

  // The records are fixed-size: a truncated setup never yields one.
  for (std::size_t len = 0; len < buf.size(); ++len)
    EXPECT_THROW((void)recv_client_side(buf, len), std::runtime_error);
  auto bad = buf;
  bad[16] = 2;  // artifact flag not boolean
  EXPECT_THROW((void)recv_client_side(bad, bad.size()),
               proto::ReusableFormatError);
  const auto inverted = client_setup_wire(proto::V3ClientSetup{1, 2},
                                          proto::ClientArtifactOffer{});
  EXPECT_THROW((void)recv_client_side(inverted, inverted.size()),
               proto::V3FormatError);
}

TEST(ReusableIo, ServerSetupRoundtripAndRejects) {
  proto::V3ServerSetup ss;
  ss.fresh = true;
  ss.pool_id = 77;
  ss.cookie = crypto::Block{123, 456};
  ss.start_index = 4096;
  ss.claim_count = 96;
  ss.extend_count = 8192;
  proto::ServerArtifactOffer o;
  o.artifact_bytes = 1234;
  for (std::size_t i = 0; i < o.sha.size(); ++i)
    o.sha[i] = static_cast<std::uint8_t>(255 - i);
  const auto buf = wire_bytes([&](proto::Channel& ch) {
    proto::send_server_setup(ch, ss);
    proto::send_server_offer(ch, o);
  });
  // fresh u8 | pool_id u64 | cookie 16B | start u64 | claim u64
  // | extend u64 | artifact_bytes u64 | sha 32B
  ASSERT_EQ(buf.size(), 1u + 8 + 16 + 8 + 8 + 8 + 8 + 32);
  std::uint64_t artifact_bytes = 0;
  std::memcpy(&artifact_bytes, buf.data() + 49, 8);
  EXPECT_EQ(artifact_bytes, 1234u);
  EXPECT_EQ(std::memcmp(buf.data() + 57, o.sha.data(), 32), 0);

  const auto recv_server_side = [](const std::vector<std::uint8_t>& bytes,
                                   std::size_t len) {
    auto rx = holding(bytes, len);
    const proto::V3ServerSetup s = proto::recv_server_setup(*rx);
    return std::make_pair(s, proto::recv_server_offer(*rx));
  };
  const auto [back, back_offer] = recv_server_side(buf, buf.size());
  EXPECT_EQ(back.fresh, ss.fresh);
  EXPECT_EQ(back.pool_id, ss.pool_id);
  EXPECT_EQ(back.cookie, ss.cookie);
  EXPECT_EQ(back.start_index, ss.start_index);
  EXPECT_EQ(back.claim_count, ss.claim_count);
  EXPECT_EQ(back.extend_count, ss.extend_count);
  EXPECT_EQ(back_offer.artifact_bytes, o.artifact_bytes);
  EXPECT_EQ(back_offer.sha, o.sha);

  for (std::size_t len = 0; len < buf.size(); ++len)
    EXPECT_THROW((void)recv_server_side(buf, len), std::runtime_error);

  const auto stamp = [&](std::size_t off, std::uint64_t v, auto error) {
    auto copy = buf;
    std::memcpy(copy.data() + off, &v, 8);
    EXPECT_THROW((void)recv_server_side(copy, copy.size()), decltype(error))
        << "off=" << off;
  };
  stamp(1 + 8 + 16 + 8, ot::kMaxPoolExtend + 1,  // claim count
        proto::V3FormatError(""));
  stamp(1 + 8 + 16 + 16, ~0ull, proto::V3FormatError(""));  // extend count
  stamp(1 + 8 + 16 + 24, proto::kMaxReusableArtifactBytes + 1,
        proto::ReusableFormatError(""));
  auto bad = buf;
  bad[0] = 7;  // fresh flag not boolean
  EXPECT_THROW((void)recv_server_side(bad, bad.size()), proto::V3FormatError);
}

}  // namespace
}  // namespace maxel
