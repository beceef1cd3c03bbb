// Cross-session correlated-OT pool (ot/pool.hpp): correlation algebra,
// derandomized label transfer, claim accounting (never-reuse), the
// client-side replay watermark, chunked pad release and its memory bound,
// and concurrent claimers against one extender.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"

namespace maxel::ot {
namespace {

using crypto::Block;
using crypto::SystemRandom;
using proto::MemoryChannel;

// SHA-256 of the receiver pads in OtPool.ReceiverPadsArePinned.
constexpr const char* kReceiverPadsDigest =
    "321c0df4256e7a636a7d70ea5435806de7bd6327ecc7120f66470c01d907b9ed";

struct PoolPair {
  std::unique_ptr<MemoryChannel> s_ch, r_ch;
  SystemRandom s_rng;
  SystemRandom r_rng;
  Block delta;
  std::unique_ptr<CorrelatedPoolSender> sender;
  CorrelatedPoolReceiver receiver;

  explicit PoolPair(std::uint64_t seed = 7)
      : s_rng(Block{1, seed}), r_rng(Block{3, seed}) {
    auto [a, b] = MemoryChannel::create_pair();
    s_ch = std::move(a);
    r_ch = std::move(b);
    SystemRandom d_rng(Block{seed, 0xD317A});
    delta = d_rng.next_block();
    delta.lo |= 1;
    sender = std::make_unique<CorrelatedPoolSender>(delta, /*pool_id=*/seed);
    pool_base_setup(*sender, receiver, *s_ch, *r_ch, s_rng, r_rng);
  }

  void extend(std::size_t n) {
    receiver.extend(*r_ch, n);
    sender->extend(*s_ch, n);
  }
};

TEST(OtPool, CorrelationHoldsForEveryIndex) {
  PoolPair p;
  p.extend(300);  // deliberately not a multiple of 8
  ASSERT_EQ(p.sender->extended(), 300u);
  ASSERT_EQ(p.receiver.extended(), 300u);
  for (std::uint64_t j = 0; j < 300; ++j) {
    const Block q = p.sender->pad(j);
    const Block t = p.receiver.pad(j);
    if (p.receiver.choice(j))
      EXPECT_EQ((t ^ q).hex(), p.delta.hex()) << "index " << j;
    else
      EXPECT_EQ(t.hex(), q.hex()) << "index " << j;
  }
}

TEST(OtPool, DerandomizedTransferYieldsActiveLabel) {
  // The session-layer use: server wants the client to end up with
  // L0 ^ c*delta for the client's true choice c.
  PoolPair p;
  p.extend(64);
  crypto::Prg data(Block{0xC0, 0x1C});
  for (std::uint64_t j = 0; j < 64; ++j) {
    const bool c = data.next_bit();
    const Block l0 = data.next_block();
    const bool d = c != p.receiver.choice(j);  // client reveals d = c ^ r
    Block z = p.sender->pad(j) ^ l0;
    if (d) z ^= p.sender->delta();
    const Block got = p.receiver.pad(j) ^ z;
    const Block want = c ? l0 ^ p.delta : l0;
    EXPECT_EQ(got.hex(), want.hex()) << "index " << j;
  }
}

TEST(OtPool, MultipleExtensionsStayConsistent) {
  PoolPair p;
  p.extend(128);
  p.extend(17);
  p.extend(8192);
  ASSERT_EQ(p.sender->extended(), 128u + 17 + 8192);
  for (const std::uint64_t j : {0ull, 127ull, 128ull, 144ull, 8336ull}) {
    const Block want = p.receiver.choice(j) ? p.sender->pad(j) ^ p.delta
                                            : p.sender->pad(j);
    EXPECT_EQ(p.receiver.pad(j).hex(), want.hex()) << "index " << j;
  }
}

TEST(OtPool, ClaimsAreMonotoneAndNeverOverlap) {
  PoolPair p;
  p.extend(256);
  std::set<std::uint64_t> handed_out;
  const PoolClaim a = p.sender->claim(100);
  const PoolClaim b = p.sender->claim(50);
  for (const auto& c : {a, b})
    for (std::uint64_t j = c.start; j < c.start + c.count; ++j)
      EXPECT_TRUE(handed_out.insert(j).second) << "index reused: " << j;
  const PoolStats st = p.sender->stats();
  EXPECT_EQ(st.claimed, 150u);
  EXPECT_EQ(st.available(), 106u);
  p.sender->consume(a);
  p.sender->discard(b);
  const PoolStats st2 = p.sender->stats();
  EXPECT_EQ(st2.claimed, 0u);
  EXPECT_EQ(st2.consumed, 100u);
  EXPECT_EQ(st2.discarded, 50u);
  // A discarded range is burned: the next claim starts above it.
  const PoolClaim c = p.sender->claim(10);
  EXPECT_GE(c.start, b.start + b.count);
}

TEST(OtPool, ExhaustionAndBadCountsAreTyped) {
  PoolPair p;
  p.extend(32);
  EXPECT_THROW((void)p.sender->claim(33), std::runtime_error);
  EXPECT_THROW(p.receiver.extend(*p.r_ch, 0), std::runtime_error);
  EXPECT_THROW(p.receiver.extend(*p.r_ch, kMaxPoolExtend + 1),
               std::runtime_error);
  EXPECT_THROW(p.sender->extend(*p.s_ch, 0), std::runtime_error);
  CorrelatedPoolSender cold(Block{1, 0}, 0);
  EXPECT_THROW(cold.extend(*p.s_ch, 8), std::logic_error);
  CorrelatedPoolReceiver cold_r;
  EXPECT_THROW(cold_r.extend(*p.r_ch, 8), std::logic_error);
  EXPECT_THROW(CorrelatedPoolSender(Block{2, 0}, 0), std::invalid_argument);
}

TEST(OtPool, WatermarkRejectsReplayAndOverrun) {
  PoolPair p;
  p.extend(128);
  p.receiver.mark_consumed(0, 40);
  EXPECT_EQ(p.receiver.watermark(), 40u);
  // Replay of any index below the watermark aborts.
  EXPECT_THROW(p.receiver.mark_consumed(39, 1), std::runtime_error);
  EXPECT_THROW(p.receiver.mark_consumed(0, 128), std::runtime_error);
  // Gaps are fine (server burned a claim on a failed session).
  p.receiver.mark_consumed(64, 32);
  EXPECT_EQ(p.receiver.watermark(), 96u);
  // Past the materialized end.
  EXPECT_THROW(p.receiver.mark_consumed(120, 9), std::runtime_error);
}

TEST(OtPool, DiscardedClaimNeverResurfaces) {
  // The retry story: a session claims, dies, the pool discards; the next
  // session's claim must sit strictly above — byte-for-byte fresh pads.
  PoolPair p;
  p.extend(512);
  const PoolClaim dead = p.sender->claim(128);
  std::vector<Block> dead_pads;
  for (std::uint64_t j = dead.start; j < dead.start + dead.count; ++j)
    dead_pads.push_back(p.sender->pad(j));
  p.sender->discard(dead);
  const PoolClaim retry = p.sender->claim(128);
  EXPECT_EQ(retry.start, dead.start + dead.count);
  for (std::uint64_t j = retry.start; j < retry.start + retry.count; ++j)
    for (const Block& old : dead_pads)
      EXPECT_FALSE(p.sender->pad(j) == old);
}

TEST(OtPool, PadsLookIndependentAcrossPools) {
  // Two pools with the same delta still derive unrelated pads (base OT
  // randomness), and within a pool pads never repeat.
  PoolPair a(11), b(12);
  a.extend(64);
  b.extend(64);
  std::set<std::string> seen;
  for (std::uint64_t j = 0; j < 64; ++j) {
    EXPECT_TRUE(seen.insert(a.sender->pad(j).hex()).second);
    EXPECT_TRUE(seen.insert(b.sender->pad(j).hex()).second);
  }
}

TEST(OtPool, ReceiverPadsArePinned) {
  // The client's pads t_j are the transposed G(k_i^0) columns, which do
  // not depend on its private choice bits. Pinning them, together with
  // the correlation tests above, pins what an older or newer server
  // derives from the same wire bytes.
  PoolPair p(21);
  p.extend(300);
  p.extend(8192);
  crypto::Sha256 sha;
  for (std::uint64_t j = 0; j < p.receiver.extended(); ++j) {
    std::uint8_t buf[16];
    p.receiver.pad(j).to_bytes(buf);
    sha.update(buf, 16);
  }
  EXPECT_EQ(crypto::Sha256::hex(sha.digest()), kReceiverPadsDigest);
}

TEST(OtPool, EndingAClaimTwiceThrows) {
  // Two open claims of one size: ending the first twice must not
  // silently close the second in its place.
  PoolPair p;
  p.extend(256);
  const PoolClaim a = p.sender->claim(64);
  const PoolClaim b = p.sender->claim(64);
  p.sender->consume(a);
  EXPECT_THROW(p.sender->consume(a), std::logic_error);
  EXPECT_THROW(p.sender->discard(a), std::logic_error);
  EXPECT_THROW(p.sender->consume(PoolClaim{b.start, 63}), std::logic_error);
  EXPECT_THROW(p.sender->discard(PoolClaim{b.start + 1, 64}),
               std::logic_error);
  EXPECT_EQ(p.sender->stats().claimed, 64u);
  p.sender->discard(b);
  EXPECT_THROW(p.sender->discard(b), std::logic_error);
  EXPECT_EQ(p.sender->stats().claimed, 0u);
}

TEST(OtPool, HeldPadsStayWithinOneExtension) {
  // A long-lived identity: 32 extensions, every claim ended. Pads no
  // claim can reach are freed, so residency stays at one extension while
  // extended() keeps counting every index ever materialized.
  PoolPair p;
  constexpr std::size_t kBatch = 1000;
  std::uint64_t claims = 0;
  for (int e = 0; e < 32; ++e) {
    p.extend(kBatch);
    while (p.sender->stats().available() >= 130) {
      const PoolClaim c = p.sender->claim(130);
      if (++claims % 3 == 0)
        p.sender->discard(c);
      else
        p.sender->consume(c);
      p.receiver.mark_consumed(c.start, c.count);
      EXPECT_LE(p.sender->stats().held, kBatch);
      EXPECT_LE(p.receiver.held(), 2 * kBatch);
    }
  }
  const PoolStats st = p.sender->stats();
  EXPECT_EQ(st.extended, 32 * kBatch);
  EXPECT_EQ(p.receiver.extended(), 32 * kBatch);
  EXPECT_EQ(st.claimed, 0u);
  EXPECT_LE(st.held, kBatch);
  EXPECT_LE(p.receiver.held(), kBatch);
}

TEST(OtPool, FreedPadsThrow) {
  PoolPair p;
  p.extend(256);
  p.extend(256);
  const PoolClaim c = p.sender->claim(300);
  EXPECT_NO_THROW((void)p.sender->pad(0));  // open claim keeps it
  p.sender->consume(c);
  // [0, 256) lies wholly below the next claim's start: freed.
  EXPECT_THROW((void)p.sender->pad(0), std::out_of_range);
  EXPECT_THROW((void)p.sender->pad(255), std::out_of_range);
  EXPECT_NO_THROW((void)p.sender->pad(256));
  EXPECT_THROW((void)p.sender->pad(512), std::out_of_range);
  EXPECT_EQ(p.sender->stats().held, 256u);
  EXPECT_EQ(p.sender->extended(), 512u);

  p.receiver.mark_consumed(c.start, c.count);
  EXPECT_NO_THROW((void)p.receiver.pad(0));  // claim in use: readable
  p.receiver.mark_consumed(300, 10);
  EXPECT_THROW((void)p.receiver.pad(0), std::out_of_range);
  EXPECT_THROW((void)p.receiver.choice(255), std::out_of_range);
  EXPECT_NO_THROW((void)p.receiver.choice(256));
}

TEST(OtPool, ReceiverClaimPadsStayValidUntilNextMarkConsumed) {
  PoolPair p;
  p.extend(100);
  p.extend(100);
  p.extend(100);
  // A claim straddling the first two chunks.
  p.receiver.mark_consumed(50, 100);
  std::vector<const Block*> refs;
  for (std::uint64_t j = 50; j < 150; ++j) refs.push_back(&p.receiver.pad(j));
  // Extending and reading the sender side must not move them.
  p.extend(100);
  for (std::uint64_t j = 50; j < 150; ++j) {
    const Block want = p.receiver.choice(j) ? p.sender->pad(j) ^ p.delta
                                            : p.sender->pad(j);
    ASSERT_EQ(*refs[j - 50], want) << "index " << j;
  }
  // The next accepted claim releases what lies wholly below its start.
  p.receiver.mark_consumed(250, 20);
  EXPECT_THROW((void)p.receiver.pad(50), std::out_of_range);
  EXPECT_THROW((void)p.receiver.pad(199), std::out_of_range);
  EXPECT_NO_THROW((void)p.receiver.pad(200));
  EXPECT_EQ(p.receiver.held(), 200u);
}

TEST(OtPool, ConcurrentClaimersWithOneExtender) {
  // Four sessions claim, read pads and end their claims while one thread
  // extends the pool: no claim sees a freed or torn pad, every index is
  // accounted once, and residency ends within one extension.
  PoolPair p;
  // Small chunks, so claims cross chunk ends often while others are open.
  constexpr std::size_t kBatch = 64;
  constexpr int kExtends = 256;
  // MemoryChannel never blocks, so queue the client's columns first; the
  // receiver is then only read, from every thread.
  for (int e = 0; e < kExtends; ++e) p.receiver.extend(*p.r_ch, kBatch);

  std::atomic<bool> extended_all{false};
  std::thread extender([&] {
    for (int e = 0; e < kExtends; ++e) p.sender->extend(*p.s_ch, kBatch);
    extended_all = true;
  });
  std::atomic<std::uint64_t> used{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> claimers;
  for (int t = 0; t < 4; ++t) {
    claimers.emplace_back([&, t] {
      for (std::uint64_t k = 0;; ++k) {
        const bool last_try = extended_all.load();
        PoolClaim c;
        try {
          c = p.sender->claim(17 + static_cast<std::uint64_t>(t));
        } catch (const std::runtime_error&) {
          if (last_try) return;
          std::this_thread::yield();
          continue;
        }
        for (std::uint64_t j = c.start; j < c.start + c.count; ++j) {
          std::this_thread::yield();  // hold the claim, as a session does
          try {
            const Block q = p.sender->pad(j);
            const Block want = p.receiver.choice(j) ? q ^ p.delta : q;
            if (!(p.receiver.pad(j) == want)) ++bad;
          } catch (const std::out_of_range&) {
            ++bad;  // an open claim's pad was freed under it
          }
        }
        used += c.count;
        if (k % 4 == 3)
          p.sender->discard(c);
        else
          p.sender->consume(c);
      }
    });
  }
  extender.join();
  for (auto& th : claimers) th.join();
  EXPECT_EQ(bad.load(), 0);
  const PoolStats st = p.sender->stats();
  EXPECT_EQ(st.extended, kExtends * kBatch);
  EXPECT_EQ(st.claimed, 0u);
  EXPECT_EQ(st.consumed + st.discarded, used.load());
  EXPECT_LT(st.available(), 21u);
  EXPECT_LE(st.held, kBatch);
}

}  // namespace
}  // namespace maxel::ot
