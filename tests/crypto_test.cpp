// Unit tests for the crypto substrate: AES-128 known-answer vectors,
// block algebra, SHA-256 vectors, PRG behaviour, and the statistical
// quality of the ring-oscillator RNG model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/block.hpp"
#include "crypto/gc_hash.hpp"
#include "crypto/prg.hpp"
#include "crypto/randomness_tests.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"

namespace maxel::crypto {
namespace {

Block block_from_hex_bytes(const std::uint8_t (&b)[16]) {
  return Block::from_bytes(b);
}

TEST(Block, XorAndEquality) {
  const Block a{0x1234, 0x5678};
  const Block b{0xFFFF, 0x0001};
  EXPECT_EQ((a ^ b) ^ b, a);
  EXPECT_EQ(a ^ Block::zero(), a);
  EXPECT_NE(a, b);
  EXPECT_TRUE((a ^ a).is_zero());
}

TEST(Block, LsbIsColorBit) {
  EXPECT_TRUE(Block(1, 0).lsb());
  EXPECT_FALSE(Block(2, 0).lsb());
  EXPECT_FALSE(Block(0, 1).lsb());
}

TEST(Block, BytesRoundTrip) {
  const Block a{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  std::uint8_t buf[16];
  a.to_bytes(buf);
  EXPECT_EQ(Block::from_bytes(buf), a);
  EXPECT_EQ(buf[0], 0xEF);  // little-endian low limb first
}

TEST(Block, GfDoubleMatchesPolynomialArithmetic) {
  // 2 * 1 = x.
  EXPECT_EQ(Block(1, 0).gf_double(), Block(2, 0));
  // Doubling the top bit wraps to the reduction polynomial 0x87.
  EXPECT_EQ(Block(0, 0x8000000000000000ull).gf_double(), Block(0x87, 0));
  // Linearity: 2(a ^ b) == 2a ^ 2b.
  const Block a{0xDEADBEEFCAFEBABEull, 0x0123456789ABCDEFull};
  const Block b{0x1122334455667788ull, 0x99AABBCCDDEEFF00ull};
  EXPECT_EQ((a ^ b).gf_double(), a.gf_double() ^ b.gf_double());
}

TEST(Aes128, Fips197KnownAnswer) {
  const std::uint8_t key_bytes[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05,
                                      0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                                      0x0c, 0x0d, 0x0e, 0x0f};
  const std::uint8_t pt_bytes[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                     0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                     0xcc, 0xdd, 0xee, 0xff};
  const std::uint8_t expect_ct[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                      0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                      0x70, 0xb4, 0xc5, 0x5a};
  const Aes128 aes(block_from_hex_bytes(key_bytes));
  const Block ct = aes.encrypt(block_from_hex_bytes(pt_bytes));
  EXPECT_EQ(ct, block_from_hex_bytes(expect_ct));
}

TEST(Aes128, NistAesAvsVector) {
  // AESAVS GFSbox: key = 0, pt = f34481ec3cc627bacd5dc3fb08f273e6
  // -> ct = 0336763e966d92595a567cc9ce537f5e.
  const std::uint8_t pt_bytes[16] = {0xf3, 0x44, 0x81, 0xec, 0x3c, 0xc6,
                                     0x27, 0xba, 0xcd, 0x5d, 0xc3, 0xfb,
                                     0x08, 0xf2, 0x73, 0xe6};
  const std::uint8_t ct_bytes[16] = {0x03, 0x36, 0x76, 0x3e, 0x96, 0x6d,
                                     0x92, 0x59, 0x5a, 0x56, 0x7c, 0xc9,
                                     0xce, 0x53, 0x7f, 0x5e};
  const Aes128 aes(Block::zero());
  EXPECT_EQ(aes.encrypt(block_from_hex_bytes(pt_bytes)),
            block_from_hex_bytes(ct_bytes));
}

TEST(Aes128, Encrypt4MatchesScalar) {
  const Aes128 aes;
  Block in[4] = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  Block out[4];
  aes.encrypt4(in, out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], aes.encrypt(in[i]));
}

TEST(Aes128, DifferentKeysDiffer) {
  const Aes128 a(Block{1, 0});
  const Aes128 b(Block{2, 0});
  EXPECT_NE(a.encrypt(Block::zero()), b.encrypt(Block::zero()));
}

// Pins a backend for the scope of a test and restores auto-detection.
struct ScopedBackend {
  explicit ScopedBackend(AesBackend b) { set_aes_backend(b); }
  ~ScopedBackend() { set_aes_backend(AesBackend::kAuto); }
};

TEST(AesBackend, ActiveBackendIsConcrete) {
  EXPECT_NE(aes_active_backend(), AesBackend::kAuto);
  // Pinning the table backend always works; pinning aesni falls back to
  // table when unsupported instead of crashing.
  {
    ScopedBackend pin(AesBackend::kTable);
    EXPECT_EQ(aes_active_backend(), AesBackend::kTable);
  }
  {
    ScopedBackend pin(AesBackend::kAesni);
    EXPECT_EQ(aes_active_backend(),
              aesni_supported() ? AesBackend::kAesni : AesBackend::kTable);
  }
}

TEST(AesBackend, SetBackendTakesEffectAfterFirstUse) {
  // kAuto resolves once, at first use; an explicit pin must still switch
  // the backend of every later call, and back again.
  const Aes128 aes;
  const Block pt{0x0123, 0x4567};
  const Block ct_auto = aes.encrypt(pt);
  const AesBackend auto_backend = aes_active_backend();
  {
    ScopedBackend pin(AesBackend::kTable);
    EXPECT_EQ(aes_active_backend(), AesBackend::kTable);
    EXPECT_EQ(aes.encrypt(pt), ct_auto);
  }
  EXPECT_EQ(aes_active_backend(), auto_backend);
  EXPECT_EQ(aes.encrypt(pt), ct_auto);
}

TEST(AesBackend, AesniMatchesTableOnFips197) {
  if (!aesni_supported()) GTEST_SKIP() << "no AES-NI on this host/build";
  const std::uint8_t key_bytes[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05,
                                      0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                                      0x0c, 0x0d, 0x0e, 0x0f};
  const std::uint8_t pt_bytes[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                     0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                     0xcc, 0xdd, 0xee, 0xff};
  const std::uint8_t expect_ct[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                      0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                      0x70, 0xb4, 0xc5, 0x5a};
  const Aes128 aes(block_from_hex_bytes(key_bytes));
  const Block pt = block_from_hex_bytes(pt_bytes);
  Block ct_table, ct_ni;
  {
    ScopedBackend pin(AesBackend::kTable);
    ct_table = aes.encrypt(pt);
  }
  {
    ScopedBackend pin(AesBackend::kAesni);
    ct_ni = aes.encrypt(pt);
  }
  EXPECT_EQ(ct_table, block_from_hex_bytes(expect_ct));
  EXPECT_EQ(ct_ni, block_from_hex_bytes(expect_ct));
}

TEST(AesBackend, AesniMatchesTableOn10kRandomBlocks) {
  if (!aesni_supported()) GTEST_SKIP() << "no AES-NI on this host/build";
  constexpr std::size_t kN = 10000;
  // Raw counter blocks as inputs (a PRG would itself call AES through
  // the backend under test).
  std::vector<Block> in(kN);
  for (std::size_t i = 0; i < kN; ++i)
    in[i] = Block{0x9E3779B97F4A7C15ull * (i + 1), ~static_cast<std::uint64_t>(i)};

  const Aes128 aes;
  std::vector<Block> out_table(kN), out_ni(kN);
  {
    ScopedBackend pin(AesBackend::kTable);
    aes.encrypt_batch(in.data(), out_table.data(), kN);
  }
  {
    ScopedBackend pin(AesBackend::kAesni);
    aes.encrypt_batch(in.data(), out_ni.data(), kN);
    // Odd batch tails exercise the 8/4/2/1-wide ladder.
    std::vector<Block> odd(kN);
    aes.encrypt_batch(in.data(), odd.data(), kN - 3);
    for (std::size_t i = 0; i < kN - 3; ++i) ASSERT_EQ(odd[i], out_ni[i]);
  }
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out_table[i], out_ni[i]) << i;
}

TEST(Aes128, EncryptBatchMatchesScalarAllSizes) {
  const Aes128 aes;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{7}, std::size_t{8}, std::size_t{9},
                        std::size_t{17}, std::size_t{33}}) {
    std::vector<Block> in(n), out(n);
    for (std::size_t i = 0; i < n; ++i) in[i] = Block{i * 1234567, i};
    aes.encrypt_batch(in.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], aes.encrypt(in[i]));
  }
}

TEST(GcHash, HashBatchMatchesScalar) {
  const GcHash h;
  constexpr std::size_t kN = 37;  // spans two internal chunks
  std::vector<Block> x(kN), t(kN), out(kN);
  Prg prg(Block{11, 13});
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = prg.next_block();
    t[i] = Block{2 * i, i};
  }
  h.hash_batch(x.data(), t.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], h(x[i], t[i]));
}

TEST(GcHash, HashMaskedBatchMatchesTwoInputVariant) {
  const GcHash h;
  const Block a{0xAAA, 1}, b{0xBBB, 2}, t{6, 3};
  Block m = a.gf_double().gf_double() ^ b.gf_double() ^ t;
  Block out;
  h.hash_masked_batch(&m, &out, 1);
  EXPECT_EQ(out, h(a, b, t));
}

TEST(GcHash, TweakSeparatesOutputs) {
  const GcHash h;
  const Block x{0x1111, 0x2222};
  EXPECT_NE(h(x, Block{0, 0}), h(x, Block{1, 0}));
  EXPECT_NE(h(x, Block{0, 0}), h(x ^ Block{1, 0}, Block{0, 0}));
}

TEST(GcHash, TwoInputVariantDependsOnBoth) {
  const GcHash h;
  const Block a{1, 0}, b{2, 0}, t{3, 0};
  EXPECT_NE(h(a, b, t), h(b, a, t));
  EXPECT_NE(h(a, b, t), h(a, b, Block{4, 0}));
}

TEST(Sha256, EmptyString) {
  Sha256 h;
  EXPECT_EQ(Sha256::hex(h.digest()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  Sha256 h;
  h.update("abc");
  EXPECT_EQ(Sha256::hex(h.digest()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  Sha256 h;
  h.update("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(Sha256::hex(h.digest()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Sha256 a;
  a.update(msg);
  Sha256 b;
  for (char c : msg) b.update(std::string(1, c));
  EXPECT_EQ(a.digest(), b.digest());
}

// Pins a SHA-256 backend for the scope of a test and restores detection.
struct ScopedSha256Backend {
  explicit ScopedSha256Backend(Sha256Backend b) { set_sha256_backend(b); }
  ~ScopedSha256Backend() { set_sha256_backend(Sha256Backend::kAuto); }
};

// The FIPS 180-4 example messages, hashed through one backend.
void expect_fips180_vectors(Sha256Backend backend) {
  const ScopedSha256Backend pin(backend);
  ASSERT_EQ(sha256_active_backend(), backend);
  const auto hex_of = [](const std::string& msg) {
    Sha256 h;
    h.update(msg);
    return Sha256::hex(h.digest());
  };
  EXPECT_EQ(hex_of(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_of("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                   "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(hex_of(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Backend, ActiveBackendIsConcrete) {
  EXPECT_NE(sha256_active_backend(), Sha256Backend::kAuto);
  {
    const ScopedSha256Backend pin(Sha256Backend::kPortable);
    EXPECT_EQ(sha256_active_backend(), Sha256Backend::kPortable);
  }
  {
    const ScopedSha256Backend pin(Sha256Backend::kShani);
    EXPECT_EQ(sha256_active_backend(), shani_supported()
                                           ? Sha256Backend::kShani
                                           : Sha256Backend::kPortable);
  }
}

TEST(Sha256Backend, PortablePassesFips180Vectors) {
  expect_fips180_vectors(Sha256Backend::kPortable);
}

TEST(Sha256Backend, ShaniPassesFips180Vectors) {
  if (!shani_supported()) GTEST_SKIP() << "no SHA extensions on this CPU";
  expect_fips180_vectors(Sha256Backend::kShani);
}

// Random messages of every length 0..300 and one spool-session-sized
// buffer, each fed through random update() splits: every backend must
// give the portable one-shot digest.
TEST(Sha256Backend, BackendsAgreeOnEveryLengthAndSplit) {
  Prg prg(Block{0x5A256, 0x1});
  std::vector<std::vector<std::uint8_t>> msgs;
  for (std::size_t len = 0; len <= 300; ++len) msgs.emplace_back(len);
  msgs.emplace_back(572'600);
  for (auto& m : msgs)
    for (auto& b : m) b = static_cast<std::uint8_t>(prg.next_u64());

  std::vector<Sha256Backend> backends{Sha256Backend::kPortable};
  if (shani_supported()) backends.push_back(Sha256Backend::kShani);
  for (const auto& m : msgs) {
    std::array<std::uint8_t, 32> want{};
    {
      const ScopedSha256Backend pin(Sha256Backend::kPortable);
      want = Sha256::hash(m.data(), m.size());
    }
    for (const Sha256Backend backend : backends) {
      const ScopedSha256Backend pin(backend);
      EXPECT_EQ(Sha256::hash(m.data(), m.size()), want)
          << sha256_backend_name(backend) << " one-shot, len " << m.size();
      Sha256 h;
      std::size_t at = 0;
      while (at < m.size()) {
        const std::size_t step = std::min<std::size_t>(
            m.size() - at, prg.next_u64() % (m.size() > 300 ? 9000 : 130));
        h.update(m.data() + at, step);
        at += step;
      }
      EXPECT_EQ(h.digest(), want)
          << sha256_backend_name(backend) << " split, len " << m.size();
    }
  }
}

TEST(Prg, DeterministicFromSeed) {
  Prg a(Block{42, 0});
  Prg b(Block{42, 0});
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_block(), b.next_block());
}

TEST(Prg, FillIsTheNextBlockStream) {
  // fill() batches its AES calls but must emit exactly the bytes of
  // repeated next_block(), a partial last block consuming its counter.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{127}, std::size_t{128}, std::size_t{129},
        std::size_t{1000}}) {
    Prg a(Block{5, n});
    Prg b(Block{5, n});
    std::vector<std::uint8_t> got(n);
    a.fill(got.data(), n);
    std::vector<std::uint8_t> want;
    while (want.size() < n) {
      std::uint8_t buf[16];
      b.next_block().to_bytes(buf);
      want.insert(want.end(), buf, buf + 16);
    }
    want.resize(n);
    EXPECT_EQ(got, want) << "n " << n;
    EXPECT_EQ(a.next_block(), b.next_block()) << "n " << n;
  }
}

TEST(Prg, DifferentSeedsDiverge) {
  Prg a(Block{42, 0});
  Prg b(Block{43, 0});
  EXPECT_NE(a.next_block(), b.next_block());
}

TEST(Prg, NextBelowIsInRange) {
  Prg p(Block{7, 7});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(p.next_below(13), 13u);
  }
}

TEST(Prg, BitsLengthAndDeterminism) {
  Prg a(Block{9, 9});
  Prg b(Block{9, 9});
  const auto bits_a = a.bits(777);
  const auto bits_b = b.bits(777);
  ASSERT_EQ(bits_a.size(), 777u);
  EXPECT_EQ(bits_a, bits_b);
}

TEST(SystemRandom, SeededReproducible) {
  SystemRandom a(Block{5, 5});
  SystemRandom b(Block{5, 5});
  EXPECT_EQ(a.next_block(), b.next_block());
}

TEST(RandomDelta, LsbAlwaysSet) {
  SystemRandom rng(Block{11, 0});
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(random_delta(rng).lsb());
}

TEST(RingOscillatorRng, PassesRandomnessBattery) {
  // The paper validates its RO-RNG with the NIST battery; our behavioural
  // model should clear the same bar at these jitter settings.
  RingOscillatorRng rng;
  std::vector<bool> bits;
  bits.reserve(1 << 15);
  for (int i = 0; i < (1 << 15); ++i) bits.push_back(rng.sample_bit());
  const auto report = run_battery(bits);
  EXPECT_TRUE(report.passes(0.01))
      << "monobit=" << report.monobit_p << " runs=" << report.runs_p
      << " poker=" << report.poker_p;
  EXPECT_GT(report.entropy_per_bit, 0.99);
  EXPECT_LT(std::abs(report.serial_corr), 0.05);
}

TEST(RingOscillatorRng, PowerGatingCounters) {
  RingOscillatorRng rng;
  (void)rng.sample_bit();
  (void)rng.sample_bit();
  rng.idle_cycle();
  EXPECT_EQ(rng.cycles_active(), 2u);
  EXPECT_EQ(rng.cycles_gated(), 1u);
}

TEST(RingOscillatorRng, BlocksAreDistinct) {
  RingOscillatorRng rng;
  std::set<std::string> seen;
  for (int i = 0; i < 16; ++i) seen.insert(rng.next_block().hex());
  EXPECT_EQ(seen.size(), 16u);
}


TEST(RandomnessBattery, BlockFrequencyAndCusum) {
  // Good stream: AES-CTR PRG output passes both extended tests.
  Prg prg(Block{0xBA77, 0});
  const auto good = prg.bits(1 << 15);
  EXPECT_GT(block_frequency_test(good), 0.01);
  EXPECT_GT(cusum_test(good), 0.01);

  // Locally-biased stream: balanced overall (monobit-clean) but with
  // long one-heavy then zero-heavy halves — block frequency and cusum
  // must both catch it.
  std::vector<bool> drift(1 << 14);
  for (std::size_t i = 0; i < drift.size(); ++i) {
    const bool first_half = i < drift.size() / 2;
    drift[i] = first_half ? (i % 4 != 0) : (i % 4 == 0);  // 75% then 25%
  }
  EXPECT_GT(monobit_test(drift), 0.01);  // fooled by global balance
  EXPECT_LT(block_frequency_test(drift), 0.01);
  EXPECT_LT(cusum_test(drift), 0.01);
}

TEST(RandomnessBattery, RoRngPassesExtendedTests) {
  RingOscillatorRng rng;
  std::vector<bool> bits;
  bits.reserve(1 << 14);
  for (int i = 0; i < (1 << 14); ++i) bits.push_back(rng.sample_bit());
  EXPECT_GT(block_frequency_test(bits), 0.001);
  EXPECT_GT(cusum_test(bits), 0.001);
}

TEST(RandomnessBattery, RejectsConstantStream) {
  const std::vector<bool> zeros(4096, false);
  EXPECT_FALSE(run_battery(zeros).passes());
}

TEST(RandomnessBattery, RejectsAlternatingStream) {
  std::vector<bool> alt(4096);
  for (std::size_t i = 0; i < alt.size(); ++i) alt[i] = (i % 2) == 0;
  // Perfectly balanced, so monobit passes, but runs must fail.
  EXPECT_LT(runs_test(alt), 0.01);
}

}  // namespace
}  // namespace maxel::crypto
