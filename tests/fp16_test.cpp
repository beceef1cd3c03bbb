// FP16 workload family: the binary16 add/mul/MAC netlists are proven
// bit-true against the softfloat golden reference by differential
// testing — a structured operand grid (every exponent x boundary
// mantissas x both signs, so all subnormal/normal/inf/NaN regions and
// their seams are hit) and pinned-seed randomized sweeps, every case
// executed through REAL garbled evaluation (half-gates, fresh labels
// each round) and decoded bit-for-bit. The reference itself is pinned
// against an independent double-precision model: a double holds any
// fp16 sum or product exactly, so double-compute + single RNE
// conversion must agree with the softfloat result everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/fp16.hpp"
#include "circuit/fp16_ref.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "sweep_env.hpp"

namespace maxel::circuit {
namespace {

using crypto::Prg;

// The structured operand grid: all 32 exponents x mantissas
// {0 (power of two / zero / inf), 1 (min fraction), 0x3FF (max
// fraction)} x both signs. Contains +-0, min/max subnormal, 1.0, max
// finite, +-inf and two NaN encodings.
std::vector<std::uint16_t> structured_grid() {
  std::vector<std::uint16_t> v;
  for (unsigned e = 0; e < 32; ++e)
    for (unsigned f : {0x000u, 0x001u, 0x3FFu})
      v.push_back(static_cast<std::uint16_t>((e << 10) | f));
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(static_cast<std::uint16_t>(v[i] | 0x8000u));
  return v;  // 192 operands, 36864 ordered pairs
}

// Independent model: compute in double (exact for fp16 add/mul), then
// one RNE conversion. Signed zeros and NaNs fall out of IEEE double
// semantics. Used to cross-pin the softfloat reference itself.
std::uint16_t double_model_add(std::uint16_t a, std::uint16_t b) {
  return fp16_from_double(fp16_to_double(a) + fp16_to_double(b));
}
std::uint16_t double_model_mul(std::uint16_t a, std::uint16_t b) {
  return fp16_from_double(fp16_to_double(a) * fp16_to_double(b));
}

// Amortized garbled executor: one garbler/evaluator pair per circuit,
// fresh labels every round (garble_round_material), decode through the
// published color map — the full protocol path minus the socket.
class GarbledFp16 {
 public:
  explicit GarbledFp16(const Circuit& c)
      : circ_(c),
        rng_(crypto::Block{0xF9, 0x16}),
        garbler_(circ_, gc::Scheme::kHalfGates, rng_),
        evaluator_(circ_, gc::Scheme::kHalfGates) {}

  std::uint16_t round(std::uint16_t a, std::uint16_t x) {
    const gc::RoundMaterial m = garbler_.garble_round_material();
    // State labels exist only once round 0 is garbled.
    if (!circ_.dffs.empty() && garbler_.rounds_garbled() == 1)
      evaluator_.set_initial_state_labels(garbler_.initial_state_labels());
    std::vector<gc::Block> ga(16), ex(16);
    for (std::size_t i = 0; i < 16; ++i) {
      ga[i] = garbler_.garbler_input_label(i, ((a >> i) & 1u) != 0);
      ex[i] = ((x >> i) & 1u) != 0 ? m.evaluator_pairs[i].second
                                   : m.evaluator_pairs[i].first;
    }
    const auto active = evaluator_.eval_round(m.tables, ga, ex, m.fixed_labels);
    const auto bits = gc::decode_with_map(active, m.output_map);
    return static_cast<std::uint16_t>(from_bits(bits));
  }

 private:
  const Circuit& circ_;
  crypto::SystemRandom rng_;
  gc::CircuitGarbler garbler_;
  gc::StreamingEvaluator evaluator_;
};

TEST(Fp16Reference, AgreesWithDoubleModelOnGrid) {
  const auto grid = structured_grid();
  for (const std::uint16_t a : grid) {
    for (const std::uint16_t b : grid) {
      ASSERT_EQ(fp16_add_reference(a, b), double_model_add(a, b))
          << std::hex << "add a=0x" << a << " b=0x" << b;
      ASSERT_EQ(fp16_mul_reference(a, b), double_model_mul(a, b))
          << std::hex << "mul a=0x" << a << " b=0x" << b;
    }
  }
}

TEST(Fp16Reference, KnownValues) {
  const std::uint16_t one = 0x3C00, two = 0x4000, half = 0x3800;
  EXPECT_EQ(fp16_add_reference(one, one), two);
  EXPECT_EQ(fp16_mul_reference(half, two), one);
  // Smallest subnormal halves to zero (ties-to-even), doubles exactly.
  EXPECT_EQ(fp16_mul_reference(0x0001, half), 0x0000);
  EXPECT_EQ(fp16_mul_reference(0x0001, two), 0x0002);
  // Max finite + 1 ulp-ish overflows to inf; inf - inf is NaN.
  EXPECT_EQ(fp16_add_reference(0x7BFF, 0x7BFF), kFp16Inf);
  EXPECT_EQ(fp16_add_reference(kFp16Inf, 0xFC00), kFp16QuietNan);
  // 0 * inf is NaN; NaN is canonical regardless of input payload.
  EXPECT_EQ(fp16_mul_reference(0x0000, kFp16Inf), kFp16QuietNan);
  EXPECT_EQ(fp16_add_reference(0x7E01, one), kFp16QuietNan);
  // Signed zero rules: (-0) + (-0) = -0, (+0) + (-0) = +0, (-1)*0 = -0.
  EXPECT_EQ(fp16_add_reference(0x8000, 0x8000), 0x8000);
  EXPECT_EQ(fp16_add_reference(0x0000, 0x8000), 0x0000);
  EXPECT_EQ(fp16_mul_reference(0xBC00, 0x0000), 0x8000);
}

// The tentpole claim: garbled evaluation of the netlists decodes to the
// exact softfloat bit pattern on the full structured grid.
TEST(Fp16Garbled, AddMatchesReferenceOnGrid) {
  const Circuit c = make_fp16_add_circuit();
  GarbledFp16 sess(c);
  const auto grid = structured_grid();
  for (const std::uint16_t a : grid)
    for (const std::uint16_t b : grid)
      ASSERT_EQ(sess.round(a, b), fp16_add_reference(a, b))
          << std::hex << "a=0x" << a << " b=0x" << b;
}

TEST(Fp16Garbled, MulMatchesReferenceOnGrid) {
  const Circuit c = make_fp16_mul_circuit();
  GarbledFp16 sess(c);
  const auto grid = structured_grid();
  for (const std::uint16_t a : grid)
    for (const std::uint16_t b : grid)
      ASSERT_EQ(sess.round(a, b), fp16_mul_reference(a, b))
          << std::hex << "a=0x" << a << " b=0x" << b;
}

// Pinned-seed randomized sweep (>= 10k pairs at tier-1 scale, 20x under
// the nightly MAXEL_SWEEP_SCALE), every pair through garbled add AND
// mul. Biased toward boundary exponents so the subnormal and overflow
// seams keep getting hit.
TEST(Fp16Garbled, RandomizedSweep) {
  const std::uint64_t seed = test::sweep_seed(0xF16DF16Dull);
  SCOPED_TRACE("MAXEL_SWEEP_SEED=" + std::to_string(seed));
  Prg prg(crypto::Block{seed, 0x16});
  const Circuit add_c = make_fp16_add_circuit();
  const Circuit mul_c = make_fp16_mul_circuit();
  GarbledFp16 add_sess(add_c);
  GarbledFp16 mul_sess(mul_c);
  const int trials = test::sweep_trials(5200);  // >= 10.4k pairs of ops
  for (int t = 0; t < trials; ++t) {
    std::uint16_t a = static_cast<std::uint16_t>(prg.next_u64());
    std::uint16_t b = static_cast<std::uint16_t>(prg.next_u64());
    if (t % 5 == 0) a = (a & 0x83FFu) | (t % 10 == 0 ? 0x0000u : 0x7800u);
    if (t % 7 == 0) b = (b & 0x83FFu) | (t % 14 == 0 ? 0x0400u : 0x7C00u);
    ASSERT_EQ(add_sess.round(a, b), fp16_add_reference(a, b))
        << std::hex << "add a=0x" << a << " b=0x" << b;
    ASSERT_EQ(mul_sess.round(a, b), fp16_mul_reference(a, b))
        << std::hex << "mul a=0x" << a << " b=0x" << b;
    ASSERT_EQ(fp16_add_reference(a, b), double_model_add(a, b));
    ASSERT_EQ(fp16_mul_reference(a, b), double_model_mul(a, b));
  }
}

// Sequential MAC: the DFF accumulator carries garbled state across
// rounds; each round must decode to the two-rounding reference chain.
TEST(Fp16Garbled, SequentialMacCarriesState) {
  const Circuit c = make_fp16_mac_circuit();
  ASSERT_EQ(c.dffs.size(), 16u);
  std::optional<GarbledFp16> sess(std::in_place, c);
  const std::uint64_t seed = test::sweep_seed(0xACCF16ull);
  SCOPED_TRACE("MAXEL_SWEEP_SEED=" + std::to_string(seed));
  Prg prg(crypto::Block{seed, 0xAC});
  std::uint16_t acc = 0;
  const int rounds = test::sweep_trials(300);
  for (int r = 0; r < rounds; ++r) {
    // Small-exponent operands so the accumulator random-walks through
    // subnormal/normal space instead of saturating at inf immediately;
    // every 16th round throws a special at it.
    std::uint16_t a = static_cast<std::uint16_t>(prg.next_u64()) & 0xB3FFu;
    std::uint16_t x = static_cast<std::uint16_t>(prg.next_u64()) & 0xB3FFu;
    if (r % 16 == 15) a = (r % 32 == 31) ? kFp16Inf : 0x0000;
    acc = fp16_mac_reference(acc, a, x);
    ASSERT_EQ(sess->round(a, x), acc)
        << std::hex << "round " << r << " a=0x" << a << " x=0x" << x;
    if (fp16_is_nan(acc) || fp16_is_inf(acc)) {
      // Re-arm the walk: NaN/inf absorb everything after them, which
      // would make the rest of the sweep vacuous. A fresh garbled
      // session restarts the accumulator at +0.
      sess.emplace(c);
      acc = 0;
    }
  }
}

TEST(Fp16Netlists, PlainEvalMatchesGarbledPath) {
  // eval_plain must agree too (the four-mode session tests lean on it).
  const Circuit add_c = make_fp16_add_circuit();
  const Circuit mul_c = make_fp16_mul_circuit();
  Prg prg(crypto::Block{7, 61});
  for (int t = 0; t < 500; ++t) {
    const auto a = static_cast<std::uint16_t>(prg.next_u64());
    const auto b = static_cast<std::uint16_t>(prg.next_u64());
    EXPECT_EQ(from_bits(eval_plain(add_c, to_bits(a, 16), to_bits(b, 16))),
              fp16_add_reference(a, b));
    EXPECT_EQ(from_bits(eval_plain(mul_c, to_bits(a, 16), to_bits(b, 16))),
              fp16_mul_reference(a, b));
  }
}

TEST(Fp16Netlists, GateCounts) {
  // The FP16 datapath pays for alignment/normalize barrel shifters the
  // integer MAC doesn't have; pin the magnitude so regressions in the
  // builder's folding show up (numbers quoted in docs/ACCELERATION.md).
  const Circuit add_c = make_fp16_add_circuit();
  const Circuit mul_c = make_fp16_mul_circuit();
  const Circuit mac_c = make_fp16_mac_circuit();
  EXPECT_GT(add_c.and_count(), 400u);
  EXPECT_LT(add_c.and_count(), 2500u);
  EXPECT_GT(mul_c.and_count(), 300u);
  EXPECT_LT(mul_c.and_count(), 2000u);
  EXPECT_LE(mac_c.and_count(), add_c.and_count() + mul_c.and_count() + 64);
}

}  // namespace
}  // namespace maxel::circuit
