// Fixed-point arithmetic matching the circuit/hardware semantics.
//
// The case studies (Sec. 6) assume "a 32 bit fixed point system"; values
// are encoded as signed two's-complement integers with a fractional
// scale, and MACs wrap modulo 2^b exactly like the garbled netlists, so
// a plaintext FixedVector dot product is bit-identical to the secure one.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace maxel::fixed {

struct FixedFormat {
  std::size_t total_bits = 32;
  std::size_t frac_bits = 16;

  [[nodiscard]] std::uint64_t mask() const {
    return total_bits >= 64 ? ~0ull : ((1ull << total_bits) - 1);
  }
  [[nodiscard]] double scale() const {
    return static_cast<double>(1ull << frac_bits);
  }
  [[nodiscard]] double max_value() const {
    return static_cast<double>((1ull << (total_bits - 1)) - 1) / scale();
  }
  [[nodiscard]] double resolution() const { return 1.0 / scale(); }
};

// Raw b-bit two's-complement word (stored in the low bits of a u64).
using Word = std::uint64_t;

// Encodes a real number; throws on overflow of the representable range.
inline Word encode(double v, const FixedFormat& f) {
  const double scaled = std::nearbyint(v * f.scale());
  const double limit = static_cast<double>(1ull << (f.total_bits - 1));
  if (scaled >= limit || scaled < -limit)
    throw std::overflow_error("fixed::encode: value out of range");
  const auto raw = static_cast<std::int64_t>(scaled);
  return static_cast<Word>(raw) & f.mask();
}

inline double decode(Word w, const FixedFormat& f) {
  std::uint64_t v = w & f.mask();
  if (f.total_bits < 64 && (v >> (f.total_bits - 1)) != 0)
    v |= ~f.mask();  // sign extend
  return static_cast<double>(static_cast<std::int64_t>(v)) / f.scale();
}

// Wraparound add, mirroring the accumulator netlist.
inline Word add(Word a, Word b, const FixedFormat& f) {
  return (a + b) & f.mask();
}

// Integer product mod 2^b (the hardware MAC multiplies raw words; the
// result carries 2*frac_bits fractional bits until rescaled).
inline Word mul_raw(Word a, Word b, const FixedFormat& f) {
  return (a * b) & f.mask();
}

// Arithmetic right shift by frac_bits: rescales a raw product back to
// the format. Only valid when the true product fits total_bits.
inline Word rescale(Word w, const FixedFormat& f) {
  std::uint64_t v = w & f.mask();
  if (f.total_bits < 64 && (v >> (f.total_bits - 1)) != 0) v |= ~f.mask();
  const auto s = static_cast<std::int64_t>(v) >> f.frac_bits;
  return static_cast<Word>(s) & f.mask();
}

inline std::vector<Word> encode_vector(const std::vector<double>& v,
                                       const FixedFormat& f) {
  std::vector<Word> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = encode(v[i], f);
  return out;
}

inline std::vector<double> decode_vector(const std::vector<Word>& v,
                                         const FixedFormat& f) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = decode(v[i], f);
  return out;
}

// Plaintext reference of the secure MAC pipeline: raw dot product mod
// 2^b. Result has 2*frac_bits fractional bits (caller rescales).
inline Word dot_raw(const std::vector<Word>& a, const std::vector<Word>& x,
                    const FixedFormat& f) {
  if (a.size() != x.size())
    throw std::invalid_argument("fixed::dot_raw: size mismatch");
  Word acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = add(acc, mul_raw(a[i], x[i], f), f);
  return acc;
}

}  // namespace maxel::fixed
