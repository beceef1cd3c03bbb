#include "circuit/builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace maxel::circuit {

Wire Builder::fresh() { return circ_.num_wires++; }

Wire Builder::garbler_input() {
  const Wire w = fresh();
  circ_.garbler_inputs.push_back(w);
  return w;
}

Wire Builder::evaluator_input() {
  const Wire w = fresh();
  circ_.evaluator_inputs.push_back(w);
  return w;
}

Bus Builder::garbler_inputs(std::size_t n) {
  Bus b(n);
  for (auto& w : b) w = garbler_input();
  return b;
}

Bus Builder::evaluator_inputs(std::size_t n) {
  Bus b(n);
  for (auto& w : b) w = evaluator_input();
  return b;
}

Bus Builder::constant_bus(std::uint64_t value, std::size_t width) {
  Bus b(width);
  // Buses can be wider than the 64-bit seed value (e.g. Karatsuba
  // accumulators); bits past 63 are zero, and shifting by >= 64 is UB.
  for (std::size_t i = 0; i < width; ++i)
    b[i] = i < 64 && ((value >> i) & 1u) != 0 ? kConstOne : kConstZero;
  return b;
}

Wire Builder::make_dff(bool init) {
  const Wire q = fresh();
  circ_.dffs.push_back({q, q, init});
  dff_connected_.push_back(false);
  return q;
}

void Builder::connect_dff(Wire q, Wire d) {
  for (std::size_t i = 0; i < circ_.dffs.size(); ++i) {
    if (circ_.dffs[i].q == q) {
      circ_.dffs[i].d = d;
      dff_connected_[i] = true;
      return;
    }
  }
  throw std::invalid_argument("connect_dff: unknown state wire");
}

Bus Builder::make_dff_bus(std::size_t width, std::uint64_t init) {
  Bus b(width);
  // Bits of a bus wider than 64 past init's width start at 0.
  for (std::size_t i = 0; i < width; ++i)
    b[i] = make_dff(i < 64 && ((init >> i) & 1u) != 0);
  return b;
}

void Builder::connect_dff_bus(const Bus& q, const Bus& d) {
  if (q.size() != d.size())
    throw std::invalid_argument("connect_dff_bus: width mismatch");
  for (std::size_t i = 0; i < q.size(); ++i) connect_dff(q[i], d[i]);
}

Wire Builder::gate(GateType t, Wire a, Wire b) {
  if (!fold_) {
    const Wire out = fresh();
    circ_.gates.push_back({t, a, b, out});
    return out;
  }
  switch (t) {
    case GateType::kXor:
      if (a == b) return kConstZero;
      if (a == kConstZero) return b;
      if (b == kConstZero) return a;
      if (a == kConstOne && b == kConstOne) return kConstZero;
      break;
    case GateType::kXnor:
      if (a == b) return kConstOne;
      if (a == kConstOne) return b;
      if (b == kConstOne) return a;
      if (a == kConstZero && b == kConstZero) return kConstOne;
      break;
    case GateType::kAnd:
      if (a == kConstZero || b == kConstZero) return kConstZero;
      if (a == kConstOne) return b;
      if (b == kConstOne) return a;
      if (a == b) return a;
      break;
    case GateType::kNand:
      if (a == kConstZero || b == kConstZero) return kConstOne;
      if (a == kConstOne) return not_(b);
      if (b == kConstOne) return not_(a);
      if (a == b) return not_(a);
      break;
    case GateType::kOr:
      if (a == kConstOne || b == kConstOne) return kConstOne;
      if (a == kConstZero) return b;
      if (b == kConstZero) return a;
      if (a == b) return a;
      break;
    case GateType::kNor:
      if (a == kConstOne || b == kConstOne) return kConstZero;
      if (a == kConstZero) return not_(b);
      if (b == kConstZero) return not_(a);
      if (a == b) return not_(a);
      break;
  }
  const Wire out = fresh();
  circ_.gates.push_back({t, a, b, out});
  return out;
}

Wire Builder::mux(Wire sel, Wire a, Wire b) {
  // sel ? a : b  ==  b ^ (sel & (a ^ b)) — one AND.
  return xor_(b, and_(sel, xor_(a, b)));
}

Bus Builder::xor_bus(const Bus& a, const Bus& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("xor_bus: width mismatch");
  Bus r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = xor_(a[i], b[i]);
  return r;
}

Bus Builder::and_bit(const Bus& a, Wire bit) {
  Bus r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = and_(a[i], bit);
  return r;
}

Bus Builder::mux_bus(Wire sel, const Bus& a, const Bus& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("mux_bus: width mismatch");
  Bus r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = mux(sel, a[i], b[i]);
  return r;
}

Bus Builder::add(const Bus& a, const Bus& b, std::optional<std::size_t> width,
                 Wire carry_in) {
  const std::size_t w = width.value_or(std::max(a.size(), b.size()));
  Bus av = zero_extend(a, w), bv = zero_extend(b, w);
  Bus sum(w);
  Wire c = carry_in;
  for (std::size_t i = 0; i < w; ++i) {
    // Full adder with 1 AND + 4 XOR: s = t1 ^ b; c' = c ^ (t1 & t2)
    // where t1 = a ^ c, t2 = b ^ c (the TinyGarble-optimized cell).
    const Wire t1 = xor_(av[i], c);
    const Wire t2 = xor_(bv[i], c);
    sum[i] = xor_(t1, bv[i]);
    if (i + 1 < w) c = xor_(c, and_(t1, t2));
  }
  return sum;
}

Bus Builder::sub(const Bus& a, const Bus& b, std::optional<std::size_t> width) {
  const std::size_t w = width.value_or(std::max(a.size(), b.size()));
  Bus nb = zero_extend(b, w);
  for (auto& x : nb) x = not_(x);
  return add(zero_extend(a, w), nb, w, kConstOne);
}

Bus Builder::negate(const Bus& a) { return cond_negate(a, kConstOne); }

Bus Builder::cond_negate(const Bus& a, Wire s) {
  // (a ^ s...s) + s: XOR mask (free) plus carry injection (1 AND/bit).
  Bus t(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) t[i] = xor_(a[i], s);
  Bus r(a.size());
  Wire c = s;
  for (std::size_t i = 0; i < a.size(); ++i) {
    r[i] = xor_(t[i], c);
    if (i + 1 < a.size()) c = and_(t[i], c);
  }
  return r;
}

Bus Builder::zero_extend(const Bus& a, std::size_t width) {
  Bus r = a;
  r.resize(width, kConstZero);
  if (r.size() > width) r.resize(width);
  return r;
}

Bus Builder::sign_extend(const Bus& a, std::size_t width) {
  Bus r = a;
  if (r.empty()) return zero_extend(a, width);
  const Wire msb = r.back();
  while (r.size() < width) r.push_back(msb);
  r.resize(width);
  return r;
}

Bus Builder::truncate(const Bus& a, std::size_t width) {
  Bus r = a;
  r.resize(std::min(width, a.size()));
  return r;
}

Bus Builder::shift_left(const Bus& a, std::size_t k, std::size_t width) {
  Bus r(width, kConstZero);
  for (std::size_t i = 0; i + k < width && i < a.size(); ++i) r[i + k] = a[i];
  return r;
}

Bus Builder::mult_serial(const Bus& a, const Bus& x, std::size_t out_width) {
  Bus acc = constant_bus(0, out_width);
  for (std::size_t i = 0; i < x.size() && i < out_width; ++i) {
    const Bus pp = shift_left(and_bit(truncate(a, out_width - i), x[i]), i,
                              out_width);
    acc = add(acc, pp, out_width);
  }
  return acc;
}

Bus Builder::mult_tree(const Bus& a, const Bus& x, std::size_t out_width) {
  // Stage 1 (MUX_ADD): pairwise partial sums s_m = a*x[2m] + 2*a*x[2m+1].
  std::vector<Bus> terms;
  for (std::size_t m = 0; 2 * m < x.size(); ++m) {
    const std::size_t shift = 2 * m;
    if (shift >= out_width) break;
    const Bus p0 = and_bit(a, x[2 * m]);
    Bus s;
    if (2 * m + 1 < x.size()) {
      const Bus p1 = and_bit(a, x[2 * m + 1]);
      const std::size_t w = std::min(out_width - shift, a.size() + 2);
      s = add(zero_extend(p0, w), shift_left(p1, 1, w), w);
    } else {
      s = p0;
    }
    terms.push_back(shift_left(s, shift, out_width));
  }
  if (terms.empty()) return constant_bus(0, out_width);

  // Stage 2 (TREE): log-depth pairwise reduction.
  while (terms.size() > 1) {
    std::vector<Bus> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2)
      next.push_back(add(terms[i], terms[i + 1], out_width));
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms.front();
}

Bus Builder::mult_karatsuba(const Bus& a, const Bus& x,
                            std::size_t out_width) {
  // Full-width product of the (equalized-width) operands, recursively.
  const std::size_t w = std::max(a.size(), x.size());
  const Bus av = zero_extend(a, w);
  const Bus xv = zero_extend(x, w);

  if (w <= 6) return mult_serial(av, xv, std::min(out_width, 2 * w));

  const std::size_t h = w / 2;
  const Bus a0 = truncate(av, h);
  const Bus a1 = Bus(av.begin() + static_cast<long>(h), av.end());
  const Bus x0 = truncate(xv, h);
  const Bus x1 = Bus(xv.begin() + static_cast<long>(h), xv.end());

  // Three recursive products (full width each). The half-sums need
  // max(|a0|, |a1|) + 1 = (w - h) + 1 bits (w may be odd).
  const std::size_t sw = (w - h) + 1;
  const Bus z0 = mult_karatsuba(a0, x0, 2 * h);
  const Bus z2 = mult_karatsuba(a1, x1, 2 * (w - h));
  const Bus sa = add(zero_extend(a0, sw), zero_extend(a1, sw), sw);
  const Bus sx = add(zero_extend(x0, sw), zero_extend(x1, sw), sw);
  const Bus m = mult_karatsuba(sa, sx, 2 * sw);

  // z1 = m - z0 - z2 (fits in 2*sw bits; subtraction wraps correctly).
  const std::size_t zw = 2 * sw;
  const Bus z1 = sub(sub(m, zero_extend(z0, zw), zw), zero_extend(z2, zw), zw);

  // result = z2 << 2h + z1 << h + z0, truncated to out_width.
  const std::size_t rw = std::min(out_width, 2 * w);
  Bus r = add(zero_extend(z0, rw), shift_left(z1, h, rw), rw);
  r = add(r, shift_left(z2, 2 * h, rw), rw);
  return zero_extend(r, out_width);
}

Bus Builder::mult_signed(const Bus& a, const Bus& x, std::size_t out_width,
                         MulStructure structure) {
  if (a.empty() || x.empty())
    throw std::invalid_argument("mult_signed: empty operand");
  // Sec. 4.3: mux / 2's-complement pairs at inputs and output.
  const Wire sa = a.back();
  const Wire sx = x.back();
  const Bus abs_a = cond_negate(a, sa);
  const Bus abs_x = cond_negate(x, sx);
  const Bus p = structure == MulStructure::kTree
                    ? mult_tree(abs_a, abs_x, out_width)
                    : mult_serial(abs_a, abs_x, out_width);
  return cond_negate(p, xor_(sa, sx));
}

Wire Builder::eq(const Bus& a, const Bus& b) {
  if (a.size() != b.size()) throw std::invalid_argument("eq: width mismatch");
  std::vector<Wire> terms(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    terms[i] = gate(GateType::kXnor, a[i], b[i]);
  if (terms.empty()) return kConstOne;
  // Balanced AND tree keeps multiplicative depth at log n.
  while (terms.size() > 1) {
    std::vector<Wire> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2)
      next.push_back(and_(terms[i], terms[i + 1]));
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms.front();
}

Wire Builder::lt_unsigned(const Bus& a, const Bus& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("lt_unsigned: width mismatch");
  // a < b  <=>  no carry out of a + ~b + 1.
  Wire c = kConstOne;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Wire nb = not_(b[i]);
    const Wire t1 = xor_(a[i], c);
    const Wire t2 = xor_(nb, c);
    c = xor_(c, and_(t1, t2));
  }
  return not_(c);
}

void Builder::set_outputs(const Bus& out) {
  circ_.outputs = out;
}

void Builder::append_outputs(const Bus& out) {
  circ_.outputs.insert(circ_.outputs.end(), out.begin(), out.end());
}

Circuit Builder::take() {
  for (std::size_t i = 0; i < dff_connected_.size(); ++i) {
    if (!dff_connected_[i])
      throw std::logic_error("Builder::take: unconnected DFF state wire");
  }
  return std::move(circ_);
}

std::vector<bool> to_bits(std::uint64_t v, std::size_t width) {
  std::vector<bool> b(width);
  for (std::size_t i = 0; i < width; ++i) b[i] = ((v >> i) & 1u) != 0;
  return b;
}

std::uint64_t from_bits(const std::vector<bool>& bits) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size() && i < 64; ++i)
    if (bits[i]) v |= (1ull << i);
  return v;
}

std::int64_t from_bits_signed(const std::vector<bool>& bits) {
  std::uint64_t v = from_bits(bits);
  if (!bits.empty() && bits.size() < 64 && bits.back()) {
    v |= ~((1ull << bits.size()) - 1);  // sign extend
  }
  return static_cast<std::int64_t>(v);
}

}  // namespace maxel::circuit
