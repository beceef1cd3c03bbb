#include "crypto/randomness_tests.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

namespace maxel::crypto {
namespace {

// Complementary error function wrapper (std::erfc) mapped to the
// two-sided normal p-value used by SP 800-22.
double normal_p(double z) { return std::erfc(std::fabs(z) / std::sqrt(2.0)); }

// Regularized upper incomplete gamma Q(a, x) via series / continued
// fraction (Numerical-Recipes style), for chi-square p-values.
double gamma_q(double a, double x) {
  if (x < 0 || a <= 0) return 0.0;
  if (x == 0) return 1.0;
  const double gln = std::lgamma(a);
  if (x < a + 1.0) {
    // Series for P(a,x); Q = 1 - P.
    double ap = a, sum = 1.0 / a, del = sum;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
    }
    return 1.0 - sum * std::exp(-x + a * std::log(x) - gln);
  }
  // Continued fraction for Q(a,x).
  double b = x + 1.0 - a, c = 1e300, d = 1.0 / b, h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return std::exp(-x + a * std::log(x) - gln) * h;
}

}  // namespace

double monobit_test(const std::vector<bool>& bits) {
  if (bits.empty()) return 0.0;
  long long s = 0;
  for (bool b : bits) s += b ? 1 : -1;
  const double z = static_cast<double>(s) /
                   std::sqrt(static_cast<double>(bits.size()));
  return normal_p(z);
}

double runs_test(const std::vector<bool>& bits) {
  const std::size_t n = bits.size();
  if (n < 2) return 0.0;
  std::size_t ones = 0;
  for (bool b : bits) ones += b ? 1 : 0;
  const double pi = static_cast<double>(ones) / static_cast<double>(n);
  // Precondition from SP 800-22: skip if monobit already fails badly.
  if (std::fabs(pi - 0.5) > 2.0 / std::sqrt(static_cast<double>(n))) return 0.0;
  std::size_t v = 1;
  for (std::size_t i = 1; i < n; ++i) v += bits[i] != bits[i - 1] ? 1 : 0;
  const double num =
      std::fabs(static_cast<double>(v) - 2.0 * static_cast<double>(n) * pi * (1.0 - pi));
  const double den =
      2.0 * std::sqrt(2.0 * static_cast<double>(n)) * pi * (1.0 - pi);
  return std::erfc(num / den);
}

double poker_test(const std::vector<bool>& bits) {
  const std::size_t m = bits.size() / 4;
  if (m < 16) return 0.0;
  std::array<std::size_t, 16> counts{};
  for (std::size_t i = 0; i < m; ++i) {
    unsigned nib = 0;
    for (std::size_t j = 0; j < 4; ++j)
      nib = (nib << 1) | (bits[4 * i + j] ? 1u : 0u);
    ++counts[nib];
  }
  double x = 0.0;
  for (std::size_t c : counts) x += static_cast<double>(c) * static_cast<double>(c);
  x = x * 16.0 / static_cast<double>(m) - static_cast<double>(m);
  return gamma_q(15.0 / 2.0, x / 2.0);
}

double serial_correlation(const std::vector<bool>& bits) {
  const std::size_t n = bits.size();
  if (n < 3) return 1.0;
  double sum = 0.0, sumsq = 0.0, cross = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = bits[i] ? 1.0 : 0.0;
    sum += v;
    sumsq += v * v;
    cross += v * (bits[(i + 1) % n] ? 1.0 : 0.0);
  }
  const double num = static_cast<double>(n) * cross - sum * sum;
  const double den = static_cast<double>(n) * sumsq - sum * sum;
  return den == 0.0 ? 1.0 : num / den;
}

double block_frequency_test(const std::vector<bool>& bits,
                            std::size_t block_size) {
  const std::size_t n = bits.size() / block_size;
  if (n < 4) return 0.0;
  double chi = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    std::size_t ones = 0;
    for (std::size_t i = 0; i < block_size; ++i)
      ones += bits[b * block_size + i] ? 1 : 0;
    const double pi = static_cast<double>(ones) / static_cast<double>(block_size);
    chi += (pi - 0.5) * (pi - 0.5);
  }
  chi *= 4.0 * static_cast<double>(block_size);
  return gamma_q(static_cast<double>(n) / 2.0, chi / 2.0);
}

double cusum_test(const std::vector<bool>& bits) {
  const std::size_t n = bits.size();
  if (n < 100) return 0.0;
  long long s = 0;
  long long z = 0;
  for (const bool b : bits) {
    s += b ? 1 : -1;
    z = std::max<long long>(z, std::llabs(s));
  }
  if (z == 0) return 0.0;
  const double zn = static_cast<double>(z);
  const double sn = std::sqrt(static_cast<double>(n));
  // SP 800-22 Eq. for the cusum p-value (truncated series).
  double p = 1.0;
  const auto phi = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
  const long long k_lo = (-static_cast<long long>(n) / z + 1) / 4;
  const long long k_hi = (static_cast<long long>(n) / z - 1) / 4;
  for (long long k = k_lo; k <= k_hi; ++k) {
    const double kk = static_cast<double>(k);
    p -= phi((4.0 * kk + 1.0) * zn / sn) - phi((4.0 * kk - 1.0) * zn / sn);
  }
  const long long k2_lo = (-static_cast<long long>(n) / z - 3) / 4;
  const long long k2_hi = (static_cast<long long>(n) / z - 1) / 4;
  for (long long k = k2_lo; k <= k2_hi; ++k) {
    const double kk = static_cast<double>(k);
    p += phi((4.0 * kk + 3.0) * zn / sn) - phi((4.0 * kk + 1.0) * zn / sn);
  }
  return std::min(1.0, std::max(0.0, p));
}

double entropy_per_bit(const std::vector<bool>& bits) {
  const std::size_t m = bits.size() / 8;
  if (m == 0) return 0.0;
  std::array<std::size_t, 256> counts{};
  for (std::size_t i = 0; i < m; ++i) {
    unsigned byte = 0;
    for (std::size_t j = 0; j < 8; ++j)
      byte = (byte << 1) | (bits[8 * i + j] ? 1u : 0u);
    ++counts[byte];
  }
  double h = 0.0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(m);
    h -= p * std::log2(p);
  }
  return h / 8.0;
}

RandomnessReport run_battery(const std::vector<bool>& bits) {
  RandomnessReport r;
  r.monobit_p = monobit_test(bits);
  r.runs_p = runs_test(bits);
  r.poker_p = poker_test(bits);
  r.serial_corr = serial_correlation(bits);
  r.entropy_per_bit = entropy_per_bit(bits);
  return r;
}

}  // namespace maxel::crypto
