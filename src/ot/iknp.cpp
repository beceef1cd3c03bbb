#include "ot/iknp.hpp"

#include <stdexcept>

#include "ot/transpose.hpp"

namespace maxel::ot {
namespace {

constexpr std::uint64_t kIknpDomain = 0x494B4E50ull;  // "IKNP"

std::size_t words_for(std::size_t m) { return (m + 63) / 64; }

// Expands a PRG into a word-packed bit column of m bits.
BitColumn prg_column(crypto::Prg& prg, std::size_t m) {
  BitColumn col(words_for(m));
  prg.fill(reinterpret_cast<std::uint8_t*>(col.data()), col.size() * 8);
  if (m % 64 != 0) col.back() &= (1ull << (m % 64)) - 1;
  return col;
}

BitColumn pack_bits(const std::vector<bool>& bits) {
  BitColumn col(words_for(bits.size()), 0);
  for (std::size_t j = 0; j < bits.size(); ++j)
    if (bits[j]) col[j / 64] |= (1ull << (j % 64));
  return col;
}

void send_column(proto::Channel& ch, const BitColumn& col) {
  ch.send_bytes(reinterpret_cast<const std::uint8_t*>(col.data()),
                col.size() * 8);
}

BitColumn recv_column(proto::Channel& ch, std::size_t m) {
  BitColumn col(words_for(m));
  ch.recv_bytes(reinterpret_cast<std::uint8_t*>(col.data()), col.size() * 8);
  return col;
}

// The m rows of the bit matrix whose 128 columns are `cols`. Word
// columns are read as the little-endian byte columns transpose128 takes.
std::vector<Block> rows_from_columns(const std::vector<BitColumn>& cols,
                                     std::size_t m) {
  const std::uint8_t* ptrs[kIknpWidth];
  for (std::size_t i = 0; i < kIknpWidth; ++i)
    ptrs[i] = reinterpret_cast<const std::uint8_t*>(cols[i].data());
  std::vector<Block> rows(m);
  transpose128(ptrs, m, rows.data());
  return rows;
}

}  // namespace

// ---- Receiver setup (acts as base-OT sender) ----------------------------

void IknpReceiver::setup_step1() {
  seed_pairs_.resize(kIknpWidth);
  for (auto& [k0, k1] : seed_pairs_) {
    k0 = rng_.next_block();
    k1 = rng_.next_block();
  }
  base_.send_phase1(kIknpWidth);
}

void IknpReceiver::setup_step3() {
  base_.send_phase2(seed_pairs_);
  prgs0_.clear();
  prgs1_.clear();
  prgs0_.reserve(kIknpWidth);
  prgs1_.reserve(kIknpWidth);
  for (const auto& [k0, k1] : seed_pairs_) {
    prgs0_.emplace_back(k0);
    prgs1_.emplace_back(k1);
  }
}

// ---- Sender setup (acts as base-OT receiver with choice string s) -------

void IknpSender::setup_step2() {
  s_.resize(kIknpWidth);
  s_block_ = rng_.next_block();
  for (std::size_t i = 0; i < kIknpWidth; ++i) {
    const std::uint64_t limb = i < 64 ? s_block_.lo : s_block_.hi;
    s_[i] = ((limb >> (i % 64)) & 1u) != 0;
  }
  base_.recv_phase1(s_);
}

void IknpSender::setup_step4() {
  const std::vector<Block> seeds = base_.recv_phase2();
  prgs_.clear();
  prgs_.reserve(kIknpWidth);
  for (const auto& k : seeds) prgs_.emplace_back(k);
}

// ---- Extension batches ---------------------------------------------------

void IknpSender::send_phase1(std::size_t n) {
  if (!is_setup()) throw std::logic_error("IknpSender: setup not run");
  n_ = n;
}

void IknpReceiver::recv_phase1(const std::vector<bool>& choices) {
  if (!is_setup()) throw std::logic_error("IknpReceiver: setup not run");
  choices_ = choices;
  const std::size_t m = choices.size();
  const BitColumn r = pack_bits(choices);

  std::vector<BitColumn> t_cols(kIknpWidth);
  for (std::size_t i = 0; i < kIknpWidth; ++i) {
    t_cols[i] = prg_column(prgs0_[i], m);
    BitColumn u = prg_column(prgs1_[i], m);
    for (std::size_t w = 0; w < u.size(); ++w) u[w] ^= t_cols[i][w] ^ r[w];
    send_column(ch_, u);
  }

  t_rows_ = rows_from_columns(t_cols, m);
}

void IknpSender::send_phase2(
    const std::vector<std::pair<Block, Block>>& msgs) {
  if (msgs.size() != n_)
    throw std::invalid_argument("IknpSender: message count mismatch");
  const std::size_t m = msgs.size();

  std::vector<BitColumn> q_cols(kIknpWidth);
  for (std::size_t i = 0; i < kIknpWidth; ++i) {
    const BitColumn u = recv_column(ch_, m);
    q_cols[i] = prg_column(prgs_[i], m);
    if (s_[i]) {
      for (std::size_t w = 0; w < u.size(); ++w) q_cols[i][w] ^= u[w];
    }
  }

  // Hash inputs interleaved per OT: (q_j, tweak_j), (q_j ^ s, tweak_j).
  const std::vector<Block> q = rows_from_columns(q_cols, m);
  std::vector<Block> x(2 * m);
  std::vector<Block> tweaks(2 * m);
  for (std::size_t j = 0; j < m; ++j) {
    x[2 * j] = q[j];
    x[2 * j + 1] = q[j] ^ s_block_;
    tweaks[2 * j] = tweaks[2 * j + 1] = Block{ot_index_ + j, kIknpDomain};
  }
  hash_.hash_batch(x.data(), tweaks.data(), x.data(), x.size());
  for (std::size_t j = 0; j < m; ++j) {
    ch_.send_block(msgs[j].first ^ x[2 * j]);
    ch_.send_block(msgs[j].second ^ x[2 * j + 1]);
  }
  ot_index_ += m;
}

std::vector<Block> IknpReceiver::recv_phase2() {
  const std::size_t m = choices_.size();
  std::vector<Block> out(m);
  for (std::size_t j = 0; j < m; ++j)
    out[j] = Block{ot_index_ + j, kIknpDomain};
  hash_.hash_batch(t_rows_.data(), out.data(), out.data(), m);
  for (std::size_t j = 0; j < m; ++j) {
    const Block y0 = ch_.recv_block();
    const Block y1 = ch_.recv_block();
    out[j] ^= choices_[j] ? y1 : y0;
  }
  ot_index_ += m;
  return out;
}

}  // namespace maxel::ot
