#include "ot/pool.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "ot/transpose.hpp"

namespace maxel::ot {
namespace {

std::size_t bytes_for(std::size_t n) { return (n + 7) / 8; }

// The 128 byte-packed bit columns of one extension, stored back to back
// (column i at i * bytes_for(n)).
class ByteColumns {
 public:
  explicit ByteColumns(std::size_t n)
      : n_(n), stride_(bytes_for(n)), data_(kIknpWidth * stride_) {}

  std::uint8_t* col(std::size_t i) { return data_.data() + i * stride_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }

  // The next n bits of `prg` into stride() bytes at `out`, the rest of
  // the last byte zeroed.
  void prg_bits(crypto::Prg& prg, std::uint8_t* out) const {
    prg.fill(out, stride_);
    if (n_ % 8 != 0)
      out[stride_ - 1] &= static_cast<std::uint8_t>((1u << (n_ % 8)) - 1);
  }

  // Row j of the n x 128 bit matrix, for every j < n. Column bits past n
  // are ignored.
  std::vector<Block> rows() {
    const std::uint8_t* ptrs[kIknpWidth];
    for (std::size_t i = 0; i < kIknpWidth; ++i) ptrs[i] = col(i);
    std::vector<Block> out(n_);
    transpose128(ptrs, n_, out.data());
    return out;
  }

 private:
  std::size_t n_;
  std::size_t stride_;
  std::vector<std::uint8_t> data_;
};

}  // namespace

// ---- Pad chunks ----------------------------------------------------------

namespace detail {

void PadChunks::push(std::vector<Block> pads, std::vector<std::uint8_t> bits) {
  const std::uint64_t n = pads.size();
  chunks_.push_back(Chunk{end_, std::move(pads), std::move(bits)});
  end_ += n;
  held_ += n;
}

void PadChunks::release_below(std::uint64_t end) {
  while (!chunks_.empty() &&
         chunks_.front().base + chunks_.front().pads.size() <= end) {
    held_ -= chunks_.front().pads.size();
    chunks_.pop_front();
  }
}

void PadChunks::clear() {
  chunks_.clear();
  end_ = 0;
  held_ = 0;
}

const PadChunks::Chunk& PadChunks::chunk_of(std::uint64_t idx) const {
  if (idx >= end_ || chunks_.empty() || idx < chunks_.front().base)
    throw std::out_of_range("OT pool: pad index " + std::to_string(idx) +
                            (idx >= end_ ? " not materialized" : " freed"));
  // Last chunk whose base is <= idx.
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), idx,
      [](std::uint64_t i, const Chunk& c) { return i < c.base; });
  return *std::prev(it);
}

const Block& PadChunks::pad(std::uint64_t idx) const {
  const Chunk& c = chunk_of(idx);
  return c.pads[idx - c.base];
}

bool PadChunks::bit(std::uint64_t idx) const {
  const Chunk& c = chunk_of(idx);
  const std::uint64_t k = idx - c.base;
  return ((c.bits[k / 8] >> (k % 8)) & 1u) != 0;
}

}  // namespace detail

// ---- Sender (server) -----------------------------------------------------

CorrelatedPoolSender::CorrelatedPoolSender(const Block& delta,
                                           std::uint64_t pool_id)
    : delta_(delta), pool_id_(pool_id) {
  if ((delta_.lo & 1u) == 0)
    throw std::invalid_argument("CorrelatedPoolSender: delta lsb must be 1");
  s_bits_.resize(kIknpWidth);
  for (std::size_t i = 0; i < kIknpWidth; ++i) {
    const std::uint64_t limb = i < 64 ? delta_.lo : delta_.hi;
    s_bits_[i] = ((limb >> (i % 64)) & 1u) != 0;
  }
}

void CorrelatedPoolSender::base_setup_step2(proto::Channel& ch,
                                            crypto::RandomSource& rng) {
  base_.emplace(ch, rng);
  base_->recv_phase1(s_bits_);
}

void CorrelatedPoolSender::base_setup_step4() {
  if (!base_)
    throw std::logic_error("CorrelatedPoolSender: step4 before step2");
  const std::vector<Block> seeds = base_->recv_phase2();
  base_.reset();
  prgs_.clear();
  prgs_.reserve(kIknpWidth);
  for (const Block& k : seeds) prgs_.emplace_back(k);
}

void CorrelatedPoolSender::extend(proto::Channel& ch, std::size_t n) {
  if (!is_setup())
    throw std::logic_error("CorrelatedPoolSender: base_setup not run");
  if (n == 0 || n > kMaxPoolExtend)
    throw std::runtime_error("CorrelatedPoolSender: bad extend count");
  ByteColumns q(n);
  std::vector<std::uint8_t> u(q.stride());
  for (std::size_t i = 0; i < kIknpWidth; ++i) {
    ch.recv_bytes(u.data(), u.size());
    std::uint8_t* col = q.col(i);
    q.prg_bits(prgs_[i], col);
    if (s_bits_[i])
      for (std::size_t b = 0; b < u.size(); ++b) col[b] ^= u[b];
  }
  // Transposed before taking the lock, so pad() readers never wait on it.
  std::vector<Block> rows = q.rows();
  std::lock_guard<std::mutex> lock(mu_);
  pads_.push(std::move(rows));
}

PoolClaim CorrelatedPoolSender::claim(std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_claim_ + count > pads_.extended())
    throw std::runtime_error("CorrelatedPoolSender: pool exhausted");
  const PoolClaim c{next_claim_, count};
  if (count > 0) open_.emplace(c.start, c.count);
  next_claim_ += count;
  claimed_ += count;
  return c;
}

void CorrelatedPoolSender::close(const PoolClaim& c, std::uint64_t& tally,
                                 const char* what) {
  if (c.count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(c.start);
  if (it == open_.end() || it->second != c.count)
    throw std::logic_error(std::string("CorrelatedPoolSender: ") + what +
                           " of a claim that is not open");
  open_.erase(it);
  claimed_ -= c.count;
  tally += c.count;
  pads_.release_below(open_.empty() ? next_claim_ : open_.begin()->first);
}

void CorrelatedPoolSender::consume(const PoolClaim& c) {
  close(c, consumed_, "consume");
}

void CorrelatedPoolSender::discard(const PoolClaim& c) {
  close(c, discarded_, "discard");
}

Block CorrelatedPoolSender::pad(std::uint64_t idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pads_.pad(idx);
}

std::uint64_t CorrelatedPoolSender::extended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pads_.extended();
}

PoolStats CorrelatedPoolSender::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats st;
  st.extended = pads_.extended();
  st.held = pads_.held();
  st.claimed = claimed_;
  st.consumed = consumed_;
  st.discarded = discarded_;
  return st;
}

// ---- Receiver (client) ---------------------------------------------------

void CorrelatedPoolReceiver::reset() {
  base_.reset();
  seed_pairs_.clear();
  r_seed_ = Block{};
  prgs0_.clear();
  prgs1_.clear();
  r_prg_.reset();
  pads_.clear();
  watermark_ = 0;
}

void CorrelatedPoolReceiver::base_setup_step1(proto::Channel& ch,
                                              crypto::RandomSource& rng) {
  seed_pairs_.assign(kIknpWidth, {});
  for (auto& [k0, k1] : seed_pairs_) {
    k0 = rng.next_block();
    k1 = rng.next_block();
  }
  r_seed_ = rng.next_block();
  base_.emplace(ch, rng);
  base_->send_phase1(kIknpWidth);
}

void CorrelatedPoolReceiver::base_setup_step3() {
  if (!base_)
    throw std::logic_error("CorrelatedPoolReceiver: step3 before step1");
  base_->send_phase2(seed_pairs_);
  base_.reset();
  prgs0_.clear();
  prgs1_.clear();
  prgs0_.reserve(kIknpWidth);
  prgs1_.reserve(kIknpWidth);
  for (const auto& [k0, k1] : seed_pairs_) {
    prgs0_.emplace_back(k0);
    prgs1_.emplace_back(k1);
  }
  seed_pairs_.clear();
  r_prg_.emplace(r_seed_);
  pads_.clear();
  watermark_ = 0;
}

void CorrelatedPoolReceiver::extend(proto::Channel& ch, std::size_t n) {
  if (!is_setup())
    throw std::logic_error("CorrelatedPoolReceiver: base_setup not run");
  if (n == 0 || n > kMaxPoolExtend)
    throw std::runtime_error("CorrelatedPoolReceiver: bad extend count");
  ByteColumns t(n);
  // Fresh random choice bits for the new indices, packed into an r column.
  std::vector<std::uint8_t> r(t.stride());
  t.prg_bits(*r_prg_, r.data());

  std::vector<std::uint8_t> u(t.stride());
  for (std::size_t i = 0; i < kIknpWidth; ++i) {
    std::uint8_t* col = t.col(i);
    t.prg_bits(prgs0_[i], col);
    t.prg_bits(prgs1_[i], u.data());
    for (std::size_t b = 0; b < u.size(); ++b) u[b] ^= col[b] ^ r[b];
    ch.send_bytes(u.data(), u.size());
  }
  pads_.push(t.rows(), std::move(r));
}

const Block& CorrelatedPoolReceiver::pad(std::uint64_t idx) const {
  return pads_.pad(idx);
}

bool CorrelatedPoolReceiver::choice(std::uint64_t idx) const {
  return pads_.bit(idx);
}

void CorrelatedPoolReceiver::mark_consumed(std::uint64_t start,
                                           std::uint64_t count) {
  if (start < watermark_)
    throw std::runtime_error(
        "CorrelatedPoolReceiver: OT index replay (below watermark)");
  if (start + count > pads_.extended())
    throw std::runtime_error(
        "CorrelatedPoolReceiver: claim past materialized pool");
  watermark_ = start + count;
  pads_.release_below(start);
}

}  // namespace maxel::ot
