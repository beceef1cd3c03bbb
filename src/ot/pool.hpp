// Long-lived correlated-OT pool: one base OT per client *lifetime*, not
// per session attempt.
//
// Today every session (and every retry inside SessionRetryPolicy) runs
// 128 Chou-Orlandi base OTs plus a fresh IKNP setup before the first MAC
// round. This module splits the IKNP machinery into a pool whose life is
// decoupled from any one connection:
//
//   * base_setup() runs once per (client, server) pair — the server acts
//     as base-OT receiver with choice bits equal to its garbling delta,
//     the client as base-OT sender with random seed pairs.
//   * extend() stretches the pool by a batch of correlated OTs (a
//     bit-packed column transfer, client -> server); batches are sized
//     kPoolExtendBatch so a resumed session almost never pays setup.
//   * Sessions *claim* contiguous index ranges, then either consume or
//     discard them. Indices are handed out by a monotone counter, so an
//     extension can provably never back two sessions: once claimed, an
//     index is burned whether the session succeeds or dies mid-round.
//
// The correlation is delta-sharing ("delta-OT"): for index j the server
// holds the raw row q_j and its secret s (= garbling delta, lsb forced
// to 1); the client holds t_j = q_j ^ r_j*s for its random bit r_j.
// Derandomized per use: the client reveals d = c ^ r (1 bit), the server
// replies z = q_j ^ L0 ^ (d ? s : 0), and t_j ^ z = L0 ^ c*s — i.e. the
// active half-gates label for choice c, one block on the wire instead of
// the two hashed IKNP ciphertexts. Publishing q_j unhashed is safe here
// precisely because the two messages are *already* s-correlated labels
// (L0, L0 ^ s): there is no second secret for a hash to protect, and the
// client learns t_j ^ z which is independent of s for fixed c. This is
// the standard correlated-OT optimization (honest-but-curious, like the
// rest of the protocol); see docs/PROTOCOL.md §v3.
//
// Pad lifetime and memory. Each extend() stores its n pads as one chunk
// indexed by absolute OT index, so an extension never copies the pads
// already held and costs the same at any pool size. Chunks are freed
// once no open claim can reach them:
//
//   * the sender frees every chunk lying wholly below the lowest open
//     claim, or below the next claim's start when no claim is open;
//   * the receiver frees every chunk lying wholly below the start of the
//     latest claim mark_consumed accepted, so the pads of the claim in
//     use stay readable until the next mark_consumed.
//
// Reading a freed index throws std::out_of_range. extended() keeps
// counting every index ever materialized (claims and reconciliation
// compare it across the wire); PoolStats::held counts the pads still
// resident. Per client identity, memory is thus bounded by the pads from
// the chunk holding the oldest open claim (sender) or the claim in use
// (receiver) up to the materialized end, at 16 B per pad (plus one choice
// bit per pad on the receiver). The broker extends only to cover a
// claim's deficit, so with every claim closed an identity keeps about
// one extension resident (<= kMaxPoolExtend pads), however long it lives.
//
// Thread safety: claim/consume/discard/pad/stats are internally locked
// (the broker lets concurrent sessions of one client share a pool), and
// the sender's extend() appends its chunk under the same lock;
// base_setup and extend speak on a channel and must be serialized by the
// caller. The receiver is single-threaded.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "crypto/block.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "ot/base_ot.hpp"
#include "proto/channel.hpp"

namespace maxel::ot {

// OTs added per extension round-trip. Large enough that a 128-OT session
// (b=16, 8 demo rounds) triggers an extension only every 64 sessions.
inline constexpr std::size_t kPoolExtendBatch = 8192;

// Hard cap on a single extension request (hostile-count guard for the
// wire codec and a bound on per-call allocation).
inline constexpr std::size_t kMaxPoolExtend = 1u << 20;

struct PoolStats {
  std::uint64_t extended = 0;   // indices materialized so far
  std::uint64_t held = 0;       // pads still resident (not yet freed)
  std::uint64_t claimed = 0;    // outstanding (sessions in flight)
  std::uint64_t consumed = 0;   // used by completed rounds
  std::uint64_t discarded = 0;  // burned by failed/abandoned sessions

  [[nodiscard]] std::uint64_t available() const {
    return extended - claimed - consumed - discarded;
  }
};

// A contiguous claimed index range [start, start + count).
struct PoolClaim {
  std::uint64_t start = 0;
  std::uint64_t count = 0;
};

namespace detail {

// Pads stored one chunk per extension, indexed by absolute OT index.
// Chunks are appended in index order and freed from the front.
class PadChunks {
 public:
  // Appends the next extension's pads; `bits` is the receiver's
  // byte-packed choice column (empty on the sender).
  void push(std::vector<Block> pads, std::vector<std::uint8_t> bits = {});
  // Frees every chunk whose indices all lie below `end`.
  void release_below(std::uint64_t end);
  void clear();

  // Pad / choice bit of a resident index; throws std::out_of_range for an
  // index never materialized or already freed.
  [[nodiscard]] const Block& pad(std::uint64_t idx) const;
  [[nodiscard]] bool bit(std::uint64_t idx) const;

  [[nodiscard]] std::uint64_t extended() const { return end_; }
  [[nodiscard]] std::uint64_t held() const { return held_; }

 private:
  struct Chunk {
    std::uint64_t base = 0;
    std::vector<Block> pads;
    std::vector<std::uint8_t> bits;
  };
  [[nodiscard]] const Chunk& chunk_of(std::uint64_t idx) const;

  std::deque<Chunk> chunks_;
  std::uint64_t end_ = 0;   // one past the last materialized index
  std::uint64_t held_ = 0;  // pads in chunks_
};

}  // namespace detail

// Server side. Owns the correlation secret s == the garbling delta, so
// evaluator-input labels ride the pool pads directly.
class CorrelatedPoolSender {
 public:
  // delta must have lsb 1 (it doubles as the point-and-permute delta).
  CorrelatedPoolSender(const Block& delta, std::uint64_t pool_id);

  // Base-OT handshake (server = base-OT receiver, choices = bits of s).
  // Steps interleave with the client's 1 and 3 (see pool_base_setup);
  // over a live connection each side just runs its own two in order.
  void base_setup_step2(proto::Channel& ch, crypto::RandomSource& rng);
  void base_setup_step4();
  [[nodiscard]] bool is_setup() const { return !prgs_.empty(); }

  // Receives one extension batch of n correlated OTs (128 bit-packed
  // columns). Wire peer: CorrelatedPoolReceiver::extend with the same n.
  void extend(proto::Channel& ch, std::size_t n);

  // Claims `count` fresh indices; throws std::runtime_error if the pool
  // does not hold enough available extensions.
  PoolClaim claim(std::uint64_t count);
  // Marks a claim used (successful session) or burned (failure). Every
  // claim must end in exactly one of these, exactly once: ending a
  // (start, count) that is not open throws std::logic_error. A
  // zero-count claim holds no index, and ending it is a no-op.
  void consume(const PoolClaim& c);
  void discard(const PoolClaim& c);

  // Raw pad q_idx of a resident index (see "Pad lifetime" above).
  // Returned by value under the lock: a concurrent consume() may free
  // the chunk, so a reference could dangle.
  [[nodiscard]] Block pad(std::uint64_t idx) const;

  [[nodiscard]] const Block& delta() const { return delta_; }
  [[nodiscard]] std::uint64_t pool_id() const { return pool_id_; }
  [[nodiscard]] std::uint64_t extended() const;
  [[nodiscard]] PoolStats stats() const;

 private:
  Block delta_;
  std::uint64_t pool_id_;
  std::vector<bool> s_bits_;
  std::optional<BaseOtReceiver> base_;  // alive between steps 2 and 4
  std::vector<crypto::Prg> prgs_;  // G(k_i^{s_i}), stateful across extends
  // Ends an open claim, counting it into `tally`, and frees what no open
  // claim can reach any more.
  void close(const PoolClaim& c, std::uint64_t& tally, const char* what);

  mutable std::mutex mu_;
  detail::PadChunks pads_;         // q rows
  // Open claims: start index -> count.
  std::map<std::uint64_t, std::uint64_t> open_;
  std::uint64_t next_claim_ = 0;   // monotone: indices below are burned
  std::uint64_t claimed_ = 0;
  std::uint64_t consumed_ = 0;
  std::uint64_t discarded_ = 0;
};

// Client side. Survives retries and reconnects; mark_consumed enforces a
// monotone watermark so a (buggy or hostile) server can never make the
// client reuse an OT index.
class CorrelatedPoolReceiver {
 public:
  CorrelatedPoolReceiver() = default;

  // Wire peer: CorrelatedPoolSender steps 2 and 4.
  void base_setup_step1(proto::Channel& ch, crypto::RandomSource& rng);
  void base_setup_step3();
  [[nodiscard]] bool is_setup() const { return !prgs0_.empty(); }

  // Drops all pool state (pads, choices, watermark, half-run setup) so
  // the receiver can re-run base_setup against a fresh server pool.
  void reset();

  // Sends one extension batch of n correlated OTs.
  void extend(proto::Channel& ch, std::size_t n);

  // Pad t_idx and random choice bit r_idx of a resident index (see "Pad
  // lifetime" above); a reference stays valid while the index does.
  [[nodiscard]] const Block& pad(std::uint64_t idx) const;
  [[nodiscard]] bool choice(std::uint64_t idx) const;

  // Accepts the server's claim [start, start + count) for this session;
  // throws std::runtime_error if it dips below the watermark (an index
  // replay — abort, never evaluate) or past the materialized end. Frees
  // the chunks wholly below `start`.
  void mark_consumed(std::uint64_t start, std::uint64_t count);

  [[nodiscard]] std::uint64_t extended() const { return pads_.extended(); }
  [[nodiscard]] std::uint64_t held() const { return pads_.held(); }
  [[nodiscard]] std::uint64_t watermark() const { return watermark_; }

 private:
  std::optional<BaseOtSender> base_;  // alive between steps 1 and 3
  std::vector<std::pair<Block, Block>> seed_pairs_;
  Block r_seed_;
  std::vector<crypto::Prg> prgs0_;
  std::vector<crypto::Prg> prgs1_;
  std::optional<crypto::Prg> r_prg_;  // private choice-bit stream
  detail::PadChunks pads_;      // t rows, with the r bits alongside
  std::uint64_t watermark_ = 0;
};

// In-process setup orchestration (tests/benches with both ends local).
// Over a real link the client runs steps 1 and 3, the server 2 and 4.
inline void pool_base_setup(CorrelatedPoolSender& server,
                            CorrelatedPoolReceiver& client,
                            proto::Channel& server_ch,
                            proto::Channel& client_ch,
                            crypto::RandomSource& server_rng,
                            crypto::RandomSource& client_rng) {
  client.base_setup_step1(client_ch, client_rng);
  server.base_setup_step2(server_ch, server_rng);
  client.base_setup_step3();
  server.base_setup_step4();
}

}  // namespace maxel::ot
