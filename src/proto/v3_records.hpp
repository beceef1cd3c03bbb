// Wire codec for the protocol-v3 compact records (the "slim the wire"
// formats). Four record types cross the wire in a v3 session:
//
//   SeedExpansionRecord  once per session, garbler -> evaluator:
//     magic "MXSEED3\0" | label_seed 16B | n_corrections u64
//     | (wire u32, active-label 16B) * n_corrections
//     The seed replaces the per-round garbler-input label transfer
//     (gc/v3.hpp derives those labels on both sides); corrections carry
//     the active labels of late-bound garbler inputs only.
//
//   V3RoundFrame  once per round, garbler -> evaluator:
//     n_rows u32 | rows (16B each) | n_outputs u32 | output_map packed
//     8 bits/byte. Both counts are *structural* — the evaluator already
//     knows them from the shared V3Analysis — so the parser takes the
//     expected values and rejects any disagreement before touching the
//     payload. No per-gate headers, no u64-count padding, select bits
//     packed 8-per-byte (the packing is mask-safe: a select bit is the
//     permuted color lsb(label0), itself uniform under free-XOR).
//
//   ResumptionTicket  server -> client on first contact, client -> server
//     thereafter: magic "MXTKT3\0\0" | pool_id u64 | client_id 16B |
//     cookie 16B. A bearer credential naming the server-side OT pool the
//     client may resume; the cookie is server-chosen randomness so a
//     guessed pool_id is useless. 48 bytes total (fixed size).
//
//   V3ClientSetup / V3ServerSetup  one round-trip per session that
//     reconciles pool state (see ot/pool.hpp): the client reports how
//     many extensions it holds and its consumption watermark; the server
//     replies whether the pool is fresh (new base OT required), which
//     index range this session claims, and how much to extend first.
//     Both pooled modes send these same records; reusable mode staples
//     an artifact-offer record (proto/reusable_io.hpp) after each.
//
// Parsing follows the rules of proto/codec.hpp: every count is validated
// against a hard cap and the bytes actually present before anything is
// allocated, padding bits must be zero and trailing bytes are refused;
// malformed bytes surface as V3FormatError.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/block.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"

namespace maxel::proto {

class V3FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Hard caps (hostile-count guards, far above any real session).
inline constexpr std::uint64_t kMaxV3Corrections = 1u << 16;
inline constexpr std::uint64_t kMaxV3Rows = 1u << 24;
inline constexpr std::uint64_t kMaxV3Outputs = 1u << 20;

struct SeedExpansionRecord {
  crypto::Block label_seed;
  // (wire, active label) for each late-bound garbler input; empty in the
  // demo protocol (all inputs bound at garble time).
  std::vector<std::pair<std::uint32_t, crypto::Block>> corrections;
};

std::vector<std::uint8_t> serialize_seed_expansion(
    const SeedExpansionRecord& r);
SeedExpansionRecord parse_seed_expansion(const std::uint8_t* data,
                                         std::size_t n);
void send_seed_expansion(Channel& ch, const SeedExpansionRecord& r);
SeedExpansionRecord recv_seed_expansion(Channel& ch);

struct V3RoundFrame {
  std::vector<crypto::Block> rows;
  std::vector<bool> output_map;

  [[nodiscard]] static std::size_t wire_size(std::size_t n_rows,
                                             std::size_t n_outputs) {
    return 4 + 16 * n_rows + 4 + packed_bytes(n_outputs);
  }
};

std::vector<std::uint8_t> serialize_round_frame(const V3RoundFrame& f);
// Appends the frame of `rows` and `output_map` to `buf`, byte for byte
// what serialize_round_frame writes, straight from the caller's storage:
// a sender writes every round of a session through one reused buffer.
void write_round_frame(std::vector<std::uint8_t>& buf,
                       const std::vector<crypto::Block>& rows,
                       const std::vector<bool>& output_map);
// expected_* come from the shared circuit analysis; a frame disagreeing
// with them is rejected by value before any allocation. The first form
// parses into `f`, reusing its storage.
void parse_round_frame(const std::uint8_t* data, std::size_t n,
                       std::size_t expected_rows,
                       std::size_t expected_outputs, V3RoundFrame& f);
V3RoundFrame parse_round_frame(const std::uint8_t* data, std::size_t n,
                               std::size_t expected_rows,
                               std::size_t expected_outputs);
void send_round_frame(Channel& ch, const V3RoundFrame& f);
// Receives one frame into `buf` and parses it into `f`, both reused
// from round to round, so a session's rounds allocate nothing once the
// first has sized them.
void recv_round_frame(Channel& ch, std::size_t expected_rows,
                      std::size_t expected_outputs,
                      std::vector<std::uint8_t>& buf, V3RoundFrame& f);

struct ResumptionTicket {
  std::uint64_t pool_id = 0;
  crypto::Block client_id;
  crypto::Block cookie;

  static constexpr std::size_t kWireSize = 8 + 8 + 16 + 16;
};

std::vector<std::uint8_t> serialize_ticket(const ResumptionTicket& t);
ResumptionTicket parse_ticket(const std::uint8_t* data, std::size_t n);
void send_ticket(Channel& ch, const ResumptionTicket& t);
ResumptionTicket recv_ticket(Channel& ch);

// Pool-state reconciliation (fixed-size, no counts to guard beyond the
// claim and extend caps — both ot::kMaxPoolExtend — but still parsed
// through the bounded reader).
struct V3ClientSetup {
  std::uint64_t extended = 0;   // OT indices the client has materialized
  std::uint64_t watermark = 0;  // lowest index the client will accept

  static constexpr std::size_t kWireSize = 8 + 8;
};

struct V3ServerSetup {
  bool fresh = false;            // true: discard pool, run base OT anew
  std::uint64_t pool_id = 0;
  crypto::Block cookie;          // echoed in future tickets
  std::uint64_t start_index = 0;  // this session's claim [start, start+n)
  std::uint64_t claim_count = 0;
  std::uint64_t extend_count = 0;  // extension batch to run first (may be 0)
};

void send_client_setup(Channel& ch, const V3ClientSetup& s);
V3ClientSetup recv_client_setup(Channel& ch);
void send_server_setup(Channel& ch, const V3ServerSetup& s);
V3ServerSetup recv_server_setup(Channel& ch);

}  // namespace maxel::proto
