// Wire codec for streamed garbling chunks — the unit the garble-while-
// transfer pipeline moves: a contiguous run of rounds' evaluator-visible
// material, framed as one record so the server can put a chunk on the
// wire while the next one is still being garbled.
//
// A chunk deliberately carries only what the evaluator may see: the
// garbled tables, the *active* garbler input labels (already selected
// with the garbler's inputs), the active constant-wire labels and the
// output color map — plus the round-0 DFF state labels on the first
// chunk. The evaluator input label *pairs* never enter this codec; they
// stay server-side and travel only through OT, exactly as in the
// precomputed path.
//
// Format (little-endian):
//   magic "MXCHNK1\0" | scheme u8 | first_round u64 | n_rounds u64
//   per round: n_tables u64, tables (rows(scheme) x 16B each),
//              garbler_labels, fixed_labels (16B each, u64-count-
//              prefixed), output_map (u64-count-prefixed, bit-packed)
//   initial_state_labels (count-prefixed; empty except on chunk 0)
//
// Parsing follows the rules of proto/codec.hpp: every count prefix is
// validated against a hard cap AND against the bytes actually remaining
// before anything is reserved, padding bits must be zero and trailing
// bytes are refused, so a truncated or bit-flipped chunk surfaces as
// ChunkFormatError — never an OOM-sized allocation, a crash, or a hang.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/block.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"
#include "proto/channel.hpp"

namespace maxel::proto {

// Malformed/hostile chunk bytes (truncation, bad magic, counts beyond
// the caps below). Derives from runtime_error so callers catching the
// session-level errors keep working.
class ChunkFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Hard caps a count prefix must pass before any allocation — generously
// above any real chunk (a 64-bit dot-product round is ~1e4 tables), far
// below an allocation that could hurt the host.
inline constexpr std::uint64_t kMaxChunkRounds = 1u << 12;
inline constexpr std::uint64_t kMaxChunkCount = 1u << 26;   // per-vector
inline constexpr std::uint64_t kMaxChunkWireBytes = 1u << 28;  // framed record

// One streamed chunk as it crosses the wire (evaluator's view).
struct WireChunk {
  struct Round {
    gc::RoundTables tables;
    std::vector<crypto::Block> garbler_labels;  // active, pre-selected
    std::vector<crypto::Block> fixed_labels;    // active const labels
    std::vector<bool> output_map;
  };
  std::uint64_t first_round = 0;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::vector<Round> rounds;
  std::vector<crypto::Block> initial_state_labels;  // chunk 0 only
};

// Whole-chunk byte codec; parse throws ChunkFormatError on anything
// malformed.
std::vector<std::uint8_t> serialize_chunk(const WireChunk& c);
WireChunk parse_chunk(const std::uint8_t* data, std::size_t n);

// Channel framing: u64 byte length, then the serialize_chunk bytes as
// one contiguous record (one syscall over a socket). recv_chunk
// validates the length against kMaxChunkWireBytes before allocating.
void send_chunk(Channel& ch, const WireChunk& c);
WireChunk recv_chunk(Channel& ch);

}  // namespace maxel::proto
