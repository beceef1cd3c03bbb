// Binary persistence for precomputed garbling sessions — the host-side
// store of Fig. 1 ("the host ... simply performs the garbling with one
// of the stored garbled circuits"): MAXelerator streams sessions up over
// PCIe and the host parks them on disk until a client connects.
//
// Format (little-endian):
//   magic "MXSESS1\0" | scheme u8 | delta 16B | n_rounds u64
//   per round: n_tables u64, tables (rows(scheme) x 16B each),
//              garbler_labels0, evaluator_pairs, fixed_labels (16B each,
//              u64-count-prefixed), output_map (bit-packed)
//   initial_state_labels (count-prefixed)
//
// Parsing follows the rules of proto/codec.hpp: every count prefix is
// validated against a hard cap and against the bytes actually left
// before anything is reserved, padding bits must be zero and trailing
// bytes are refused, so a truncated or bit-flipped file surfaces as
// SessionFormatError — never an OOM-sized allocation or bad_alloc.
// These are the files svc::SessionSpool parks on disk; the spool
// additionally checksums them (see serialize_session) so corruption is
// caught before a session is handed to a worker.
//
// NOTE: a stored session contains label secrets (both labels of every
// input wire and delta-offset material); treat the store like a key
// store. Sessions remain single-use after reload.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "proto/precompute.hpp"

namespace maxel::proto {

// Malformed/hostile session bytes (truncation, bad magic, counts beyond
// the caps below). Derives from runtime_error so pre-existing callers
// that catch std::runtime_error keep working.
class SessionFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Hard caps a count prefix must pass before any allocation. They bound
// what one corrupt u64 can make parse_session reserve: generously above
// any real MAC-service session (a 64-bit dot-product session is ~1e4
// tables/round), far below an allocation that could hurt the host.
inline constexpr std::uint64_t kMaxSessionRounds = 1u << 20;
inline constexpr std::uint64_t kMaxSessionCount = 1u << 26;  // per-vector

// The codec: encodes straight into one exactly sized buffer and parses
// from a pointer, with no stream or string copy in between. The spool
// uses these to checksum a session's exact on-disk bytes and to write
// them in one atomic rename step.
std::vector<std::uint8_t> serialize_session(const PrecomputedSession& s);
PrecomputedSession parse_session(const std::uint8_t* data, std::size_t n);

}  // namespace maxel::proto
