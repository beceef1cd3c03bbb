// MXREUS1 wire codec: the reusable-circuit artifact (gc/reusable.hpp)
// and the artifact-offer records of the `reusable` session mode.
//
// Two artifact framings share one layout, told apart by a secrets flag:
//
//   view (flag 0)  what the evaluator receives and caches —
//     magic "MXREUS1\0" | has_secrets u8 | bit_width u32
//     | fingerprint 32B | n_gates u64 | n_tables u64
//     | n_garbler_inputs u64 | n_evaluator_inputs u64 | n_outputs u64
//     | n_dffs u64 | tables (n_tables nibbles, 2/byte)
//     | dff_init_masked packed | dff_corrections packed
//     | output_flips packed
//
//   full (flag 1)  the spool-persisted server artifact: the view plus
//     the garbler-side secrets —
//     ... | garbler_flips packed | evaluator_flips packed
//
// parse_reusable_view refuses flag-1 blobs (secrets must never reach
// the wire to a client); parse_reusable demands flag 1. Parsing follows
// the rules of proto/codec.hpp (caps and bytes left checked before any
// allocation, zero padding, no trailing bytes); malformed input
// surfaces as ReusableFormatError.
//
// A reusable session reconciles its OT pool with the v3 setup records
// (proto/v3_records.hpp) and staples one fixed-size offer record after
// each, sent in the same frame:
//
//   ClientArtifactOffer  has_artifact u8 | sha 32B
//     the SHA-256 of the client's cached view (HAVE), or all-zeros
//     (NEED)
//   ServerArtifactOffer  artifact_bytes u64 | sha 32B
//     the authoritative artifact hash, and either artifact_bytes == 0
//     (the cache is current) or the size of the view blob the server
//     sends after the resumption ticket
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gc/reusable.hpp"
#include "proto/channel.hpp"

namespace maxel::proto {

class ReusableFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Hard caps (hostile-count guards, far above any real circuit).
inline constexpr std::uint64_t kMaxReusableGates = 1u << 24;
inline constexpr std::uint64_t kMaxReusableInputs = 1u << 20;
inline constexpr std::uint64_t kMaxReusableOutputs = 1u << 20;
inline constexpr std::uint64_t kMaxReusableDffs = 1u << 20;
inline constexpr std::uint64_t kMaxReusableArtifactBytes = 1u << 26;

std::vector<std::uint8_t> serialize_reusable_view(const gc::ReusableView& v);
std::vector<std::uint8_t> serialize_reusable(const gc::ReusableCircuit& rc);
gc::ReusableView parse_reusable_view(const std::uint8_t* data, std::size_t n);
gc::ReusableCircuit parse_reusable(const std::uint8_t* data, std::size_t n);

// --- Artifact-offer records (fixed size, bounded-reader parsed) --------

struct ClientArtifactOffer {
  bool has_artifact = false;  // true: sha names a cached view
  std::array<std::uint8_t, 32> sha{};

  static constexpr std::size_t kWireSize = 1 + 32;
};

struct ServerArtifactOffer {
  std::uint64_t artifact_bytes = 0;  // 0: client cache is current
  std::array<std::uint8_t, 32> sha{};

  static constexpr std::size_t kWireSize = 8 + 32;
};

void send_client_offer(Channel& ch, const ClientArtifactOffer& o);
ClientArtifactOffer recv_client_offer(Channel& ch);
void send_server_offer(Channel& ch, const ServerArtifactOffer& o);
ServerArtifactOffer recv_server_offer(Channel& ch);

}  // namespace maxel::proto
