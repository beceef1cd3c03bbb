// Garbler-side session counters: one block per served session (filled
// by evloop::EvSession), merged per shard and across shards into the
// broker's snapshot, and dumped as the `STATS {...}` JSON line that
// tests/net_e2e.sh cross-checks against the client's byte counters.
#pragma once

#include <cstdint>
#include <string>

namespace maxel::net {

struct ServerStats {
  std::uint64_t sessions_served = 0;
  std::uint64_t rounds_served = 0;
  std::uint64_t handshakes_rejected = 0;
  std::uint64_t connection_errors = 0;
  std::uint64_t idle_timeouts = 0;  // subset of connection_errors
  std::uint64_t bytes_sent = 0;      // payload bytes, summed over sessions
  std::uint64_t bytes_received = 0;
  std::uint64_t sessions_precomputed = 0;
  std::uint64_t stream_sessions_served = 0;  // subset of sessions_served
  std::uint64_t v3_sessions_served = 0;      // subset of sessions_served
  // Reusable-mode sessions (subset of sessions_served) and how many of
  // them had to ship the artifact view (the rest ran off the client's
  // hash-confirmed cache).
  std::uint64_t reusable_sessions_served = 0;
  std::uint64_t reusable_artifacts_sent = 0;
  std::uint64_t reusable_garbles = 0;  // times a reusable artifact was built
  std::uint64_t v3_fresh_pools = 0;   // v3/reusable sessions that paid a base OT
  std::uint64_t v3_ot_extended = 0;   // correlated-OT indices materialized
  // Most tables resident server-side for any single session: the whole
  // session for precomputed mode, one chunk for stream mode. Merged with
  // max, not sum — it is a high-water mark.
  std::uint64_t peak_resident_tables = 0;
  double handshake_seconds = 0;
  double transfer_seconds = 0;  // garbled tables + labels push
  double ot_seconds = 0;        // OT setup + per-round label OT
  double first_table_seconds = 0;  // session start -> first tables on the wire
  double total_seconds = 0;     // serving wall time

  // Accumulates another stats block into this one (counters and timers
  // are additive, high-water marks take the max) — how the broker folds
  // per-session and per-shard stats into one service-wide snapshot.
  void merge(const ServerStats& other);

  [[nodiscard]] std::string to_json() const;
};

}  // namespace maxel::net
