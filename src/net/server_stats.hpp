// Garbler-side session facts: the block one served session fills in
// (evloop::EvSession::stats()), and the shape of the serving front's
// service-wide snapshot (svc::BrokerStats::server), which EvBroker reads
// back from its metrics registry — one metric per field, same name.
#pragma once

#include <cstdint>

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
  // session for precomputed mode, one chunk for stream mode. A
  // high-water mark, not a sum.
  std::uint64_t peak_resident_tables = 0;
  double handshake_seconds = 0;
  double transfer_seconds = 0;  // garbled material push (tables, labels)
  double ot_seconds = 0;        // OT setup + per-round label OT
  // Session start -> first tables on the wire; the service-wide sum
  // covers stream sessions only.
  double first_table_seconds = 0;
  double total_seconds = 0;     // serving wall time (service-wide only)
};

}  // namespace maxel::net
