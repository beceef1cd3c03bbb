#include "net/server_stats.hpp"

#include <algorithm>
#include <cstdio>

namespace maxel::net {

void ServerStats::merge(const ServerStats& other) {
  sessions_served += other.sessions_served;
  rounds_served += other.rounds_served;
  handshakes_rejected += other.handshakes_rejected;
  connection_errors += other.connection_errors;
  idle_timeouts += other.idle_timeouts;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  sessions_precomputed += other.sessions_precomputed;
  stream_sessions_served += other.stream_sessions_served;
  v3_sessions_served += other.v3_sessions_served;
  reusable_sessions_served += other.reusable_sessions_served;
  reusable_artifacts_sent += other.reusable_artifacts_sent;
  reusable_garbles += other.reusable_garbles;
  v3_fresh_pools += other.v3_fresh_pools;
  v3_ot_extended += other.v3_ot_extended;
  peak_resident_tables = std::max(peak_resident_tables,
                                  other.peak_resident_tables);
  handshake_seconds += other.handshake_seconds;
  transfer_seconds += other.transfer_seconds;
  ot_seconds += other.ot_seconds;
  first_table_seconds += other.first_table_seconds;
  total_seconds += other.total_seconds;
}

std::string ServerStats::to_json() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"server\",\"sessions_served\":%llu,\"rounds_served\":%llu,"
      "\"handshakes_rejected\":%llu,\"connection_errors\":%llu,"
      "\"idle_timeouts\":%llu,"
      "\"bytes_sent\":%llu,\"bytes_received\":%llu,"
      "\"sessions_precomputed\":%llu,\"stream_sessions_served\":%llu,"
      "\"v3_sessions_served\":%llu,"
      "\"reusable_sessions_served\":%llu,\"reusable_artifacts_sent\":%llu,"
      "\"reusable_garbles\":%llu,"
      "\"v3_fresh_pools\":%llu,"
      "\"v3_ot_extended\":%llu,"
      "\"peak_resident_tables\":%llu,\"handshake_seconds\":%.6f,"
      "\"transfer_seconds\":%.6f,\"ot_seconds\":%.6f,"
      "\"first_table_seconds\":%.6f,\"total_seconds\":%.6f}",
      static_cast<unsigned long long>(sessions_served),
      static_cast<unsigned long long>(rounds_served),
      static_cast<unsigned long long>(handshakes_rejected),
      static_cast<unsigned long long>(connection_errors),
      static_cast<unsigned long long>(idle_timeouts),
      static_cast<unsigned long long>(bytes_sent),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(sessions_precomputed),
      static_cast<unsigned long long>(stream_sessions_served),
      static_cast<unsigned long long>(v3_sessions_served),
      static_cast<unsigned long long>(reusable_sessions_served),
      static_cast<unsigned long long>(reusable_artifacts_sent),
      static_cast<unsigned long long>(reusable_garbles),
      static_cast<unsigned long long>(v3_fresh_pools),
      static_cast<unsigned long long>(v3_ot_extended),
      static_cast<unsigned long long>(peak_resident_tables),
      handshake_seconds, transfer_seconds, ot_seconds, first_table_seconds,
      total_seconds);
  return buf;
}

}  // namespace maxel::net
