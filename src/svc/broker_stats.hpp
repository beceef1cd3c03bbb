// Service-wide snapshot of the serving front (evloop::EvBroker): the
// merged per-session counters, the spool's inventory, and the typed
// admission rejects. Dumped as the `STATS {...}` JSON line by
// `maxelctl serve` / maxel_server.
#pragma once

#include <cstdint>
#include <string>

#include "net/server_stats.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {

struct BrokerStats {
  net::ServerStats server;  // merged over shards (+ serving wall time)
  SpoolStats spool;
  std::uint64_t admission_rejects = 0;  // kServerBusy sent

  [[nodiscard]] std::string to_json() const;
};

}  // namespace maxel::svc
