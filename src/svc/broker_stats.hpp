// Service-wide snapshot of the serving front (evloop::EvBroker::stats()):
// the serving counters read back from its metrics registry, the spool's
// own ledger, and the typed admission rejects.
#pragma once

#include <cstdint>

#include "net/server_stats.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {

struct BrokerStats {
  net::ServerStats server;  // service-wide totals (+ serving wall time)
  SpoolStats spool;
  std::uint64_t admission_rejects = 0;  // kServerBusy sent
};

}  // namespace maxel::svc
