#include "svc/broker_stats.hpp"

#include <cstdio>

namespace maxel::svc {

std::string BrokerStats::to_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"broker\",\"admission_rejects\":%llu,"
      "\"spool\":{\"ready\":%zu,\"spooled\":%llu,\"claimed\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"purged_on_open\":%llu,"
      "\"bytes_on_disk\":%llu,\"ready_v3\":%zu,\"v3_spooled\":%llu,"
      "\"v3_claimed\":%llu,\"v3_lineage_discarded\":%llu,"
      "\"reusable_ready\":%zu,\"reusable_spooled\":%llu,"
      "\"reusable_evaluations\":%llu,\"reusable_corrupt_discarded\":%llu},"
      "\"server\":",
      static_cast<unsigned long long>(admission_rejects),
      spool.sessions_ready,
      static_cast<unsigned long long>(spool.sessions_spooled),
      static_cast<unsigned long long>(spool.sessions_claimed),
      static_cast<unsigned long long>(spool.cache_hits),
      static_cast<unsigned long long>(spool.cache_misses),
      static_cast<unsigned long long>(spool.purged_on_open),
      static_cast<unsigned long long>(spool.bytes_on_disk),
      spool.sessions_ready_v3,
      static_cast<unsigned long long>(spool.v3_spooled),
      static_cast<unsigned long long>(spool.v3_claimed),
      static_cast<unsigned long long>(spool.v3_lineage_discarded),
      spool.reusable_ready,
      static_cast<unsigned long long>(spool.reusable_spooled),
      static_cast<unsigned long long>(spool.reusable_evaluations),
      static_cast<unsigned long long>(spool.reusable_corrupt_discarded));
  return std::string(buf) + server.to_json() + "}";
}

}  // namespace maxel::svc
