// Per-layer probes for the traced run: each times calls into one
// module's public functions, on the workload's shape, from outside
// src/. Nothing here runs in the untraced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace sessbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ProbeContext {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  std::string work_dir;         // for the probe spool
  std::uint16_t live_port = 0;  // the running broker's listener
  bool verified = true;         // cleared if a probe decodes a wrong MAC
};

// Unit costs of every layer, one top-level span per probe.
std::vector<Metric> probe_layers(ProbeContext& ctx, Tracer& tracer);

struct ShuttleTimes {
  double busy_us = 0;  // mean time inside EvSession::on_bytes per session
  double wait_us = 0;  // mean session wall time minus busy
  std::size_t sessions = 0;
};

// Serves `sessions` sessions of the workload's mode through a bare
// EvSession on a loopback socket, with net::run_client as the peer
// (after one untimed warm-up session), timing the state machine's calls.
ShuttleTimes shuttle_sessions(ProbeContext& ctx, std::size_t sessions);

}  // namespace sessbench
