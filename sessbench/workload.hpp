// The benchmark's workloads and the client configuration every session
// of a workload uses. See sessbench/README.md for why each exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/handshake.hpp"
#include "net/v3_service.hpp"

namespace sessbench {

inline constexpr std::size_t kBits = 16;
// Rounds per stream chunk (the broker default).
inline constexpr std::size_t kChunkRounds = 16;

// One workload: a session mode, the closed-loop client shape, and the
// broker settings that keep its timed window steady.
struct Workload {
  std::string name;
  maxel::net::SessionMode mode = maxel::net::SessionMode::kStream;
  std::uint32_t protocol = maxel::net::kProtocolVersion;
  std::size_t rounds = 64;
  std::size_t clients = 1;
  // Producer watermarks. 0/0 keeps the producer idle; low just below
  // high makes it refill in small, frequent batches.
  std::size_t spool_low = 0;
  std::size_t spool_high = 0;
  std::size_t warmup_sessions = 1;  // per client, inside set-up
  // Sessions one client identity (OT pool) serves before the client
  // re-keys; 0 = no pooled identity (stream mode runs a fresh IKNP base
  // OT in every session).
  std::size_t identity_lifetime = 0;

  [[nodiscard]] bool pooled() const { return identity_lifetime != 0; }
  [[nodiscard]] bool producer_active() const { return spool_high != 0; }
};

inline const std::vector<Workload>& workloads() {
  using maxel::net::SessionMode;
  static const std::vector<Workload> all = {
      {"stream-b16", SessionMode::kStream, maxel::net::kProtocolVersion,
       128, 2, 0, 0, 2, 0},
      {"spool-v3-b16", SessionMode::kPrecomputed,
       maxel::net::kProtocolVersionV3, 64, 1, 31, 32, 4, 128},
      {"reusable-b16", SessionMode::kReusable,
       maxel::net::kProtocolVersionV3, 64, 2, 0, 0, 4, 128},
  };
  return all;
}

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

// Retries are off, so a fault shows up as a failed session rather than
// as hidden latency.
inline maxel::net::ClientConfig client_config(
    const Workload& w, std::uint64_t seed, std::uint16_t port,
    std::shared_ptr<maxel::net::V3ClientState> state) {
  maxel::net::ClientConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = port;
  cfg.bits = kBits;
  cfg.mode = w.mode;
  cfg.protocol = w.protocol;
  cfg.v3_state = std::move(state);
  cfg.demo_seed = seed;
  cfg.check = true;
  cfg.verbose = false;
  cfg.retry.max_attempts = 1;
  cfg.tcp.recv_timeout_ms = 10'000;
  cfg.tcp.send_timeout_ms = 10'000;
  cfg.tcp.connect_attempts = 3;
  return cfg;
}

}  // namespace sessbench
