#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "net/demo_inputs.hpp"
#include "net/fault.hpp"
#include "net/reusable_service.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/chunk_io.hpp"

namespace maxel::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::uint64_t retry_backoff_ms(const SessionRetryPolicy& policy, int attempt) {
  const int shift = std::min(std::max(attempt, 1) - 1, 20);
  const double base =
      std::min<double>(static_cast<double>(std::max(0, policy.backoff_max_ms)),
                       static_cast<double>(std::max(1, policy.backoff_ms)) *
                           static_cast<double>(1u << shift));
  // Jitter in [-jitter_pct, +jitter_pct] percent from the seeded mixer,
  // so a logged seed replays the exact same wait schedule.
  const std::uint64_t h =
      fault_mix64(policy.jitter_seed ^
                  (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt)));
  const double frac = static_cast<double>(h % 2001) / 1000.0 - 1.0;  // [-1,1]
  const double pct = static_cast<double>(policy.jitter_pct) / 100.0;
  return static_cast<std::uint64_t>(std::max(0.0, base * (1.0 + frac * pct)));
}

std::string ClientStats::to_json() const {
  char buf[1152];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"client\",\"rounds\":%u,\"bytes_sent\":%llu,"
      "\"bytes_received\":%llu,\"output_value\":%llu,\"checked\":%s,"
      "\"verified\":%s,\"working_set_bytes\":%zu,\"chunks_received\":%llu,"
      "\"protocol_used\":%u,\"setup_bytes\":%llu,\"pool_resumed\":%s,"
      "\"attempts\":%u,\"retry_wait_ms\":%llu,"
      "\"handshake_seconds\":%.6f,\"transfer_seconds\":%.6f,"
      "\"ot_seconds\":%.6f,\"eval_seconds\":%.6f,"
      "\"first_table_seconds\":%.6f,\"total_seconds\":%.6f}",
      rounds, static_cast<unsigned long long>(bytes_sent),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(output_value),
      checked ? "true" : "false", verified ? "true" : "false",
      working_set_bytes, static_cast<unsigned long long>(chunks_received),
      protocol_used, static_cast<unsigned long long>(setup_bytes),
      pool_resumed ? "true" : "false", attempts,
      static_cast<unsigned long long>(retry_wait_ms), handshake_seconds,
      transfer_seconds, ot_seconds, eval_seconds, first_table_seconds,
      total_seconds);
  return buf;
}

namespace {

std::unique_ptr<proto::Channel> make_channel(
    const ClientConfig& cfg, const std::shared_ptr<FaultInjector>& injector) {
  if (cfg.channel_factory) return cfg.channel_factory();
  if (injector && injector->on_connect())
    throw ConnectError("fault: injected connect refusal");
  std::unique_ptr<proto::Channel> base =
      TcpChannel::connect(cfg.host, cfg.port, cfg.tcp);
  if (injector)
    return std::make_unique<FaultyChannel>(std::move(base), injector);
  return base;
}

// One protocol-v3 session attempt: slim wire format, input labels from
// the cross-session OT pool in `st`. Throws HandshakeError with
// kVersionMismatch when the server only speaks v2 (the caller falls
// back); any other failure follows the usual retry path — the pool
// state survives, so a retried session resumes instead of redoing the
// base OT.
ClientStats run_v3_attempt(const ClientConfig& cfg,
                           const std::shared_ptr<FaultInjector>& injector,
                           V3ClientState& st) {
  const auto t_total = Clock::now();
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{cfg.bits, cfg.bits, true});
  const gc::V3Analysis an = gc::analyze_v3(circ);
  std::unique_ptr<proto::Channel> ch = make_channel(cfg, injector);

  ClientStats stats;
  stats.protocol_used = kProtocolVersionV3;
  {
    const auto t0 = Clock::now();
    ClientHello hello;
    hello.scheme = static_cast<std::uint8_t>(cfg.scheme);
    hello.ot = static_cast<std::uint8_t>(cfg.ot);
    hello.bit_width = static_cast<std::uint32_t>(cfg.bits);
    hello.rounds = cfg.rounds_hint;
    hello.circuit_hash = circuit_fingerprint(circ);
    HelloExtV3 ext;
    ext.client_id = st.client_id;
    if (st.ticket) {
      ext.has_ticket = true;
      ext.ticket = *st.ticket;
    }
    stats.rounds = client_handshake_v3(*ch, hello, ext);
    stats.handshake_seconds = seconds_since(t0);
  }

  DemoInputStream x_inputs(cfg.demo_seed, kEvaluatorStream, cfg.bits);
  std::vector<std::vector<bool>> e_bits(stats.rounds);
  for (auto& row : e_bits) row = x_inputs.next_bits();

  crypto::SystemRandom rng;
  const auto t0 = Clock::now();
  const V3EvalOutcome out = eval_v3_session(*ch, circ, an, e_bits, st, rng);
  stats.eval_seconds = seconds_since(t0);
  stats.first_table_seconds = seconds_since(t_total);

  stats.setup_bytes = out.setup_bytes;
  stats.pool_resumed = !out.fresh_pool;
  stats.output_value = circuit::from_bits(out.decoded);
  if (cfg.check) {
    stats.checked = true;
    stats.verified = stats.output_value == demo_mac_reference(cfg.demo_seed,
                                                              cfg.bits,
                                                              stats.rounds);
  }
  stats.bytes_sent = ch->bytes_sent();
  stats.bytes_received = ch->bytes_received();
  stats.total_seconds = seconds_since(t_total);

  if (cfg.verbose)
    std::fprintf(stderr,
                 "[maxel_client] v3 (%s), %u rounds, %llu B in / %llu B out, "
                 "setup %llu B%s\n",
                 stats.pool_resumed ? "resumed pool" : "fresh pool",
                 stats.rounds,
                 static_cast<unsigned long long>(stats.bytes_received),
                 static_cast<unsigned long long>(stats.bytes_sent),
                 static_cast<unsigned long long>(stats.setup_bytes),
                 stats.checked ? (stats.verified ? ", VERIFIED" : ", MISMATCH")
                               : "");
  return stats;
}

// One reusable-mode session attempt: v3 hello with mode kReusable, the
// artifact view cached across attempts/sessions in `st`, inputs through
// the shared OT pool, all rounds evaluated locally off the plaintext
// masked tables. There is no v2 equivalent to fall back to: a
// kVersionMismatch (or any other reject) surfaces to the caller.
ClientStats run_reusable_attempt(const ClientConfig& cfg,
                                 const std::shared_ptr<FaultInjector>& injector,
                                 V3ClientState& st) {
  const auto t_total = Clock::now();
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{cfg.bits, cfg.bits, true});
  std::unique_ptr<proto::Channel> ch = make_channel(cfg, injector);

  ClientStats stats;
  stats.protocol_used = kProtocolVersionV3;
  {
    const auto t0 = Clock::now();
    ClientHello hello;
    hello.scheme = static_cast<std::uint8_t>(cfg.scheme);
    hello.ot = static_cast<std::uint8_t>(cfg.ot);
    hello.mode = static_cast<std::uint8_t>(SessionMode::kReusable);
    hello.bit_width = static_cast<std::uint32_t>(cfg.bits);
    hello.rounds = cfg.rounds_hint;
    hello.circuit_hash = circuit_fingerprint(circ);
    HelloExtV3 ext;
    ext.client_id = st.client_id;
    if (st.ticket) {
      ext.has_ticket = true;
      ext.ticket = *st.ticket;
    }
    stats.rounds = client_handshake_v3(*ch, hello, ext);
    stats.handshake_seconds = seconds_since(t0);
  }

  DemoInputStream x_inputs(cfg.demo_seed, kEvaluatorStream, cfg.bits);
  std::vector<std::vector<bool>> e_bits(stats.rounds);
  for (auto& row : e_bits) row = x_inputs.next_bits();

  crypto::SystemRandom rng;
  const auto t0 = Clock::now();
  const ReusableEvalOutcome out =
      eval_reusable_session(*ch, circ, e_bits, st, rng);
  stats.eval_seconds = seconds_since(t0);
  stats.first_table_seconds = seconds_since(t_total);

  stats.setup_bytes = out.setup_bytes;
  stats.pool_resumed = !out.fresh_pool;
  stats.output_value = circuit::from_bits(out.decoded);
  if (cfg.check) {
    stats.checked = true;
    stats.verified = stats.output_value == demo_mac_reference(cfg.demo_seed,
                                                              cfg.bits,
                                                              stats.rounds);
  }
  stats.bytes_sent = ch->bytes_sent();
  stats.bytes_received = ch->bytes_received();
  stats.total_seconds = seconds_since(t_total);

  if (cfg.verbose)
    std::fprintf(stderr,
                 "[maxel_client] reusable (%s, %s), %u rounds, "
                 "%llu B in / %llu B out, setup %llu B%s\n",
                 stats.pool_resumed ? "resumed pool" : "fresh pool",
                 out.artifact_received ? "artifact received"
                                       : "artifact cached",
                 stats.rounds,
                 static_cast<unsigned long long>(stats.bytes_received),
                 static_cast<unsigned long long>(stats.bytes_sent),
                 static_cast<unsigned long long>(stats.setup_bytes),
                 stats.checked ? (stats.verified ? ", VERIFIED" : ", MISMATCH")
                               : "");
  return stats;
}

// One complete session attempt: fresh channel, fresh handshake, fresh
// OT state, fresh evaluator. Throws on any failure; run_client maps
// non-NetError escapes (parse/eval blowups from corrupted-but-framed
// bytes) to the typed, retryable CorruptionError.
ClientStats run_session_attempt(const ClientConfig& cfg,
                                const std::shared_ptr<FaultInjector>& injector,
                                V3ClientState* v3_state) {
  if (cfg.mode == SessionMode::kReusable) {
    if (!v3_state)
      throw std::logic_error("reusable mode requires v3 client state");
    return run_reusable_attempt(cfg, injector, *v3_state);
  }
  // Prefer v3 when configured (precomputed mode only — v3 subsumes the
  // per-round flow). A v2-only server rejects the v3 hello with
  // kVersionMismatch; redial the same attempt with a v2 hello so old
  // servers keep working unchanged.
  if (v3_state && cfg.protocol >= kProtocolVersionV3 &&
      cfg.mode == SessionMode::kPrecomputed) {
    try {
      return run_v3_attempt(cfg, injector, *v3_state);
    } catch (const HandshakeError& e) {
      if (e.code() != RejectCode::kVersionMismatch) throw;
      if (cfg.verbose)
        std::fprintf(stderr,
                     "[maxel_client] server only speaks protocol v2 (%s); "
                     "redialing with a v2 hello\n",
                     e.what());
    }
  }

  const auto t_total = Clock::now();
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{cfg.bits, cfg.bits, true});

  std::unique_ptr<proto::Channel> ch = make_channel(cfg, injector);

  ClientStats stats;
  stats.protocol_used = kProtocolVersion;
  {
    const auto t0 = Clock::now();
    ClientHello hello;
    hello.scheme = static_cast<std::uint8_t>(cfg.scheme);
    hello.ot = static_cast<std::uint8_t>(cfg.ot);
    hello.mode = static_cast<std::uint8_t>(cfg.mode);
    hello.bit_width = static_cast<std::uint32_t>(cfg.bits);
    hello.rounds = cfg.rounds_hint;
    hello.circuit_hash = circuit_fingerprint(circ);
    stats.rounds = client_handshake(*ch, hello);
    stats.handshake_seconds = seconds_since(t0);
  }

  crypto::SystemRandom rng;
  std::unique_ptr<ot::BaseOtReceiver> base_ot;
  std::unique_ptr<ot::IknpReceiver> iknp;
  ot::OtReceiver* ot = nullptr;
  if (cfg.ot == OtChoice::kIknp) {
    iknp = std::make_unique<ot::IknpReceiver>(*ch, rng);
    const auto t0 = Clock::now();
    iknp->setup_step1();
    iknp->setup_step3();
    stats.ot_seconds += seconds_since(t0);
    ot = iknp.get();
  } else {
    base_ot = std::make_unique<ot::BaseOtReceiver>(*ch, rng);
    ot = base_ot.get();
  }

  gc::StreamingEvaluator evaluator(circ, cfg.scheme);
  stats.working_set_bytes = evaluator.working_set_bytes();

  DemoInputStream x_inputs(cfg.demo_seed, kEvaluatorStream, cfg.bits);
  std::vector<bool> decoded;
  if (cfg.mode == SessionMode::kStream) {
    // Stream mode: rounds arrive in chunk frames (proto::chunk_io); OT
    // still runs once per round after each chunk lands.
    std::uint32_t done = 0;
    while (done < stats.rounds) {
      auto t0 = Clock::now();
      proto::WireChunk wc = proto::recv_chunk(*ch);
      stats.transfer_seconds += seconds_since(t0);
      if (done == 0) stats.first_table_seconds = seconds_since(t_total);
      if (wc.scheme != cfg.scheme)
        throw NetError("stream chunk: scheme mismatch");
      if (wc.first_round != done || wc.rounds.empty() ||
          done + wc.rounds.size() > stats.rounds)
        throw NetError("stream chunk: rounds out of order or overrun");
      if (done == 0)
        evaluator.set_initial_state_labels(wc.initial_state_labels);
      for (const auto& wr : wc.rounds) {
        t0 = Clock::now();
        ot->recv_phase1(x_inputs.next_bits());
        const std::vector<crypto::Block> my_labels = ot->recv_phase2();
        stats.ot_seconds += seconds_since(t0);

        t0 = Clock::now();
        const auto out_labels = evaluator.eval_round(
            wr.tables, wr.garbler_labels, my_labels, wr.fixed_labels);
        decoded = gc::decode_with_map(out_labels, wr.output_map);
        stats.eval_seconds += seconds_since(t0);
        ++done;
      }
      ++stats.chunks_received;
    }
  } else {
    std::vector<std::uint8_t> table_buf;
    for (std::uint32_t r = 0; r < stats.rounds; ++r) {
      // Round material, same wire order GarblerParty/PrecomputedGarblerParty
      // send it: tables, garbler labels, fixed labels, initial state
      // (round 0 only), output decode map.
      auto t0 = Clock::now();
      const std::size_t n_tables = ch->recv_u64();
      table_buf.resize(n_tables * gc::bytes_per_and(cfg.scheme));
      ch->recv_bytes(table_buf.data(), table_buf.size());
      const gc::RoundTables tables =
          gc::tables_from_bytes(table_buf.data(), n_tables, cfg.scheme);
      const std::vector<crypto::Block> garbler_labels = ch->recv_blocks();
      const std::vector<crypto::Block> fixed_labels = ch->recv_blocks();
      if (r == 0) evaluator.set_initial_state_labels(ch->recv_blocks());
      const std::vector<bool> output_map = ch->recv_bits();
      stats.transfer_seconds += seconds_since(t0);
      if (r == 0) stats.first_table_seconds = seconds_since(t_total);

      t0 = Clock::now();
      ot->recv_phase1(x_inputs.next_bits());
      const std::vector<crypto::Block> my_labels = ot->recv_phase2();
      stats.ot_seconds += seconds_since(t0);

      t0 = Clock::now();
      const auto out_labels = evaluator.eval_round(tables, garbler_labels,
                                                   my_labels, fixed_labels);
      decoded = gc::decode_with_map(out_labels, output_map);
      stats.eval_seconds += seconds_since(t0);
    }
  }

  stats.output_value = circuit::from_bits(decoded);
  if (cfg.check) {
    stats.checked = true;
    stats.verified = stats.output_value == demo_mac_reference(cfg.demo_seed,
                                                              cfg.bits,
                                                              stats.rounds);
  }
  stats.bytes_sent = ch->bytes_sent();
  stats.bytes_received = ch->bytes_received();
  stats.total_seconds = seconds_since(t_total);

  if (cfg.verbose)
    std::fprintf(stderr,
                 "[maxel_client] %s%u rounds, %llu B in / %llu B out, "
                 "working set %zu B, transfer %.3fs, ot %.3fs, eval %.3fs%s\n",
                 cfg.mode == SessionMode::kStream ? "stream, " : "",
                 stats.rounds,
                 static_cast<unsigned long long>(stats.bytes_received),
                 static_cast<unsigned long long>(stats.bytes_sent),
                 stats.working_set_bytes, stats.transfer_seconds,
                 stats.ot_seconds, stats.eval_seconds,
                 stats.checked ? (stats.verified ? ", VERIFIED" : ", MISMATCH")
                               : "");
  return stats;
}

}  // namespace

ClientStats run_client(const ClientConfig& cfg) {
  std::shared_ptr<FaultInjector> injector;
  if (!cfg.fault_plan.empty())
    injector = std::make_shared<FaultInjector>(FaultPlan::parse(cfg.fault_plan));

  // The v3 pool state spans every attempt of this call (and every call,
  // when the caller shares cfg.v3_state): a retry resumes the pool
  // instead of paying the base OT again.
  std::shared_ptr<V3ClientState> v3_state = cfg.v3_state;
  if (!v3_state && (cfg.protocol >= kProtocolVersionV3 ||
                    cfg.mode == SessionMode::kReusable)) {
    crypto::SystemRandom id_rng;
    v3_state = make_v3_client_state(id_rng);
  }

  const int max_attempts = std::max(1, cfg.retry.max_attempts);
  const auto t_run = Clock::now();
  std::uint64_t waited_ms = 0;

  // Failure handler shared by the typed and mapped catch arms: rethrow
  // when out of attempts or non-retryable, otherwise sleep the
  // deterministic backoff and let the loop start a fresh session.
  // Corrupted session bytes may have landed in the pool's base OT or
  // extension, desyncing the correlation both sides resume from. Forget
  // the ticket whether or not a retry follows: the next session on this
  // identity — this call's retry or a later call sharing cfg.v3_state —
  // then pays a fresh base OT instead of resuming the poisoned pool.
  const auto forget_pool = [&] {
    if (v3_state) v3_state->ticket.reset();
  };
  const auto retry_or_rethrow = [&](const NetError& e, int attempt) {
    if (dynamic_cast<const CorruptionError*>(&e) != nullptr) forget_pool();
    if (attempt >= max_attempts || !net_error_is_retryable(e)) throw;
    const std::uint64_t wait = retry_backoff_ms(cfg.retry, attempt);
    if (cfg.verbose)
      std::fprintf(stderr,
                   "[maxel_client] attempt %d/%d failed (%s); retrying with a "
                   "fresh session in %llu ms\n",
                   attempt, max_attempts, e.what(),
                   static_cast<unsigned long long>(wait));
    waited_ms += wait;
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
  };

  for (int attempt = 1;; ++attempt) {
    try {
      ClientStats stats = run_session_attempt(cfg, injector, v3_state.get());
      // A checked mismatch is corruption: the session completed but the
      // bytes lied. While attempts remain, burn this session and retry;
      // on the last attempt keep the historical contract (stats.verified
      // reports it, no throw).
      if (cfg.check && !stats.verified) {
        forget_pool();
        if (attempt < max_attempts)
          throw CorruptionError(
              "decoded MAC does not match the plaintext reference");
      }
      stats.attempts = static_cast<std::uint32_t>(attempt);
      stats.retry_wait_ms = waited_ms;
      stats.total_seconds = seconds_since(t_run);
      return stats;
    } catch (const NetError& e) {
      retry_or_rethrow(e, attempt);
    } catch (const std::exception& e) {
      // Parse/eval blowups from corrupted-but-framed bytes reach here
      // untyped; map them to the retryable CorruptionError so callers
      // always see a NetError subclass.
      const CorruptionError mapped(std::string("session corrupted: ") +
                                   e.what());
      try {
        retry_or_rethrow(mapped, attempt);
      } catch (...) {
        throw mapped;  // surface the typed mapping, not the raw error
      }
    }
  }
}

}  // namespace maxel::net
