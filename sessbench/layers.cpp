#include "layers.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "circuit/builder.hpp"
#include "circuit/circuits.hpp"
#include "core/gc_core_pool.hpp"
#include "crypto/aes.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "evloop/buffered_channel.hpp"
#include "evloop/event_loop.hpp"
#include "evloop/session.hpp"
#include "gc/garble.hpp"
#include "gc/reusable.hpp"
#include "gc/streaming_evaluator.hpp"
#include "gc/v3.hpp"
#include "net/demo_inputs.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "ot/iknp.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/chunk_io.hpp"
#include "proto/precompute.hpp"
#include "proto/v3_session.hpp"
#include "svc/session_spool.hpp"

namespace sessbench {
namespace {

namespace fs = std::filesystem;
using namespace maxel;
using crypto::Block;

// Folds timed results into a global the compiler must keep.
std::atomic<std::uint64_t> g_sink{0};
void keep(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Median time of `reps` timed calls of `fn`, after one untimed call that
// warms caches and lazy set-up. `prepare` runs untimed before each call.
double median_seconds(int reps, const std::function<void()>& prepare,
                      const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i <= reps; ++i) {
    prepare();
    const auto t0 = Clock::now();
    fn();
    if (i > 0) t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

double median_seconds(int reps, const std::function<void()>& fn) {
  return median_seconds(reps, [] {}, fn);
}

// Everything the probes share: the MAC netlist and the demo inputs of
// one session of the workload, plus the plaintext reference.
struct Shape {
  circuit::Circuit circ;
  gc::V3Analysis an;
  std::size_t rounds = 0;
  std::vector<std::vector<bool>> g_bits;  // garbler inputs per round
  std::vector<std::vector<bool>> e_bits;  // evaluator inputs per round
  std::uint64_t reference = 0;
};

Shape make_shape(const Workload& w, std::uint64_t seed) {
  Shape s;
  s.circ = circuit::make_mac_circuit(circuit::MacOptions{kBits, kBits, true});
  s.an = gc::analyze_v3(s.circ);
  s.rounds = w.rounds;
  net::DemoInputStream a(seed, net::kGarblerStream, kBits);
  net::DemoInputStream x(seed, net::kEvaluatorStream, kBits);
  for (std::size_t r = 0; r < w.rounds; ++r) {
    s.g_bits.push_back(a.next_bits());
    s.e_bits.push_back(x.next_bits());
  }
  s.reference = net::demo_mac_reference(seed, kBits, w.rounds);
  return s;
}

// Moves a BufferedChannel's framed output into a flat byte vector.
std::vector<std::uint8_t> drain_output(evloop::BufferedChannel& ch) {
  std::vector<std::uint8_t> out;
  while (ch.has_output()) {
    struct iovec iov[16];
    const std::size_t n = ch.gather(iov, 16);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
      out.insert(out.end(), p, p + iov[i].iov_len);
      moved += iov[i].iov_len;
    }
    ch.mark_written(moved);
  }
  return out;
}

class Probes {
 public:
  explicit Probes(Tracer& tracer) : tracer_(tracer) {}

  void add(const std::string& name, const std::string& unit,
           const std::function<double()>& measure) {
    const auto t0 = Clock::now();
    const double v = measure();
    tracer_.record(name, -1, -1, t0, Clock::now());
    out_.push_back(Metric{name, v, unit});
  }

  std::vector<Metric> take() { return std::move(out_); }

 private:
  Tracer& tracer_;
  std::vector<Metric> out_;
};

void crypto_probes(Probes& p, const ProbeContext& ctx,
                   const std::vector<std::uint8_t>& spooled_bytes) {
  p.add("crypto.aes_ns_per_block", "ns", [&] {
    const crypto::Aes128 aes;
    Block b{ctx.seed, 1};
    constexpr int kN = 200'000;
    const double s = median_seconds(5, [&] {
      for (int i = 0; i < kN; ++i) b = aes.encrypt(b);
    });
    keep(b.lo);
    return s * 1e9 / kN;
  });
  p.add("crypto.aes8_ns_per_block", "ns", [&] {
    const crypto::Aes128 aes;
    Block blk[8];
    for (std::uint64_t i = 0; i < 8; ++i) blk[i] = Block{ctx.seed, i};
    constexpr int kN = 50'000;
    const double s = median_seconds(5, [&] {
      for (int i = 0; i < kN; ++i) aes.encrypt_batch(blk, blk, 8);
    });
    keep(blk[7].lo);
    return s * 1e9 / (kN * 8.0);
  });
  p.add("crypto.sha256_ns_per_byte", "ns", [&] {
    constexpr int kN = 4;
    const double s = median_seconds(5, [&] {
      for (int i = 0; i < kN; ++i)
        keep(crypto::Sha256::hash(spooled_bytes.data(),
                                  spooled_bytes.size())[0]);
    });
    return s * 1e9 / (kN * static_cast<double>(spooled_bytes.size()));
  });
}

void circuit_gc_probes(Probes& p, ProbeContext& ctx, const Shape& sh) {
  const double and_rounds =
      static_cast<double>(sh.circ.and_count() * sh.rounds);

  p.add("circuit.client_setup_us", "us", [&] {
    constexpr int kN = 10;
    const double s = median_seconds(5, [&] {
      for (int i = 0; i < kN; ++i) {
        const circuit::Circuit c = circuit::make_mac_circuit(
            circuit::MacOptions{kBits, kBits, true});
        const gc::V3Analysis an = gc::analyze_v3(c);
        keep(net::circuit_fingerprint(c)[0] + an.rows_per_round);
      }
    });
    return s * 1e6 / kN;
  });

  p.add("gc.garble_ns_per_and", "ns", [&] {
    crypto::SystemRandom rng(Block{ctx.seed, 11});
    gc::CircuitGarbler g(sh.circ, gc::Scheme::kHalfGates, rng);
    const double s = median_seconds(5, [&] {
      for (std::size_t r = 0; r < sh.rounds; ++r)
        keep(g.garble_round_material().tables.tables.size());
    });
    return s * 1e9 / and_rounds;
  });

  p.add("gc.eval_ns_per_and", "ns", [&] {
    crypto::SystemRandom rng(Block{ctx.seed, 12});
    gc::CircuitGarbler g(sh.circ, gc::Scheme::kHalfGates, rng);
    struct Round {
      gc::RoundTables tables;
      std::vector<Block> g_labels, e_labels, fixed;
      std::vector<bool> map;
    };
    std::vector<Round> rs(sh.rounds);
    for (std::size_t r = 0; r < sh.rounds; ++r) {
      gc::RoundMaterial m = g.garble_round_material();
      Round& d = rs[r];
      d.tables = std::move(m.tables);
      for (std::size_t j = 0; j < m.garbler_labels0.size(); ++j)
        d.g_labels.push_back(sh.g_bits[r][j]
                                 ? m.garbler_labels0[j] ^ g.delta()
                                 : m.garbler_labels0[j]);
      for (std::size_t j = 0; j < m.evaluator_pairs.size(); ++j)
        d.e_labels.push_back(sh.e_bits[r][j] ? m.evaluator_pairs[j].second
                                             : m.evaluator_pairs[j].first);
      d.fixed = std::move(m.fixed_labels);
      d.map = std::move(m.output_map);
    }
    const std::vector<Block> init = g.initial_state_labels();
    std::optional<gc::StreamingEvaluator> ev;
    std::vector<Block> out;
    const double s = median_seconds(
        5,
        [&] {
          ev.emplace(sh.circ, gc::Scheme::kHalfGates);
          ev->set_initial_state_labels(init);
        },
        [&] {
          for (const Round& d : rs)
            out = ev->eval_round(d.tables, d.g_labels, d.e_labels, d.fixed);
        });
    const std::vector<bool> decoded = gc::decode_with_map(out, rs.back().map);
    if (circuit::from_bits(decoded) != sh.reference) ctx.verified = false;
    return s * 1e9 / and_rounds;
  });

  p.add("gc.reusable_eval_us", "us", [&] {
    crypto::SystemRandom rng(Block{ctx.seed, 13});
    const net::ReusableServeContext rc = net::make_reusable_context(
        sh.circ, net::garble_reusable(sh.circ, kBits, rng),
        static_cast<std::uint32_t>(sh.rounds), ctx.seed);
    const std::size_t n_g = sh.circ.garbler_inputs.size();
    std::vector<std::vector<bool>> mg(sh.rounds), me(sh.rounds);
    for (std::size_t r = 0; r < sh.rounds; ++r) {
      mg[r].assign(rc.masked_garbler_bits.begin() + r * n_g,
                   rc.masked_garbler_bits.begin() + (r + 1) * n_g);
      for (std::size_t j = 0; j < sh.e_bits[r].size(); ++j)
        me[r].push_back(sh.e_bits[r][j] != rc.artifact.evaluator_flips[j]);
    }
    gc::ReusableEvaluator ev(sh.circ, rc.artifact.view);
    std::vector<bool> out;
    const double s = median_seconds(7, [&] {
      ev.reset();
      for (std::size_t r = 0; r < sh.rounds; ++r)
        out = ev.eval_round(mg[r], me[r]);
    });
    if (circuit::from_bits(out) != sh.reference) ctx.verified = false;
    return s * 1e6;
  });
}

void core_ot_probes(Probes& p, const ProbeContext& ctx, const Shape& sh) {
  p.add("core.garble_v3_ms_per_session", "ms", [&] {
    core::GcCorePool pool(1, Block{ctx.seed, 14});
    const Block delta = crypto::random_delta(pool.core_rng(0));
    constexpr std::size_t kN = 4;
    const double s = median_seconds(5, [&] {
      pool.parallel_for(kN, [&](std::size_t, std::size_t core) {
        crypto::RandomSource& rng = pool.core_rng(core);
        keep(proto::garble_session_v3(sh.circ, sh.an, sh.g_bits, delta,
                                      rng.next_block(), rng)
                 .rounds.size());
      });
    });
    return s * 1e3 / kN;
  });

  p.add("ot.base_setup_ms", "ms", [&] {
    crypto::SystemRandom s_rng(Block{ctx.seed, 15});
    crypto::SystemRandom r_rng(Block{ctx.seed, 16});
    const double s = median_seconds(5, [&] {
      auto [a, b] = proto::MemoryChannel::create_pair();
      ot::IknpSender sender(*a, s_rng);
      ot::IknpReceiver receiver(*b, r_rng);
      ot::iknp_setup(sender, receiver);
    });
    return s * 1e3;
  });

  constexpr std::size_t kBatch = ot::kPoolExtendBatch;
  p.add("ot.iknp_ns_per_ot", "ns", [&] {
    crypto::SystemRandom s_rng(Block{ctx.seed, 17});
    crypto::SystemRandom r_rng(Block{ctx.seed, 18});
    std::unique_ptr<proto::MemoryChannel> sch, cch;
    std::optional<ot::CorrelatedPoolSender> server;
    std::optional<ot::CorrelatedPoolReceiver> client;
    const double s = median_seconds(
        5,
        [&] {
          std::tie(sch, cch) = proto::MemoryChannel::create_pair();
          server.emplace(crypto::random_delta(s_rng), 1);
          client.emplace();
          ot::pool_base_setup(*server, *client, *sch, *cch, s_rng, r_rng);
        },
        [&] {
          client->extend(*cch, kBatch);
          server->extend(*sch, kBatch);
        });
    return s * 1e9 / kBatch;
  });

  p.add("ot.extend_ms_at_1m", "ms", [&] {
    crypto::SystemRandom s_rng(Block{ctx.seed, 19});
    crypto::SystemRandom r_rng(Block{ctx.seed, 20});
    auto [sch, cch] = proto::MemoryChannel::create_pair();
    ot::CorrelatedPoolSender server(crypto::random_delta(s_rng), 1);
    ot::CorrelatedPoolReceiver client;
    ot::pool_base_setup(server, client, *sch, *cch, s_rng, r_rng);
    while (server.extended() < (std::uint64_t{1} << 20)) {
      client.extend(*cch, kBatch);
      server.extend(*sch, kBatch);
    }
    const double s = median_seconds(3, [&] {
      client.extend(*cch, kBatch);
      server.extend(*sch, kBatch);
    });
    return s * 1e3;
  });
}

void proto_probes(Probes& p, const ProbeContext& ctx, const Shape& sh,
                  const std::vector<std::uint8_t>& spooled_bytes) {
  // One stream chunk of the workload's shape, as the shard emits it.
  crypto::SystemRandom rng(Block{ctx.seed, 21});
  gc::CircuitGarbler g(sh.circ, gc::Scheme::kHalfGates, rng);
  proto::WireChunk wc;
  wc.scheme = gc::Scheme::kHalfGates;
  const std::size_t n_rounds = std::min(kChunkRounds, sh.rounds);
  for (std::size_t r = 0; r < n_rounds; ++r) {
    gc::RoundMaterial m = g.garble_round_material();
    proto::WireChunk::Round wr;
    wr.tables = std::move(m.tables);
    for (std::size_t j = 0; j < m.garbler_labels0.size(); ++j)
      wr.garbler_labels.push_back(sh.g_bits[r][j]
                                      ? m.garbler_labels0[j] ^ g.delta()
                                      : m.garbler_labels0[j]);
    wr.fixed_labels = std::move(m.fixed_labels);
    wr.output_map = std::move(m.output_map);
    wc.rounds.push_back(std::move(wr));
  }
  wc.initial_state_labels = g.initial_state_labels();

  std::optional<evloop::BufferedChannel> ch;
  std::vector<std::uint8_t> framed;
  p.add("proto.chunk_encode_ns_per_byte", "ns", [&] {
    const double s = median_seconds(
        7, [&] { ch.emplace(); },
        [&] {
          proto::send_chunk(*ch, wc);
          ch->flush();
        });
    framed = drain_output(*ch);
    return s * 1e9 / static_cast<double>(framed.size());
  });
  p.add("proto.chunk_decode_ns_per_byte", "ns", [&] {
    const double s = median_seconds(
        7,
        [&] {
          ch.emplace();
          ch->ingest(framed.data(), framed.size());
        },
        [&] { keep(proto::recv_chunk(*ch).rounds.size()); });
    return s * 1e9 / static_cast<double>(framed.size());
  });
  p.add("proto.v3_parse_ms", "ms", [&] {
    const double s = median_seconds(7, [&] {
      keep(proto::parse_session_v3(spooled_bytes.data(), spooled_bytes.size())
               .rounds.size());
    });
    return s * 1e3;
  });
}

// Loopback TcpChannel pair: u64 ping-pong and bulk send_blocks. The peer
// thread answers commands: 0 = echo, 1 = receive n block vectors and
// acknowledge, 2 = quit.
void net_probes(Probes& p, const ProbeContext& ctx) {
  net::TcpListener lst(0, "127.0.0.1");
  std::string peer_error;
  std::thread peer([&] {
    try {
      auto ch = lst.accept(10'000);
      if (!ch) throw std::runtime_error("no connection");
      for (;;) {
        const std::uint64_t cmd = ch->recv_u64();
        if (cmd == 2) break;
        if (cmd == 0) {
          ch->send_u64(ch->recv_u64() + 1);
        } else {
          const std::uint64_t n = ch->recv_u64();
          std::uint64_t got = 0;
          for (std::uint64_t i = 0; i < n; ++i) got += ch->recv_blocks().size();
          ch->send_u64(got);
        }
        ch->flush();
      }
    } catch (const std::exception& e) {
      peer_error = e.what();
    }
  });
  {
    auto ch = net::TcpChannel::connect("127.0.0.1", lst.port());
    p.add("net.tcp_rtt_us", "us", [&] {
      constexpr int kPings = 200;
      std::uint64_t v = ctx.seed;
      const double s = median_seconds(9, [&] {
        for (int i = 0; i < kPings; ++i) {
          ch->send_u64(0);
          ch->send_u64(v);
          v = ch->recv_u64();
        }
      });
      keep(v);
      return s * 1e6 / kPings;
    });
    p.add("net.tcp_stream_mb_s", "MB/s", [&] {
      const std::vector<Block> blocks(65'536, Block{ctx.seed, 22});  // 1 MiB
      constexpr std::uint64_t kVectors = 16;
      const double s = median_seconds(3, [&] {
        ch->send_u64(1);
        ch->send_u64(kVectors);
        for (std::uint64_t i = 0; i < kVectors; ++i) ch->send_blocks(blocks);
        keep(ch->recv_u64());
      });
      return kVectors * (8.0 + 16.0 * blocks.size()) / 1e6 / s;
    });
    ch->send_u64(2);
    ch->flush();
  }
  peer.join();
  if (!peer_error.empty())
    throw std::runtime_error("tcp probe peer: " + peer_error);

  p.add("net.connect_us", "us", [&] {
    net::TcpOptions opts;
    opts.connect_attempts = 1;
    std::unique_ptr<net::TcpChannel> c;
    const double s = median_seconds(
        40, [&] { c.reset(); },
        [&] {
          c = net::TcpChannel::connect("127.0.0.1", ctx.live_port, opts);
        });
    return s * 1e6;
  });
}

void evloop_svc_probes(Probes& p, const ProbeContext& ctx,
                       const proto::PrecomputedSessionV3& session) {
  p.add("evloop.ingest_ns_per_byte", "ns", [&] {
    // Inbound: 4 MiB of 1 MiB frames ingested in 64 KiB recv-sized
    // slices. Outbound: the same bytes staged, framed and gathered.
    const std::vector<std::uint8_t> mib(1u << 20, 0x5a);
    constexpr int kMiB = 4;
    evloop::BufferedChannel framer;
    for (int i = 0; i < kMiB; ++i) {
      framer.send_bytes(mib.data(), mib.size());
      framer.flush();
    }
    const std::vector<std::uint8_t> wire = drain_output(framer);
    const double s = median_seconds(5, [&] {
      evloop::BufferedChannel rx;
      for (std::size_t off = 0; off < wire.size(); off += 64 * 1024)
        rx.ingest(wire.data() + off,
                  std::min<std::size_t>(64 * 1024, wire.size() - off));
      keep(rx.available());
      evloop::BufferedChannel tx;
      for (int i = 0; i < kMiB; ++i) {
        tx.send_bytes(mib.data(), mib.size());
        tx.flush();
      }
      while (tx.has_output()) {
        struct iovec iov[16];
        const std::size_t n = tx.gather(iov, 16);
        std::size_t moved = 0;
        for (std::size_t i = 0; i < n; ++i) moved += iov[i].iov_len;
        tx.mark_written(moved);
      }
    });
    return s * 1e9 / static_cast<double>(wire.size());
  });

  p.add("evloop.post_us", "us", [&] {
    evloop::EvLoop loop;
    std::thread th([&] { loop.run(); });
    std::atomic<std::int64_t> fired_ns{0};
    std::vector<double> t;
    for (int i = 0; i < 220; ++i) {
      // Let the loop park in its poller so every post wakes an idle loop.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const auto t0 = Clock::now();
      loop.post([&] {
        fired_ns.store(Clock::now().time_since_epoch().count(),
                       std::memory_order_release);
      });
      std::int64_t f = 0;
      while ((f = fired_ns.load(std::memory_order_acquire)) == 0) {
      }
      fired_ns.store(0, std::memory_order_relaxed);
      if (i >= 20)
        t.push_back(
            static_cast<double>(f - t0.time_since_epoch().count()) / 1e3);
    }
    loop.stop();
    th.join();
    return median(t);
  });

  const fs::path dir = fs::path(ctx.work_dir) / "layer-spool";
  fs::remove_all(dir);
  svc::SpoolStats st;
  {
    svc::SessionSpool spool(svc::SpoolConfig{dir.string(), 4, true});
    // As many takes as puts, so the probe spool ends empty.
    constexpr int kN = 8;
    p.add("svc.spool_put_ms", "ms", [&] {
      return median_seconds(kN, [&] { spool.put_v3(session); }) * 1e3;
    });
    p.add("svc.spool_take_ms", "ms", [&] {
      return median_seconds(kN, [&] {
               if (!spool.take_v3(session.pool_lineage))
                 throw std::runtime_error("probe spool ran dry");
             }) * 1e3;
    });
    st = spool.stats();
  }
  fs::remove_all(dir);
  // The v3 lane has no RAM cache, so each of its takes counts as a miss.
  p.add("svc.spool_cache_hit_ratio", "ratio", [&] {
    const double takes = static_cast<double>(st.cache_hits + st.cache_misses +
                                             st.v3_claimed);
    return takes == 0 ? 0.0 : static_cast<double>(st.cache_hits) / takes;
  });
}

// Writes everything the session has queued to the socket.
bool drain_to(int fd, evloop::BufferedChannel& ch) {
  while (ch.has_output()) {
    struct iovec iov[16];
    const std::size_t n = ch.gather(iov, 16);
    const ssize_t w = ::writev(fd, iov, static_cast<int>(n));
    if (w <= 0) return false;
    ch.mark_written(static_cast<std::size_t>(w));
  }
  return true;
}

}  // namespace

std::vector<Metric> probe_layers(ProbeContext& ctx, Tracer& tracer) {
  const Shape sh = make_shape(*ctx.w, ctx.seed);
  crypto::SystemRandom rng(Block{ctx.seed, 10});
  const proto::PrecomputedSessionV3 session = proto::garble_session_v3(
      sh.circ, sh.an, sh.g_bits, crypto::random_delta(rng), rng.next_block(),
      rng);
  const std::vector<std::uint8_t> spooled =
      proto::serialize_session_v3(session);

  Probes p(tracer);
  crypto_probes(p, ctx, spooled);
  circuit_gc_probes(p, ctx, sh);
  core_ot_probes(p, ctx, sh);
  proto_probes(p, ctx, sh, spooled);
  net_probes(p, ctx);
  evloop_svc_probes(p, ctx, session);
  return p.take();
}

ShuttleTimes shuttle_sessions(ProbeContext& ctx, std::size_t sessions) {
  const Workload& w = *ctx.w;
  const Shape sh = make_shape(w, ctx.seed);
  net::V3PoolRegistry reg(crypto::SystemRandom().next_block());
  crypto::SystemRandom rng;
  const net::ReusableServeContext rctx = net::make_reusable_context(
      sh.circ, net::garble_reusable(sh.circ, kBits, rng),
      static_cast<std::uint32_t>(w.rounds), ctx.seed);

  // Standalone serve context. v3 sessions are garbled before the timed
  // sessions, as the broker's producer would have spooled them.
  std::deque<proto::PrecomputedSessionV3> ready;
  if (w.protocol >= net::kProtocolVersionV3 &&
      w.mode == net::SessionMode::kPrecomputed)
    for (std::size_t i = 0; i <= sessions; ++i)
      ready.push_back(proto::garble_session_v3(sh.circ, sh.an, sh.g_bits,
                                               reg.delta(), rng.next_block(),
                                               rng));
  evloop::EvServeContext sc;
  sc.circ = &sh.circ;
  sc.expect.scheme = gc::Scheme::kHalfGates;
  sc.expect.bit_width = kBits;
  sc.expect.circuit_hash = net::circuit_fingerprint(sh.circ);
  sc.expect.rounds_per_session = static_cast<std::uint32_t>(w.rounds);
  sc.expect.allow_stream = true;
  sc.expect.allow_v3 = true;
  sc.expect.allow_reusable = true;
  sc.reg = &reg;
  sc.reusable = &rctx;
  sc.bits = kBits;
  sc.rounds = w.rounds;
  sc.demo_seed = ctx.seed;
  sc.scheme = gc::Scheme::kHalfGates;
  sc.stream_chunk_rounds = kChunkRounds;
  sc.take_session = [&] {
    return proto::garble_session(sh.circ, gc::Scheme::kHalfGates, w.rounds,
                                 rng);
  };
  sc.take_v3 = [&] {
    if (ready.empty()) throw std::runtime_error("shuttle: no v3 session left");
    proto::PrecomputedSessionV3 s = std::move(ready.front());
    ready.pop_front();
    return s;
  };

  net::TcpListener lst(0, "127.0.0.1");
  std::shared_ptr<net::V3ClientState> state;
  if (w.pooled()) state = net::make_v3_client_state(rng);

  ShuttleTimes out;
  double busy_total = 0, wall_total = 0;
  for (std::size_t i = 0; i <= sessions; ++i) {
    double busy = 0, wall = 0;
    bool served = false;
    std::thread serve([&] {
      const int cfd = ::accept(lst.fd(), nullptr, nullptr);
      if (cfd < 0) return;
      const auto t_accept = Clock::now();
      int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      evloop::EvSession s(sc);
      std::vector<std::uint8_t> buf(64 * 1024);
      const auto timed = [&](const std::function<void()>& fn) {
        const auto t0 = Clock::now();
        fn();
        busy += seconds_between(t0, Clock::now());
      };
      while (!s.done() && !s.failed()) {
        const ssize_t n = ::recv(cfd, buf.data(), buf.size(), 0);
        if (n <= 0) {
          if (n == 0) s.on_peer_eof();
          break;
        }
        timed([&] { s.on_bytes(buf.data(), static_cast<std::size_t>(n)); });
        if (!drain_to(cfd, s.channel())) break;
        while (s.wants_gate_retry()) {
          timed([&] { s.on_gate_retry(); });
          if (!drain_to(cfd, s.channel())) break;
        }
      }
      drain_to(cfd, s.channel());
      wall = seconds_between(t_accept, Clock::now());
      served = s.done();
      ::shutdown(cfd, SHUT_WR);
      char tmp[256];
      while (::recv(cfd, tmp, sizeof tmp, 0) > 0) {
      }
      ::close(cfd);
    });
    bool verified = false;
    try {
      const net::ClientStats cs =
          net::run_client(client_config(w, ctx.seed, lst.port(), state));
      verified = cs.verified && cs.output_value == sh.reference;
    } catch (const std::exception&) {
      verified = false;
      // The client may have died before connecting; unblock accept().
      ::shutdown(lst.fd(), SHUT_RDWR);
    }
    serve.join();
    if (!verified || !served) {
      ctx.verified = false;
      break;
    }
    if (i == 0) continue;  // warm-up: fresh pool / first artifact
    busy_total += busy;
    wall_total += wall;
    ++out.sessions;
  }
  if (out.sessions != 0) {
    const double n = static_cast<double>(out.sessions);
    out.busy_us = busy_total / n * 1e6;
    out.wait_us = (wall_total - busy_total) / n * 1e6;
  }
  return out;
}

}  // namespace sessbench
