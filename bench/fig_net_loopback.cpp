// fig_net_loopback — what does the real TCP transport cost next to the
// in-memory channels?
//
// Three transports implement proto::Channel: MemoryChannel (byte
// queues, single-threaded orchestration), ThreadedChannel (blocking
// queues across threads) and TcpChannel (length-framed frames over a
// loopback socket). This bench measures, per transport, bulk streaming
// throughput and small-message round-trip latency, then runs the actual
// garbled-MAC protocol over the two thread-capable transports to show
// the end-to-end cost of moving from in-process queues to a socket —
// the step from the paper's single-host experiments to the
// client/server deployment of Fig. 1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "proto/channel.hpp"
#include "proto/protocol.hpp"
#include "proto/threaded_channel.hpp"
#include "svc/session_spool.hpp"

namespace {

using namespace maxel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kBatchBlocks = 4'096;  // 64 KiB per send_blocks
constexpr std::size_t kBatches = 64;         // 4 MiB streamed total
constexpr std::size_t kPingPongs = 2'000;

std::vector<crypto::Block> make_batch() {
  std::vector<crypto::Block> v(kBatchBlocks);
  crypto::Prg prg(crypto::Block{11, 13});
  for (auto& b : v) b = crypto::Block{prg.next_u64(), prg.next_u64()};
  return v;
}

// Bulk one-way stream with a final ack, across two threads.
double stream_mb_per_sec(proto::Channel& tx, proto::Channel& rx) {
  const auto batch = make_batch();
  const auto t0 = Clock::now();
  std::thread receiver([&] {
    for (std::size_t i = 0; i < kBatches; ++i) (void)rx.recv_blocks();
    rx.send_u64(1);
    rx.flush();
  });
  for (std::size_t i = 0; i < kBatches; ++i) tx.send_blocks(batch);
  (void)tx.recv_u64();  // ack (recv auto-flushes pending frames)
  receiver.join();
  const double bytes =
      static_cast<double>(kBatches * (8 + 16 * kBatchBlocks));
  return bytes / seconds_since(t0) / 1e6;
}

// Same stream pattern, but orchestrated on one thread (MemoryChannel's
// contract: send before the matching recv).
double stream_mb_per_sec_single(proto::Channel& tx, proto::Channel& rx) {
  const auto batch = make_batch();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kBatches; ++i) {
    tx.send_blocks(batch);
    (void)rx.recv_blocks();
  }
  const double bytes =
      static_cast<double>(kBatches * (8 + 16 * kBatchBlocks));
  return bytes / seconds_since(t0) / 1e6;
}

double pingpong_us(proto::Channel& a, proto::Channel& b) {
  const auto t0 = Clock::now();
  std::thread echo([&] {
    // Each recv auto-flushes the previous reply; the last one needs an
    // explicit flush (no further recv follows it).
    for (std::size_t i = 0; i < kPingPongs; ++i) b.send_u64(b.recv_u64());
    b.flush();
  });
  for (std::size_t i = 0; i < kPingPongs; ++i) {
    a.send_u64(i);
    (void)a.recv_u64();
  }
  echo.join();
  return seconds_since(t0) / kPingPongs * 1e6;
}

double pingpong_us_single(proto::Channel& a, proto::Channel& b) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kPingPongs; ++i) {
    a.send_u64(i);
    b.send_u64(b.recv_u64());
    (void)a.recv_u64();
  }
  return seconds_since(t0) / kPingPongs * 1e6;
}

struct ProtocolResult {
  double macs_per_sec = 0;
  double bytes_per_mac = 0;
};

// The real two-party MAC protocol (IKNP OT), garbler and evaluator on
// separate threads over the given channel pair.
ProtocolResult protocol_bench(proto::Channel& g_ch, proto::Channel& e_ch,
                              std::size_t bits, std::size_t rounds) {
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{bits, bits, true});
  proto::ProtocolOptions opt;
  opt.ot = proto::OtMode::kIknp;

  crypto::Prg prg(crypto::Block{0xBE, 0xAF});
  const std::uint64_t mask = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  std::vector<std::vector<bool>> a_bits(rounds), x_bits(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    a_bits[r] = circuit::to_bits(prg.next_u64() & mask, bits);
    x_bits[r] = circuit::to_bits(prg.next_u64() & mask, bits);
  }

  const auto t0 = Clock::now();
  std::thread garbler([&] {
    crypto::SystemRandom rng(crypto::Block{1, 2});
    proto::GarblerParty g(c, opt, g_ch, rng);
    g.setup_step2();
    g.setup_step4();
    for (std::size_t r = 0; r < rounds; ++r) {
      g.garble_and_send(a_bits[r]);
      g.finish_ot();
    }
    g_ch.flush();
  });
  std::thread evaluator([&] {
    crypto::SystemRandom rng(crypto::Block{3, 4});
    proto::EvaluatorParty e(c, opt, e_ch, rng);
    e.setup_step1();
    e.setup_step3();
    for (std::size_t r = 0; r < rounds; ++r) {
      e.receive_and_choose(x_bits[r]);
      (void)e.evaluate_round();
    }
  });
  garbler.join();
  evaluator.join();
  const double secs = seconds_since(t0);

  ProtocolResult res;
  res.macs_per_sec = static_cast<double>(rounds) / secs;
  res.bytes_per_mac =
      static_cast<double>(g_ch.bytes_sent() + g_ch.bytes_received()) /
      static_cast<double>(rounds);
  return res;
}

struct TcpPair {
  std::unique_ptr<net::TcpChannel> a, b;
};

// The serving front on loopback, one shard (sequential serving), over a
// throwaway spool; drains after `sessions` sessions.
evloop::EvBrokerConfig server_config(const svc::TempSpoolDir& spool,
                                     std::size_t bits, std::size_t rounds,
                                     std::size_t sessions) {
  evloop::EvBrokerConfig cfg;
  cfg.bind_addr = "127.0.0.1";
  cfg.port = 0;
  cfg.bits = bits;
  cfg.rounds_per_session = rounds;
  cfg.spool_dir = spool.path();
  cfg.shards = 1;
  cfg.max_sessions = sessions;
  return cfg;
}

TcpPair make_tcp_pair() {
  net::TcpListener lis(0, "127.0.0.1");
  TcpPair p;
  std::thread t([&] { p.b = lis.accept(5'000); });
  p.a = net::TcpChannel::connect("127.0.0.1", lis.port());
  t.join();
  return p;
}

// A TCP end behind FaultyChannel with an empty plan: the seam every
// production channel runs behind.
std::unique_ptr<net::FaultyChannel> nop_fault_seam(
    std::unique_ptr<net::TcpChannel> ch) {
  return std::make_unique<net::FaultyChannel>(
      std::move(ch), std::make_shared<net::FaultInjector>(net::FaultPlan{}));
}

// One protocol run over a fresh loopback pair, bare or behind the seam.
ProtocolResult tcp_protocol_bench(bool seam, std::size_t bits,
                                  std::size_t rounds) {
  TcpPair p = make_tcp_pair();
  if (!seam) return protocol_bench(*p.a, *p.b, bits, rounds);
  auto a = nop_fault_seam(std::move(p.a));
  auto b = nop_fault_seam(std::move(p.b));
  return protocol_bench(*a, *b, bits, rounds);
}

// The bare and seamed TCP rows run the same GC code, and their MAC/s
// ratio is gated at 5%. Two single samples taken one after the other
// mostly measure the host's noise, so the transports alternate over
// kSeamPairs pairs (ABBA order: a drift across the run hits both alike)
// and each row reports its median.
constexpr std::size_t kSeamPairs = 101;

struct SeamComparison {
  ProtocolResult bare, seam;
};

SeamComparison compare_seam(std::size_t bits, std::size_t rounds) {
  std::vector<double> bare, seam;
  double bytes_bare = 0, bytes_seam = 0;
  for (std::size_t i = 0; i < kSeamPairs; ++i) {
    ProtocolResult b, s;
    if (i % 2 == 0) {
      b = tcp_protocol_bench(false, bits, rounds);
      s = tcp_protocol_bench(true, bits, rounds);
    } else {
      s = tcp_protocol_bench(true, bits, rounds);
      b = tcp_protocol_bench(false, bits, rounds);
    }
    bare.push_back(b.macs_per_sec);
    seam.push_back(s.macs_per_sec);
    bytes_bare = b.bytes_per_mac;
    bytes_seam = s.bytes_per_mac;
  }
  SeamComparison c;
  c.bare = {bench::median(bare), bytes_bare};
  c.seam = {bench::median(seam), bytes_seam};
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Transport comparison: loopback channels");
  std::printf("%-16s %14s %14s %14s %14s\n", "transport", "stream MB/s",
              "rtt us", "MAC/s (b=16)", "bytes/MAC");
  bench::rule(76);

  bench::JsonReporter rep("net_loopback");
  const std::size_t bits = 16;
  const std::size_t rounds =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400;

  {
    auto [a, b] = proto::MemoryChannel::create_pair();
    const double mbps = stream_mb_per_sec_single(*a, *b);
    auto [c, d] = proto::MemoryChannel::create_pair();
    const double rtt = pingpong_us_single(*c, *d);
    std::printf("%-16s %14.0f %14.2f %14s %14s\n", "memory", mbps, rtt, "-",
                "-");
    rep.row().str("transport", "memory").num("stream_mb_s", mbps).num(
        "rtt_us", rtt);
  }
  {
    auto [a, b] = proto::ThreadedChannel::create_pair();
    const double mbps = stream_mb_per_sec(*a, *b);
    auto [c, d] = proto::ThreadedChannel::create_pair();
    const double rtt = pingpong_us(*c, *d);
    auto [g, e] = proto::ThreadedChannel::create_pair();
    const ProtocolResult pr = protocol_bench(*g, *e, bits, rounds);
    std::printf("%-16s %14.0f %14.2f %14.0f %14.0f\n", "threaded", mbps, rtt,
                pr.macs_per_sec, pr.bytes_per_mac);
    rep.row()
        .str("transport", "threaded")
        .num("stream_mb_s", mbps)
        .num("rtt_us", rtt)
        .num("mac_per_sec", pr.macs_per_sec)
        .num("bytes_per_mac", pr.bytes_per_mac);
  }
  {
    // Bare TCP and the same sockets behind the no-op fault seam;
    // bench_compare.py gates the seamed row's MAC/s to within 5% of the
    // bare row's (both medians of interleaved runs, see compare_seam).
    TcpPair s = make_tcp_pair();
    const double mbps = stream_mb_per_sec(*s.a, *s.b);
    TcpPair p = make_tcp_pair();
    const double rtt = pingpong_us(*p.a, *p.b);
    TcpPair ss = make_tcp_pair();
    auto sa = nop_fault_seam(std::move(ss.a));
    auto sb = nop_fault_seam(std::move(ss.b));
    const double seam_mbps = stream_mb_per_sec(*sa, *sb);
    TcpPair sp = make_tcp_pair();
    auto pa = nop_fault_seam(std::move(sp.a));
    auto pb = nop_fault_seam(std::move(sp.b));
    const double seam_rtt = pingpong_us(*pa, *pb);
    const SeamComparison cmp = compare_seam(bits, rounds);

    std::printf("%-16s %14.0f %14.2f %14.0f %14.0f\n", "tcp-loopback", mbps,
                rtt, cmp.bare.macs_per_sec, cmp.bare.bytes_per_mac);
    std::printf("%-16s %14.0f %14.2f %14.0f %14.0f\n", "tcp-faulty-nop",
                seam_mbps, seam_rtt, cmp.seam.macs_per_sec,
                cmp.seam.bytes_per_mac);
    rep.row()
        .str("transport", "tcp-loopback")
        .num("stream_mb_s", mbps)
        .num("rtt_us", rtt)
        .num("mac_per_sec", cmp.bare.macs_per_sec)
        .num("bytes_per_mac", cmp.bare.bytes_per_mac);
    rep.row()
        .str("transport", "tcp-faulty-nop")
        .num("stream_mb_s", seam_mbps)
        .num("rtt_us", seam_rtt)
        .num("mac_per_sec", cmp.seam.macs_per_sec)
        .num("bytes_per_mac", cmp.seam.bytes_per_mac);
  }

  {
    // Protocol v3 over the real server/client pair: PRG-seeded garbler
    // labels, packed select bits, pool OT. bytes_per_mac here is the
    // steady-state wire cost (session bytes minus one-time pool setup);
    // bench_compare.py gates it at < 0.65x the v2 tcp-loopback row and
    // checks the decoded MAC is bit-identical to the v2 session's.
    const svc::TempSpoolDir spool;
    evloop::EvBrokerConfig scfg = server_config(spool, bits, rounds, 2);
    // A shallow stock: the start-up fill garbles two sessions per lane,
    // and once stocked neither take below drops a lane under its low
    // watermark, so no refill joins the timed session.
    scfg.spool_low_watermark = 1;
    scfg.spool_high_watermark = 2;
    evloop::EvBroker server(scfg);
    std::thread serve([&] { server.run(); });

    net::ClientConfig ccfg;
    ccfg.port = server.port();
    ccfg.bits = bits;
    ccfg.verbose = false;
    const net::ClientStats v2 = net::run_client(ccfg);

    net::ClientConfig c3 = ccfg;
    c3.protocol = net::kProtocolVersionV3;
    const auto t0 = Clock::now();
    const net::ClientStats v3 = net::run_client(c3);
    const double secs = seconds_since(t0);
    serve.join();

    const bool verified =
        v2.verified && v3.verified && v3.output_value == v2.output_value;
    const double body = static_cast<double>(v3.bytes_sent +
                                            v3.bytes_received) -
                        static_cast<double>(v3.setup_bytes);
    const double bpm = body / static_cast<double>(v3.rounds);
    const double mps = static_cast<double>(v3.rounds) / secs;
    std::printf("%-16s %14s %14s %14.0f %14.0f\n", "tcp-loopback-v3", "-",
                "-", mps, bpm);
    rep.row()
        .str("transport", "tcp-loopback-v3")
        .num("mac_per_sec", mps)
        .num("bytes_per_mac", bpm)
        .num("setup_bytes", v3.setup_bytes)
        .boolean("verified", verified);
  }
  {
    // Cross-session OT amortization: one client identity reconnecting
    // 100 times (8-round sessions). The 1st session pays base OT + an
    // extension batch; later sessions resume the pool, so their setup
    // shrinks to a ticket exchange — gated at <= 10% of the 1st.
    const std::size_t r_rounds = 8, sessions = 100;
    const svc::TempSpoolDir spool;
    evloop::EvBroker server(server_config(spool, bits, r_rounds, sessions));
    std::thread serve([&] { server.run(); });

    crypto::SystemRandom id_rng(crypto::Block{0xF1, 0x6});
    auto state = net::make_v3_client_state(id_rng);
    std::uint64_t setup[3] = {0, 0, 0};  // 1st, 10th, 100th
    bool all_ok = true;
    for (std::size_t i = 1; i <= sessions; ++i) {
      net::ClientConfig ccfg;
      ccfg.port = server.port();
      ccfg.bits = bits;
      ccfg.verbose = false;
      ccfg.protocol = net::kProtocolVersionV3;
      ccfg.v3_state = state;
      const net::ClientStats cs = net::run_client(ccfg);
      all_ok = all_ok && cs.verified;
      if (i == 1) setup[0] = cs.setup_bytes;
      if (i == 10) setup[1] = cs.setup_bytes;
      if (i == sessions) setup[2] = cs.setup_bytes;
    }
    serve.join();

    std::printf("\nv3 session resumption (b=%zu, %zu-round sessions): "
                "setup bytes 1st=%llu 10th=%llu 100th=%llu%s\n",
                bits, r_rounds, static_cast<unsigned long long>(setup[0]),
                static_cast<unsigned long long>(setup[1]),
                static_cast<unsigned long long>(setup[2]),
                all_ok ? "" : "  [VERIFY FAILED]");
    const char* names[3] = {"v3-resume-1", "v3-resume-10", "v3-resume-100"};
    for (int i = 0; i < 3; ++i)
      rep.row()
          .str("transport", names[i])
          .num("setup_bytes", setup[i])
          .boolean("verified", all_ok);
  }

  std::printf("\nprotocol = two-party garbled MAC, IKNP OT, %zu rounds\n",
              rounds);
  std::printf("wrote %s\n", rep.write().c_str());
  return 0;
}
