// Session benchmark. One process runs one workload: it starts an
// evloop::EvBroker on loopback (one shard), drives it with closed-loop
// net::run_client sessions for a timed window, checks every decoded MAC
// against net::demo_mac_reference, and prints the end-to-end metrics.
// With --trace 1 it runs the window twice (untraced, then traced with
// per-session spans), times each layer's public calls, and prints the
// per-layer metrics instead.
//
// Usage: sessbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--trace-out FILE] [--git-sha SHA]
// The last stdout line is the result object; the line before it starts
// with "details " and carries the host stamp and the checks made.
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/aes.hpp"
#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "gc/v3.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "ot/pool.hpp"
#include "svc/metrics.hpp"

#include "layers.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace sessbench {
namespace {

namespace fs = std::filesystem;
using namespace maxel;

constexpr int kSetupReps = 5;              // setup_s is their median
constexpr std::size_t kTailBeyond = 10;    // sessions beyond the tail
constexpr std::size_t kShuttleSessions = 16;
// Producer GC cores. One core garbles and spools v3 sessions at about the
// rate one client consumes them; a deep spool absorbs the difference. A
// second core would make 4 busy threads and leave no headroom for CPU
// stolen by other guests on a 4-thread host.
constexpr std::size_t kProducerCores = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = (v == "1");
      else if (k == "--work-dir") a.work_dir = v;
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--git-sha") a.git_sha = v;
      else return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return find_workload(a.workload) != nullptr && a.seconds > 0;
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

struct Usage {
  double cpu_s = 0;
  long nvcsw = 0;
  // Host-wide CPU time the hypervisor gave to other guests (/proc/stat
  // "steal"); not a metric, but it explains slow runs.
  double steal_s = 0;
};

Usage usage_now() {
  rusage r{};
  ::getrusage(RUSAGE_SELF, &r);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  return Usage{tv(r.ru_utime) + tv(r.ru_stime), r.ru_nvcsw,
               ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK))};
}

// VmHWM of this process in MB (1 MB = 2^20 bytes).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// --- broker -----------------------------------------------------------------

// An EvBroker on 127.0.0.1 with one shard, running on its own thread
// until destruction; owns a fresh spool directory.
class Server {
 public:
  Server(const Workload& w, std::uint64_t seed, fs::path spool_dir)
      : spool_dir_(std::move(spool_dir)) {
    fs::remove_all(spool_dir_);
    evloop::EvBrokerConfig cfg;
    cfg.bind_addr = "127.0.0.1";
    cfg.port = 0;
    cfg.bits = kBits;
    cfg.rounds_per_session = w.rounds;
    cfg.demo_seed = seed;
    cfg.shards = 1;
    cfg.spool_dir = spool_dir_.string();
    cfg.spool_low_watermark = w.spool_low;
    cfg.spool_high_watermark = w.spool_high;
    cfg.precompute_cores = kProducerCores;
    cfg.stream_chunk_rounds = kChunkRounds;
    cfg.verbose = false;
    broker_ = std::make_unique<evloop::EvBroker>(cfg);
    thread_ = std::thread([this] {
      try {
        broker_->run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sessbench: broker stopped: %s\n", e.what());
      }
    });
  }
  ~Server() {
    broker_->request_stop();
    thread_.join();
    broker_.reset();
    std::error_code ec;
    fs::remove_all(spool_dir_, ec);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  evloop::EvBroker& broker() { return *broker_; }

 private:
  fs::path spool_dir_;
  std::unique_ptr<evloop::EvBroker> broker_;
  std::thread thread_;
};

// Server-side pads materialized for one client identity.
std::uint64_t server_pads(evloop::EvBroker& b, const crypto::Block& id) {
  const auto entry = b.v3_registry().entry_for(id);
  const std::lock_guard<std::mutex> lock(entry->io_mu);
  return entry->pool ? entry->pool->stats().extended : 0;
}

// --- clients ----------------------------------------------------------------

struct ClientSlot {
  std::shared_ptr<net::V3ClientState> state;
  std::size_t uses = 0;
  std::vector<crypto::Block> ids;  // every identity this client has used
  crypto::SystemRandom rng;
};

// Pooled workloads retire an identity after a fixed number of sessions:
// pools never free pads, so a lifelong identity would make latency and
// RSS drift with run length. The artifact cache moves to the new one.
void rekey_if_due(const Workload& w, ClientSlot& c) {
  if (!w.pooled() || (c.state && c.uses < w.identity_lifetime)) return;
  auto fresh = net::make_v3_client_state(c.rng);
  if (c.state) {
    fresh->reusable_view = c.state->reusable_view;
    fresh->reusable_sha = c.state->reusable_sha;
  }
  c.state = std::move(fresh);
  c.uses = 0;
  c.ids.push_back(c.state->client_id);
}

struct SessionRecord {
  double wall_s = 0;
  bool ok = false;
  net::ClientStats cs;
  std::string error;
};

// One session, connect to decoded and checked output. A thrown NetError
// is a failed session.
SessionRecord run_session(const Workload& w, std::uint64_t seed,
                          std::uint16_t port, ClientSlot& c,
                          std::uint64_t reference) {
  rekey_if_due(w, c);
  ++c.uses;
  SessionRecord rec;
  const auto t0 = Clock::now();
  try {
    rec.cs = net::run_client(client_config(w, seed, port, c.state));
    rec.ok = rec.cs.verified && rec.cs.output_value == reference &&
             rec.cs.rounds == w.rounds;
    if (!rec.ok) rec.error = "decoded MAC differs from the reference";
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.wall_s = seconds_between(t0, Clock::now());
  return rec;
}

// Session span plus its ClientStats phases as children, laid end to end
// from the session start (stream mode interleaves them per round; the
// durations are exact, the placement is not).
void trace_session(Tracer& tr, std::int64_t id, Clock::time_point start,
                   const SessionRecord& rec) {
  const std::int64_t parent =
      tr.record("session", id, -1, start, start + to_duration(rec.wall_s));
  const std::pair<const char*, double> phases[] = {
      {"client.handshake", rec.cs.handshake_seconds},
      {"client.ot", rec.cs.ot_seconds},
      {"client.transfer", rec.cs.transfer_seconds},
      {"client.eval", rec.cs.eval_seconds}};
  Clock::time_point t = start;
  for (const auto& [name, secs] : phases) {
    const Clock::time_point end = t + to_duration(secs);
    tr.record(name, id, parent, t, end);
    t = end;
  }
}

// Waits (bounded) until the broker has recorded `want` sessions and no
// OT-pool claim is open; it records a session after its last bytes are
// written, so it can trail the client by a moment.
void settle(evloop::EvBroker& b, std::uint64_t want) {
  const auto t0 = Clock::now();
  while ((b.stats().server.sessions_served < want ||
          b.v3_outstanding_claims() != 0) &&
         seconds_between(t0, Clock::now()) < 3.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

struct Setup {
  std::unique_ptr<Server> server;
  std::vector<ClientSlot> clients;
  double seconds = 0;
};

// Broker construction (reusable artifact garbled), spool filled to its
// high watermark, then the warm-up sessions that set up the OT pools.
Setup set_up(const Workload& w, const Args& a, const fs::path& spool,
             std::uint64_t reference) {
  Setup s;
  const auto t0 = Clock::now();
  s.server = std::make_unique<Server>(w, a.seed, spool);
  evloop::EvBroker& b = s.server->broker();
  while (w.producer_active()) {
    const svc::SpoolStats st = b.stats().spool;
    if (st.sessions_ready >= w.spool_high &&
        st.sessions_ready_v3 >= w.spool_high)
      break;
    if (seconds_between(t0, Clock::now()) > 60)
      throw std::runtime_error("spool did not reach its high watermark");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  s.clients.resize(w.clients);
  for (ClientSlot& c : s.clients)
    for (std::size_t i = 0; i < w.warmup_sessions; ++i) {
      const SessionRecord rec = run_session(w, a.seed, b.port(), c, reference);
      if (!rec.ok)
        throw std::runtime_error("warm-up session failed: " + rec.error);
    }
  // The timed window must start with every warm-up session on the books.
  settle(b, w.clients * w.warmup_sessions);
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

// --- timed window ---------------------------------------------------------

// Broker-side counters read around a window.
struct Snapshot {
  std::uint64_t served = 0;
  svc::SpoolStats spool;
  std::uint64_t empty_waits = 0;
  std::map<std::string, svc::Histogram::Snapshot> hist;
  // Server pads per identity ever used, and pads the live client states
  // hold. Pools never free pads, so both only grow.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> pads;
  std::uint64_t client_pads = 0;
};

const char* const kServerHists[] = {"handshake_seconds", "ot_seconds",
                                    "session_seconds"};

Snapshot snapshot(evloop::EvBroker& b, const std::vector<ClientSlot>& clients) {
  Snapshot s;
  const svc::BrokerStats st = b.stats();
  s.served = st.server.sessions_served;
  s.spool = st.spool;
  s.empty_waits = b.metrics().counter("spool_empty_waits").value();
  for (const char* h : kServerHists)
    s.hist[h] = b.metrics().histogram(h).snapshot();
  for (const ClientSlot& c : clients) {
    for (const crypto::Block& id : c.ids)
      s.pads[{id.lo, id.hi}] = server_pads(b, id);
    if (c.state) s.client_pads += c.state->pool.extended();
  }
  return s;
}

struct Window {
  std::vector<SessionRecord> sessions;
  double wall_s = 0;  // window start to the end of its last session
  Usage usage;        // deltas over the window
  Snapshot before, after;
  // Correctness accounting (folded into the result's `correct`), and the
  // invariants behind a steady window (reported, and asserted by
  // run.py --steady: a breach makes the figures suspect, not wrong).
  std::vector<std::pair<std::string, bool>> accounting, invariants;

  [[nodiscard]] std::size_t verified() const {
    return static_cast<std::size_t>(std::count_if(
        sessions.begin(), sessions.end(),
        [](const SessionRecord& r) { return r.ok; }));
  }
};

// Closed loop: each client starts its next session when the previous one
// ends, until `seconds` have passed; the window then runs until the last
// session ends, so every counted MAC is a whole verified session.
Window run_window(const Workload& w, const Args& a, double seconds,
                  Setup& setup, std::uint64_t reference, Tracer& tracer,
                  std::atomic<std::int64_t>& next_id) {
  evloop::EvBroker& b = setup.server->broker();
  Window win;
  win.before = snapshot(b, setup.clients);
  std::vector<std::vector<SessionRecord>> per(setup.clients.size());
  const Usage u0 = usage_now();
  const auto t0 = Clock::now();
  const auto deadline = t0 + to_duration(seconds);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < setup.clients.size(); ++i)
    threads.emplace_back([&, i] {
      while (Clock::now() < deadline) {
        const auto s0 = Clock::now();
        SessionRecord rec =
            run_session(w, a.seed, b.port(), setup.clients[i], reference);
        if (tracer.enabled()) trace_session(tracer, next_id++, s0, rec);
        per[i].push_back(std::move(rec));
      }
    });
  for (auto& t : threads) t.join();
  win.wall_s = seconds_between(t0, Clock::now());
  const Usage u1 = usage_now();
  win.usage = Usage{u1.cpu_s - u0.cpu_s, u1.nvcsw - u0.nvcsw,
                    u1.steal_s - u0.steal_s};
  for (auto& v : per)
    for (auto& r : v) win.sessions.push_back(std::move(r));

  settle(b, win.before.served + win.sessions.size());
  win.after = snapshot(b, setup.clients);

  win.accounting = {
      {"no outstanding OT-pool claims", b.v3_outstanding_claims() == 0},
      {"broker served == client attempted",
       win.after.served - win.before.served == win.sessions.size()}};
  const auto& s0 = win.before.spool;
  const auto& s1 = win.after.spool;
  auto& inv = win.invariants;
  if (w.producer_active()) {
    inv.emplace_back("spool_empty_waits == 0",
                     win.after.empty_waits == win.before.empty_waits);
    inv.emplace_back("one v3 spool take per session",
                     s1.v3_claimed - s0.v3_claimed == win.sessions.size());
  } else {
    inv.emplace_back("spool counters unchanged",
                     s1.sessions_spooled == s0.sessions_spooled &&
                         s1.sessions_claimed == s0.sessions_claimed &&
                         s1.v3_spooled == s0.v3_spooled &&
                         s1.v3_claimed == s0.v3_claimed);
  }
  // Shard, clients and producer.
  const std::size_t busy_threads =
      1 + w.clients + (w.producer_active() ? kProducerCores : 0);
  inv.emplace_back(
      "busy threads <= nproc",
      busy_threads <= std::max(1u, std::thread::hardware_concurrency()));
  // The broker registers one ev_shard<i>_sessions gauge per shard.
  const std::string gauges = b.metrics().to_json();
  inv.emplace_back(
      "one shard",
      gauges.find("\"ev_shard0_sessions\"") != std::string::npos &&
          gauges.find("\"ev_shard1_sessions\"") == std::string::npos);
  return win;
}

// --- metrics --------------------------------------------------------------

struct Tail {
  double ms = 0;
  double percentile = 0;
  std::size_t samples = 0;
};

// The highest percentile that still has kTailBeyond sessions beyond it.
// Failed sessions count as infinitely slow.
Tail tail_of(std::vector<double> lat_ms) {
  Tail t;
  t.samples = lat_ms.size();
  if (lat_ms.empty()) return t;
  std::sort(lat_ms.begin(), lat_ms.end());
  const std::size_t n = lat_ms.size();
  const std::size_t k = n > kTailBeyond ? n - kTailBeyond - 1 : n - 1;
  t.ms = lat_ms[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

std::vector<double> latencies_ms(const Window& win) {
  std::vector<double> v;
  for (const SessionRecord& r : win.sessions)
    v.push_back(r.ok ? r.wall_s * 1e3 : HUGE_VAL);
  return v;
}

double macs(const Workload& w, const Window& win) {
  return static_cast<double>(win.verified() * w.rounds);
}

double mac_per_s(const Workload& w, const Window& win) {
  return macs(w, win) / win.wall_s;
}

std::vector<Metric> end_to_end(const Workload& w, const Window& win,
                               double setup_s, Tail& tail) {
  std::vector<double> first_table;
  double total_bytes = 0;
  for (const SessionRecord& r : win.sessions)
    if (r.ok) {
      first_table.push_back(r.cs.first_table_seconds * 1e3);
      total_bytes += static_cast<double>(r.cs.bytes_sent + r.cs.bytes_received);
    }
  const double n_macs = std::max(1.0, macs(w, win));
  tail = tail_of(latencies_ms(win));
  return {
      {"mac_per_s", mac_per_s(w, win), "1/s"},
      {"session_p50_ms", median(latencies_ms(win)), "ms"},
      {"session_tail_ms", tail.ms, "ms"},
      {"first_table_ms", median(first_table), "ms"},
      {"bytes_per_mac", total_bytes / n_macs, "B"},
      {"cpu_us_per_mac", win.usage.cpu_s * 1e6 / n_macs, "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
      {"verified_ratio",
       win.sessions.empty() ? 0.0
                            : static_cast<double>(win.verified()) /
                                  static_cast<double>(win.sessions.size()),
       "ratio"},
  };
}

// Mean of a broker histogram over the window, in ms.
double hist_mean_ms(const Window& win, const std::string& name) {
  const auto& a = win.before.hist.at(name);
  const auto& b = win.after.hist.at(name);
  const std::uint64_t n = b.count - a.count;
  if (n == 0) return 0.0;
  return (b.sum_seconds - a.sum_seconds) / static_cast<double>(n) * 1e3;
}

// Metrics read off the untraced window itself (per-layer side).
std::vector<Metric> window_layer_metrics(const Window& win) {
  std::vector<double> hs, ot, tr, ev;
  for (const SessionRecord& r : win.sessions)
    if (r.ok) {
      hs.push_back(r.cs.handshake_seconds * 1e3);
      ot.push_back(r.cs.ot_seconds * 1e3);
      tr.push_back(r.cs.transfer_seconds * 1e3);
      ev.push_back(r.cs.eval_seconds * 1e3);
    }
  // Server-side pool growth over every identity the window used; pads
  // retained at its end by every identity ever used, both sides.
  double grown = 0, retained = static_cast<double>(win.after.client_pads);
  for (const auto& [id, pads] : win.after.pads) {
    const auto it = win.before.pads.find(id);
    const std::uint64_t at_start =
        it == win.before.pads.end() ? 0 : it->second;
    grown += static_cast<double>(pads - at_start);
    retained += static_cast<double>(pads);
  }
  const double n =
      std::max<double>(1.0, static_cast<double>(win.sessions.size()));
  return {
      {"ot.extensions_per_session",
       grown / static_cast<double>(ot::kPoolExtendBatch) / n, "count"},
      {"ot.pool_pads_retained", retained, "count"},
      {"net.vcsw_per_session", static_cast<double>(win.usage.nvcsw) / n,
       "count"},
      {"svc.spool_empty_waits",
       static_cast<double>(win.after.empty_waits - win.before.empty_waits),
       "count"},
      {"client.handshake_ms", median(hs), "ms"},
      {"client.ot_ms", median(ot), "ms"},
      {"client.transfer_ms", median(tr), "ms"},
      {"client.eval_ms", median(ev), "ms"},
      {"server.handshake_ms", hist_mean_ms(win, "handshake_seconds"), "ms"},
      {"server.ot_ms", hist_mean_ms(win, "ot_seconds"), "ms"},
      {"server.session_ms", hist_mean_ms(win, "session_seconds"), "ms"},
  };
}

// Σ(unit cost × per-session count) in ms, with the terms it summed. The
// counts come from the workload's shape and the untraced window.
double layer_sum_ms(const Workload& w, const std::map<std::string, double>& m,
                    const Window& win, std::vector<std::string>& terms) {
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{kBits, kBits, true});
  const gc::V3Analysis an = gc::analyze_v3(circ);
  const double rounds = static_cast<double>(w.rounds);
  double sent = 0, recv = 0;
  const double n = std::max<double>(1.0, static_cast<double>(win.verified()));
  for (const SessionRecord& r : win.sessions)
    if (r.ok) {
      sent += static_cast<double>(r.cs.bytes_sent) / n;
      recv += static_cast<double>(r.cs.bytes_received) / n;
    }
  const double pool_ots =
      m.at("ot.extensions_per_session") * ot::kPoolExtendBatch;
  const double rekeys =
      w.pooled() ? 1.0 / static_cast<double>(w.identity_lifetime) : 0;
  const double ands = static_cast<double>(circ.and_count());

  // (metric, per-session count, metric unit -> ms)
  std::vector<std::tuple<std::string, double, double>> t = {
      {"net.connect_us", 1, 1e-3},
      {"circuit.client_setup_us", 1, 1e-3},
      {"evloop.ingest_ns_per_byte", sent + recv, 1e-6},
  };
  double rtts = 1;  // handshake
  if (w.mode == net::SessionMode::kStream) {
    rtts += 2 + rounds;  // IKNP setup, one label OT per round
    t.insert(t.end(), {{"ot.base_setup_ms", 1, 1},
                       {"ot.iknp_ns_per_ot", rounds * kBits, 1e-6},
                       {"gc.garble_ns_per_and", rounds * ands, 1e-6},
                       {"gc.eval_ns_per_and", rounds * ands, 1e-6},
                       {"proto.chunk_encode_ns_per_byte", recv, 1e-6},
                       {"proto.chunk_decode_ns_per_byte", recv, 1e-6}});
  } else if (w.mode == net::SessionMode::kReusable) {
    rtts += 2;  // pool setup, d/z exchange
    t.insert(t.end(), {{"gc.reusable_eval_us", 1, 1e-3},
                       {"ot.iknp_ns_per_ot", pool_ots, 1e-6},
                       {"ot.base_setup_ms", rekeys, 1}});
  } else {
    rtts += 1 + rounds;  // pool setup, one derandomization per round
    const double row_ands =
        static_cast<double>(an.n_full + an.n_gen_half + an.n_eval_half);
    t.insert(t.end(), {{"svc.spool_take_ms", 1, 1},
                       {"gc.eval_ns_per_and", rounds * row_ands, 1e-6},
                       {"ot.iknp_ns_per_ot", pool_ots, 1e-6},
                       {"ot.base_setup_ms", rekeys, 1}});
  }
  t.emplace_back("net.tcp_rtt_us", rtts, 1e-3);

  double sum = 0;
  for (const auto& [name, count, to_ms] : t) {
    const double ms = m.at(name) * count * to_ms;
    sum += ms;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s x %.6g = %.4f ms", name.c_str(), count,
                  ms);
    terms.emplace_back(buf);
  }
  // Bulk bytes at the measured loopback stream rate.
  const double bulk_ms =
      (sent + recv) / (m.at("net.tcp_stream_mb_s") * 1e6) * 1e3;
  sum += bulk_ms;
  char buf[160];
  std::snprintf(buf, sizeof buf, "net.tcp_stream_mb_s over %.6g B = %.4f ms",
                sent + recv, bulk_ms);
  terms.emplace_back(buf);
  return sum;
}

// --- output ---------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    s += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " +
         json_num(ms[i].value) + ", \"unit\": " + json_str(ms[i].unit) + "}";
  return s + "}";
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  const std::uint64_t reference =
      net::demo_mac_reference(a.seed, kBits, w.rounds);
  const fs::path work(a.work_dir);
  fs::create_directories(work);

  const std::string stamp =
      "{\"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"aes_backend\": " +
      json_str(crypto::aes_backend_name(crypto::aes_active_backend())) +
      ", \"build_type\": " + json_str(SESSBENCH_BUILD_TYPE) +
      ", \"git_sha\": " + json_str(a.git_sha) + ", \"link\": \"loopback\"}";
  std::printf("workload %s seed %llu seconds %g trace %d\nstamp %s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, stamp.c_str());

  // Set-up is timed several times, each from a fresh broker and spool;
  // the last one stays up for the timed windows.
  std::vector<double> setups;
  Setup setup;
  const int reps = a.trace ? 1 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    setup = Setup{};  // tear down the previous broker first
    setup = set_up(w, a, work / ("spool-" + std::to_string(i)), reference);
    setups.push_back(setup.seconds);
  }
  evloop::EvBroker& broker = setup.server->broker();

  Tracer off(false);
  std::atomic<std::int64_t> next_id{0};
  // A traced run splits --seconds between its untraced and traced windows,
  // so it costs the same as an untraced run.
  const double window_s = a.trace ? a.seconds / 2 : a.seconds;
  const Window base =
      run_window(w, a, window_s, setup, reference, off, next_id);
  std::optional<Window> traced;

  Tail tail;
  std::vector<Metric> out = end_to_end(w, base, median(setups), tail);
  bool verified = true;
  if (a.trace) {
    Tracer tracer(true);
    traced = run_window(w, a, window_s, setup, reference, tracer, next_id);
    const double overhead = mac_per_s(w, *traced) / mac_per_s(w, base);

    std::vector<Metric> layer = window_layer_metrics(base);
    ProbeContext pc;
    pc.w = &w;
    pc.seed = a.seed;
    pc.work_dir = work.string();
    pc.live_port = broker.port();
    std::vector<Metric> probes = probe_layers(pc, tracer);
    const auto t_shuttle = Clock::now();
    const ShuttleTimes sh = shuttle_sessions(pc, kShuttleSessions);
    tracer.record("evloop.shuttle", -1, -1, t_shuttle, Clock::now());
    verified = pc.verified;
    probes.push_back({"evloop.session_busy_us", sh.busy_us, "us"});
    probes.push_back({"evloop.session_wait_us", sh.wait_us, "us"});
    layer.insert(layer.end(), probes.begin(), probes.end());

    std::map<std::string, double> by_name;
    for (const Metric& m : layer) by_name[m.name] = m.value;
    std::vector<std::string> terms;
    const double sum_ms = layer_sum_ms(w, by_name, base, terms);
    // The counts amortize pool extensions and re-keys over all sessions,
    // so the sum is a per-session mean and reconciles against the mean
    // session time; the median skips the 1-in-8 extending sessions.
    double mean_ms = 0;
    for (const SessionRecord& r : base.sessions)
      if (r.ok)
        mean_ms += r.wall_s * 1e3 / static_cast<double>(base.verified());
    std::printf("layer sum (per session):\n");
    for (const std::string& t : terms) std::printf("  %s\n", t.c_str());
    std::printf(
        "  total %.4f ms vs untraced session mean %.4f ms, p50 %.4f ms\n",
        sum_ms, mean_ms, median(latencies_ms(base)));
    layer.push_back({"trace.layer_sum_ratio", sum_ms / mean_ms, "ratio"});
    layer.push_back({"trace.overhead_ratio", overhead, "ratio"});
    if (!a.trace_out.empty() && !tracer.write(a.trace_out))
      std::fprintf(stderr, "sessbench: cannot write %s\n", a.trace_out.c_str());
    std::printf("trace: %zu spans%s%s\n", tracer.size(),
                a.trace_out.empty() ? "" : " -> ", a.trace_out.c_str());
    std::printf("end-to-end (untraced window):\n");
    print_metrics(out);
    out = std::move(layer);
  }

  // Every window must hold every check.
  std::size_t attempted = 0, failed = 0;
  std::map<std::string, bool> accounting, invariants;
  std::vector<const Window*> windows = {&base};
  if (traced) windows.push_back(&*traced);
  for (const Window* win : windows) {
    attempted += win->sessions.size();
    failed += win->sessions.size() - win->verified();
    for (const auto& [name, ok] : win->accounting)
      accounting.try_emplace(name, true).first->second &= ok;
    for (const auto& [name, ok] : win->invariants)
      invariants.try_emplace(name, true).first->second &= ok;
  }
  const auto checks_json = [](const std::map<std::string, bool>& checks) {
    std::string j = "{";
    for (const auto& [name, ok] : checks) {
      if (!ok) std::printf("CHECK FAILED: %s\n", name.c_str());
      j += (j.size() > 1 ? ", " : "") + json_str(name) + ": " +
           (ok ? "true" : "false");
    }
    return j + "}";
  };
  const std::string acc_json = checks_json(accounting);
  const std::string inv_json = checks_json(invariants);
  const bool accounted = std::all_of(accounting.begin(), accounting.end(),
                                     [](const auto& kv) { return kv.second; });
  for (const Window* win : windows)
    for (const SessionRecord& r : win->sessions)
      if (!r.ok) {
        std::printf("failed session: %s\n", r.error.c_str());
        break;
      }

  std::printf(
      "sessions %zu in %.3f s (%zu clients), tail = p%.3f of %zu samples\n",
      base.sessions.size(), base.wall_s, w.clients, tail.percentile,
      tail.samples);
  std::printf("setup_s runs:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  print_metrics(out);

  const bool correct = failed == 0 && verified && accounted && attempted > 0;
  std::printf(
      "details {\"workload\": %s, \"seed\": %llu, \"stamp\": %s, "
      "\"accounting\": %s, \"invariants\": %s, "
      "\"tail\": {\"percentile\": %s, \"samples\": %zu}, "
      "\"window_s\": %s, \"steal_s\": %s, \"setup_runs_s\": [",
      json_str(w.name).c_str(), static_cast<unsigned long long>(a.seed),
      stamp.c_str(), acc_json.c_str(), inv_json.c_str(),
      json_num(tail.percentile).c_str(),
      tail.samples, json_num(base.wall_s).c_str(),
      json_num(base.usage.steal_s).c_str());
  for (std::size_t i = 0; i < setups.size(); ++i)
    std::printf("%s%s", i ? ", " : "", json_num(setups[i]).c_str());
  std::printf("]}\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed,
      metrics_json(out).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace sessbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  sessbench::Args args;
  if (!sessbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sessbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
                 "[--git-sha SHA]\nworkloads:");
    for (const auto& w : sessbench::workloads())
      std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return sessbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sessbench: %s\n", e.what());
    return 1;
  }
}
