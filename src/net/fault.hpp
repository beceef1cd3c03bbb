// Deterministic fault injection over any proto::Channel.
//
// A FaultPlan is a seeded schedule of link failures — abrupt close,
// send/recv stalls, payload bit flips, truncated messages, short-write
// splits, connect refusals — parsed from a compact string so the same
// plan can come from a unit test, a CLI flag, or the MAXEL_FAULT_PLAN
// environment variable and replay identically every time. FaultyChannel
// is the decorator that executes the plan around an owned inner channel
// (the client side); on the server, evloop::BufferedChannel executes the
// same plan itself (EvBrokerConfig::fault_plan). FaultInjector holds the
// plan state and is shared across channels so a schedule spans a whole
// client run (every retry attempt) or a whole server process (every
// accepted connection, every shard), with each event firing exactly
// once.
//
// Plan grammar (events separated by ';' or ','):
//
//   seed=S                       RNG seed for flip positions/split points
//   close@send:N | close@recv:N  drop the transport at the Nth op (0-based)
//   stall@send:N:MS              sleep MS ms before forwarding the Nth op
//   stall@recv:N:MS              (server side: sleeps the shard thread, so
//                                every session on that shard stalls)
//   flip@send:N | flip@recv:N    flip one seeded bit of the Nth payload
//   trunc@send:N                 forward a strict prefix, then drop
//   split@send:N                 forward in two flushed pieces (benign)
//   refuse@connect:N             fail the Nth connect attempt
//
// Example: "seed=9;stall@recv:3:250;close@send:12" stalls the 4th recv
// by 250 ms and kills the link just before the 13th send. Send/recv ops
// are counted at raw_send/raw_recv granularity — one protocol message
// (a label vector, a table batch, an OT round) per op — so indices are
// stable across runs and machines.
//
// Close and truncation sit *above* the TCP framing layer: the peer sees
// a clean EOF (PeerClosedError) or a mid-message EOF at the payload
// level; wire-level frame corruption is covered separately by the
// framing fuzz tests in tests/net_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/error.hpp"
#include "proto/channel.hpp"

namespace maxel::net {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kClose,          // drop the transport; this op and all later ops fail
  kStall,          // sleep param ms, then forward normally
  kFlip,           // flip one seeded bit of the payload
  kTruncate,       // forward a strict prefix of the payload, then drop
  kSplit,          // forward in two flushed pieces (short-write exercise)
  kRefuseConnect,  // fail a connect attempt with ConnectError
};

enum class FaultOp : std::uint8_t { kSend, kRecv, kConnect };

[[nodiscard]] const char* fault_kind_name(FaultKind k);
[[nodiscard]] const char* fault_op_name(FaultOp op);

struct FaultEvent {
  FaultKind kind = FaultKind::kNone;
  FaultOp op = FaultOp::kSend;
  std::uint64_t index = 0;  // fires at the index-th op of this kind (0-based)
  std::uint64_t param = 0;  // kStall: milliseconds to sleep
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;

  // Parses the grammar above; throws std::invalid_argument on a
  // malformed spec (unknown kind, kind/op combination that makes no
  // sense, missing stall duration). An empty spec is a valid empty plan.
  static FaultPlan parse(const std::string& spec);

  // Round-trips back to the grammar (for logs and SCOPED_TRACE).
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool empty() const { return events.empty(); }
};

// SplitMix64 — the deterministic mixer behind flip positions, split
// points, and the client's retry jitter. Public so tests can predict
// exactly which bit a plan will flip.
[[nodiscard]] constexpr std::uint64_t fault_mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The seeded payload edits every fault-executing channel applies:
// fault_flip_bit flips bit `rand % (8 * n)` of data[0, n) (no-op when
// n == 0); fault_split_point is where a split cuts an n-byte payload
// (1..n-1, or n when it cannot be split).
void fault_flip_bit(std::uint8_t* data, std::size_t n, std::uint64_t rand);
[[nodiscard]] std::size_t fault_split_point(std::size_t n,
                                            std::uint64_t rand);

// Shared, thread-safe plan state: op counters span every channel that
// references this injector, and each event fires exactly once — so a
// client that retries (fresh channel per attempt) or a server that
// serves many connections sees one global, deterministic schedule
// rather than the same fault on every attempt.
class FaultInjector {
 public:
  struct Action {
    FaultKind kind = FaultKind::kNone;
    std::uint64_t param = 0;  // kStall: milliseconds
    std::uint64_t rand = 0;   // seeded value for flip/split positions
  };

  explicit FaultInjector(FaultPlan plan);

  // Advance the op counter and return the action for this op (kNone for
  // a clean pass-through).
  Action on_send();
  Action on_recv();

  // True when this connect attempt must be refused.
  bool on_connect();

  // Events fired so far (feeds the broker's faults_injected gauge).
  [[nodiscard]] std::uint64_t faults_fired() const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  Action fire(FaultOp op, std::uint64_t index);

  mutable std::mutex mu_;
  FaultPlan plan_;
  std::vector<bool> fired_;
  std::uint64_t sends_ = 0;
  std::uint64_t recvs_ = 0;
  std::uint64_t connects_ = 0;
  std::uint64_t fired_count_ = 0;
};

// Channel decorator that executes a FaultInjector's schedule around an
// owned inner channel. After an injected close/truncate the inner
// channel is destroyed (its destructor flushes and closes the socket,
// so a TCP peer observes EOF) and every later op throws PeerClosedError
// — the same failure surface a real dead link presents.
class FaultyChannel final : public proto::Channel {
 public:
  FaultyChannel(std::unique_ptr<proto::Channel> inner,
                std::shared_ptr<FaultInjector> injector);

  void flush() override;

  // Mirrors every byte delivered to the caller into `sink` (nullptr
  // disables). The no-label-reuse retry test uses this to compare the
  // exact wire bytes of successive session attempts.
  void set_recv_capture(std::vector<std::uint8_t>* sink) { capture_ = sink; }

  [[nodiscard]] bool transport_dropped() const { return inner_ == nullptr; }

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override;
  void raw_recv(std::uint8_t* data, std::size_t n) override;

 private:
  void require_open(const char* what) const;
  void drop_transport();

  std::unique_ptr<proto::Channel> inner_;
  std::shared_ptr<FaultInjector> injector_;
  std::vector<std::uint8_t>* capture_ = nullptr;
};

}  // namespace maxel::net
