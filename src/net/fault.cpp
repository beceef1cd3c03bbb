#include "net/fault.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace maxel::net {

namespace {

// spec := item (';' item)* with ',' accepted as a separator too.
std::vector<std::string> split_items(const std::string& spec) {
  std::vector<std::string> items;
  std::string cur;
  for (const char c : spec) {
    if (c == ';' || c == ',') {
      if (!cur.empty()) items.push_back(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) items.push_back(cur);
  return items;
}

[[noreturn]] void bad_spec(const std::string& item, const char* why) {
  throw std::invalid_argument("bad fault plan item '" + item + "': " + why);
}

std::uint64_t parse_u64(const std::string& item, const std::string& text) {
  if (text.empty()) bad_spec(item, "empty number");
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') bad_spec(item, "expected a decimal number");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

FaultKind parse_kind(const std::string& item, const std::string& name) {
  if (name == "close") return FaultKind::kClose;
  if (name == "stall") return FaultKind::kStall;
  if (name == "flip") return FaultKind::kFlip;
  if (name == "trunc") return FaultKind::kTruncate;
  if (name == "split") return FaultKind::kSplit;
  if (name == "refuse") return FaultKind::kRefuseConnect;
  bad_spec(item, "unknown kind (close|stall|flip|trunc|split|refuse)");
}

FaultOp parse_op(const std::string& item, const std::string& name) {
  if (name == "send") return FaultOp::kSend;
  if (name == "recv") return FaultOp::kRecv;
  if (name == "connect") return FaultOp::kConnect;
  bad_spec(item, "unknown op (send|recv|connect)");
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kClose: return "close";
    case FaultKind::kStall: return "stall";
    case FaultKind::kFlip: return "flip";
    case FaultKind::kTruncate: return "trunc";
    case FaultKind::kSplit: return "split";
    case FaultKind::kRefuseConnect: return "refuse";
  }
  return "?";
}

const char* fault_op_name(FaultOp op) {
  switch (op) {
    case FaultOp::kSend: return "send";
    case FaultOp::kRecv: return "recv";
    case FaultOp::kConnect: return "connect";
  }
  return "?";
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& item : split_items(spec)) {
    if (item.rfind("seed=", 0) == 0) {
      plan.seed = parse_u64(item, item.substr(5));
      continue;
    }
    const std::size_t at = item.find('@');
    if (at == std::string::npos) bad_spec(item, "expected kind@op:index");
    FaultEvent ev;
    ev.kind = parse_kind(item, item.substr(0, at));
    const std::size_t c1 = item.find(':', at + 1);
    if (c1 == std::string::npos) bad_spec(item, "expected kind@op:index");
    ev.op = parse_op(item, item.substr(at + 1, c1 - at - 1));
    const std::size_t c2 = item.find(':', c1 + 1);
    ev.index = parse_u64(
        item, c2 == std::string::npos ? item.substr(c1 + 1)
                                      : item.substr(c1 + 1, c2 - c1 - 1));
    if (c2 != std::string::npos) ev.param = parse_u64(item, item.substr(c2 + 1));

    // Reject combinations that cannot be executed.
    const bool is_connect = ev.op == FaultOp::kConnect;
    if ((ev.kind == FaultKind::kRefuseConnect) != is_connect)
      bad_spec(item, "refuse goes with connect (and only refuse does)");
    if ((ev.kind == FaultKind::kTruncate || ev.kind == FaultKind::kSplit) &&
        ev.op != FaultOp::kSend)
      bad_spec(item, "trunc/split apply to send ops only");
    if (ev.kind == FaultKind::kStall && ev.param == 0)
      bad_spec(item, "stall needs a duration (stall@send:N:MS)");
    if (ev.kind != FaultKind::kStall && c2 != std::string::npos)
      bad_spec(item, "only stall takes a parameter");
    plan.events.push_back(ev);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const FaultEvent& ev : events) {
    out += ';';
    out += fault_kind_name(ev.kind);
    out += '@';
    out += fault_op_name(ev.op);
    out += ':';
    out += std::to_string(ev.index);
    if (ev.kind == FaultKind::kStall) out += ':' + std::to_string(ev.param);
  }
  return out;
}

// --- FaultInjector --------------------------------------------------------

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), fired_(plan_.events.size(), false) {}

FaultInjector::Action FaultInjector::fire(FaultOp op, std::uint64_t index) {
  Action a;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (fired_[i] || ev.op != op || ev.index != index) continue;
    fired_[i] = true;
    ++fired_count_;
    a.kind = ev.kind;
    a.param = ev.param;
    // One fresh deterministic value per event: seed x op stream x index.
    a.rand = fault_mix64(plan_.seed ^ fault_mix64((static_cast<std::uint64_t>(
                                                       ev.op)
                                                   << 56) ^
                                                  index));
    return a;
  }
  return a;
}

// An empty plan never fires, and plan_ never changes after construction,
// so its ops skip the lock: the no-op seam production traffic runs
// behind stays within noise of the bare transport.
FaultInjector::Action FaultInjector::on_send() {
  if (plan_.events.empty()) return {};
  const std::lock_guard<std::mutex> lock(mu_);
  return fire(FaultOp::kSend, sends_++);
}

FaultInjector::Action FaultInjector::on_recv() {
  if (plan_.events.empty()) return {};
  const std::lock_guard<std::mutex> lock(mu_);
  return fire(FaultOp::kRecv, recvs_++);
}

bool FaultInjector::on_connect() {
  const std::lock_guard<std::mutex> lock(mu_);
  return fire(FaultOp::kConnect, connects_++).kind ==
         FaultKind::kRefuseConnect;
}

std::uint64_t FaultInjector::faults_fired() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fired_count_;
}

void fault_flip_bit(std::uint8_t* data, std::size_t n, std::uint64_t rand) {
  if (n == 0) return;
  const std::uint64_t bit = rand % (static_cast<std::uint64_t>(n) * 8);
  data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

std::size_t fault_split_point(std::size_t n, std::uint64_t rand) {
  return n > 1 ? 1 + static_cast<std::size_t>(rand % (n - 1)) : n;
}

// --- FaultyChannel --------------------------------------------------------

FaultyChannel::FaultyChannel(std::unique_ptr<proto::Channel> inner,
                             std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector)) {}

void FaultyChannel::require_open(const char* what) const {
  if (!inner_)
    throw PeerClosedError(std::string("fault: ") + what +
                          " after injected close");
}

void FaultyChannel::drop_transport() {
  // Destroying the inner channel flushes what it buffered and closes
  // the socket; a TCP peer sees EOF exactly as if the process died.
  inner_.reset();
}

void FaultyChannel::flush() {
  if (!inner_) return;  // destructor-safe: nothing left to push
  inner_->flush();
}

void FaultyChannel::raw_send(const std::uint8_t* data, std::size_t n) {
  require_open("send");
  const FaultInjector::Action a = injector_->on_send();
  switch (a.kind) {
    case FaultKind::kClose:
      drop_transport();
      throw PeerClosedError("fault: injected close at send op");
    case FaultKind::kTruncate: {
      // Forward a strict prefix so the peer's message reassembly sees a
      // mid-payload EOF, then kill the link.
      const std::size_t keep = n / 2;
      if (keep > 0) {
        inner_->send_bytes(data, keep);
        try {
          inner_->flush();
        } catch (const NetError&) {
          // The peer may already be gone; the drop below still stands.
        }
      }
      drop_transport();
      throw PeerClosedError("fault: injected truncation at send op");
    }
    case FaultKind::kFlip: {
      std::vector<std::uint8_t> mangled(data, data + n);
      fault_flip_bit(mangled.data(), n, a.rand);
      inner_->send_bytes(mangled.data(), mangled.size());
      return;
    }
    case FaultKind::kSplit: {
      // Two flushed pieces: the peer must reassemble across a frame
      // boundary that normal operation would never produce here.
      const std::size_t cut = fault_split_point(n, a.rand);
      inner_->send_bytes(data, cut);
      inner_->flush();
      if (cut < n) inner_->send_bytes(data + cut, n - cut);
      return;
    }
    case FaultKind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(a.param));
      break;
    default:
      break;
  }
  inner_->send_bytes(data, n);
}

void FaultyChannel::raw_recv(std::uint8_t* data, std::size_t n) {
  require_open("recv");
  const FaultInjector::Action a = injector_->on_recv();
  switch (a.kind) {
    case FaultKind::kClose:
      drop_transport();
      throw PeerClosedError("fault: injected close at recv op");
    case FaultKind::kFlip: {
      inner_->recv_bytes(data, n);
      fault_flip_bit(data, n, a.rand);
      if (capture_ != nullptr) capture_->insert(capture_->end(), data, data + n);
      return;
    }
    case FaultKind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(a.param));
      break;
    default:
      break;
  }
  inner_->recv_bytes(data, n);
  if (capture_ != nullptr) capture_->insert(capture_->end(), data, data + n);
}

}  // namespace maxel::net
