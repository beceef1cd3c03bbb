#include "proto/v3_records.hpp"

#include <cstring>
#include <string>

namespace maxel::proto {
namespace {

constexpr char kSeedMagic[8] = {'M', 'X', 'S', 'E', 'E', 'D', '3', '\0'};
constexpr char kTicketMagic[8] = {'M', 'X', 'T', 'K', 'T', '3', '\0', '\0'};

[[noreturn]] void bad(const std::string& what) {
  throw V3FormatError("v3_records: " + what);
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  const std::size_t off = buf.size();
  buf.resize(off + 4);
  std::memcpy(buf.data() + off, &v, 4);
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const std::size_t off = buf.size();
  buf.resize(off + 8);
  std::memcpy(buf.data() + off, &v, 8);
}

void put_block(std::vector<std::uint8_t>& buf, const crypto::Block& b) {
  const std::size_t off = buf.size();
  buf.resize(off + 16);
  b.to_bytes(buf.data() + off);
}

struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n, const char* what) {
    if (left < n) bad(std::string("truncated ") + what);
  }
  void magic(const char (&m)[8], const char* what) {
    need(8, what);
    if (std::memcmp(p, m, 8) != 0) bad(std::string("bad magic for ") + what);
    p += 8;
    left -= 8;
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    left -= 8;
    return v;
  }
  crypto::Block block(const char* what) {
    need(16, what);
    const crypto::Block b = crypto::Block::from_bytes(p);
    p += 16;
    left -= 16;
    return b;
  }
  void done(const char* what) {
    if (left != 0) bad(std::string("trailing bytes after ") + what);
  }
};

}  // namespace

// ---- SeedExpansionRecord -------------------------------------------------

std::vector<std::uint8_t> serialize_seed_expansion(
    const SeedExpansionRecord& r) {
  std::vector<std::uint8_t> buf;
  buf.reserve(8 + 16 + 8 + 20 * r.corrections.size());
  buf.insert(buf.end(), kSeedMagic, kSeedMagic + 8);
  put_block(buf, r.label_seed);
  put_u64(buf, r.corrections.size());
  for (const auto& [wire, label] : r.corrections) {
    put_u32(buf, wire);
    put_block(buf, label);
  }
  return buf;
}

SeedExpansionRecord parse_seed_expansion(const std::uint8_t* data,
                                         std::size_t n) {
  Reader rd{data, n};
  rd.magic(kSeedMagic, "seed-expansion record");
  SeedExpansionRecord r;
  r.label_seed = rd.block("label seed");
  const std::uint64_t cnt = rd.u64("correction count");
  if (cnt > kMaxV3Corrections)
    bad("implausible correction count " + std::to_string(cnt));
  if (cnt > rd.left / 20) bad("correction count exceeds remaining bytes");
  r.corrections.reserve(cnt);
  for (std::uint64_t i = 0; i < cnt; ++i) {
    const std::uint32_t wire = rd.u32("correction wire");
    r.corrections.emplace_back(wire, rd.block("correction label"));
  }
  rd.done("seed-expansion record");
  return r;
}

void send_seed_expansion(Channel& ch, const SeedExpansionRecord& r) {
  const auto buf = serialize_seed_expansion(r);
  ch.send_u64(buf.size());
  ch.send_bytes(buf.data(), buf.size());
}

SeedExpansionRecord recv_seed_expansion(Channel& ch) {
  const std::uint64_t len = ch.recv_u64();
  if (len > 8 + 16 + 8 + 20 * kMaxV3Corrections)
    bad("implausible seed-expansion record length " + std::to_string(len));
  std::vector<std::uint8_t> buf(len);
  ch.recv_bytes(buf.data(), buf.size());
  return parse_seed_expansion(buf.data(), buf.size());
}

// ---- V3RoundFrame --------------------------------------------------------

std::vector<std::uint8_t> serialize_round_frame(const V3RoundFrame& f) {
  std::vector<std::uint8_t> buf;
  buf.reserve(V3RoundFrame::wire_size(f.rows.size(), f.output_map.size()));
  put_u32(buf, static_cast<std::uint32_t>(f.rows.size()));
  for (const auto& b : f.rows) put_block(buf, b);
  put_u32(buf, static_cast<std::uint32_t>(f.output_map.size()));
  const std::size_t off = buf.size();
  buf.resize(off + (f.output_map.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < f.output_map.size(); ++i)
    if (f.output_map[i])
      buf[off + i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  return buf;
}

V3RoundFrame parse_round_frame(const std::uint8_t* data, std::size_t n,
                               std::size_t expected_rows,
                               std::size_t expected_outputs) {
  if (expected_rows > kMaxV3Rows || expected_outputs > kMaxV3Outputs)
    bad("round-frame expectation out of range");
  Reader rd{data, n};
  const std::uint32_t n_rows = rd.u32("row count");
  if (n_rows != expected_rows)
    bad("row count " + std::to_string(n_rows) + " != expected " +
        std::to_string(expected_rows));
  V3RoundFrame f;
  f.rows.reserve(n_rows);
  for (std::uint32_t i = 0; i < n_rows; ++i)
    f.rows.push_back(rd.block("ciphertext row"));
  const std::uint32_t n_out = rd.u32("output count");
  if (n_out != expected_outputs)
    bad("output count " + std::to_string(n_out) + " != expected " +
        std::to_string(expected_outputs));
  const std::size_t packed = (static_cast<std::size_t>(n_out) + 7) / 8;
  rd.need(packed, "output map");
  f.output_map.reserve(n_out);
  for (std::uint32_t i = 0; i < n_out; ++i)
    f.output_map.push_back((rd.p[i / 8] >> (i % 8)) & 1u);
  rd.p += packed;
  rd.left -= packed;
  rd.done("round frame");
  return f;
}

void send_round_frame(Channel& ch, const V3RoundFrame& f) {
  const auto buf = serialize_round_frame(f);
  ch.send_bytes(buf.data(), buf.size());
}

V3RoundFrame recv_round_frame(Channel& ch, std::size_t expected_rows,
                              std::size_t expected_outputs) {
  if (expected_rows > kMaxV3Rows || expected_outputs > kMaxV3Outputs)
    bad("round-frame expectation out of range");
  std::vector<std::uint8_t> buf(
      V3RoundFrame::wire_size(expected_rows, expected_outputs));
  ch.recv_bytes(buf.data(), buf.size());
  return parse_round_frame(buf.data(), buf.size(), expected_rows,
                           expected_outputs);
}

// ---- ResumptionTicket ----------------------------------------------------

std::vector<std::uint8_t> serialize_ticket(const ResumptionTicket& t) {
  std::vector<std::uint8_t> buf;
  buf.reserve(ResumptionTicket::kWireSize);
  buf.insert(buf.end(), kTicketMagic, kTicketMagic + 8);
  put_u64(buf, t.pool_id);
  put_block(buf, t.client_id);
  put_block(buf, t.cookie);
  return buf;
}

ResumptionTicket parse_ticket(const std::uint8_t* data, std::size_t n) {
  if (n != ResumptionTicket::kWireSize)
    bad("ticket length " + std::to_string(n) + " != " +
        std::to_string(ResumptionTicket::kWireSize));
  Reader rd{data, n};
  rd.magic(kTicketMagic, "resumption ticket");
  ResumptionTicket t;
  t.pool_id = rd.u64("ticket pool id");
  t.client_id = rd.block("ticket client id");
  t.cookie = rd.block("ticket cookie");
  rd.done("resumption ticket");
  return t;
}

void send_ticket(Channel& ch, const ResumptionTicket& t) {
  const auto buf = serialize_ticket(t);
  ch.send_bytes(buf.data(), buf.size());
}

ResumptionTicket recv_ticket(Channel& ch) {
  std::uint8_t buf[ResumptionTicket::kWireSize];
  ch.recv_bytes(buf, sizeof(buf));
  return parse_ticket(buf, sizeof(buf));
}

// ---- Pool-state reconciliation -------------------------------------------

void send_client_setup(Channel& ch, const V3ClientSetup& s) {
  std::vector<std::uint8_t> buf;
  put_u64(buf, s.extended);
  put_u64(buf, s.watermark);
  ch.send_bytes(buf.data(), buf.size());
}

V3ClientSetup recv_client_setup(Channel& ch) {
  std::uint8_t raw[V3ClientSetup::kWireSize];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd{raw, sizeof(raw)};
  V3ClientSetup s;
  s.extended = rd.u64("client extended");
  s.watermark = rd.u64("client watermark");
  if (s.watermark > s.extended) bad("client watermark above extended");
  return s;
}

void send_server_setup(Channel& ch, const V3ServerSetup& s) {
  std::vector<std::uint8_t> buf;
  buf.push_back(s.fresh ? 1 : 0);
  put_u64(buf, s.pool_id);
  put_block(buf, s.cookie);
  put_u64(buf, s.start_index);
  put_u64(buf, s.claim_count);
  put_u64(buf, s.extend_count);
  ch.send_bytes(buf.data(), buf.size());
}

V3ServerSetup recv_server_setup(Channel& ch) {
  std::uint8_t raw[1 + 8 + 16 + 8 + 8 + 8];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd{raw, sizeof(raw)};
  V3ServerSetup s;
  rd.need(1, "server fresh flag");
  const std::uint8_t fresh = *rd.p;
  rd.p += 1;
  rd.left -= 1;
  if (fresh > 1) bad("server fresh flag not boolean");
  s.fresh = fresh == 1;
  s.pool_id = rd.u64("server pool id");
  s.cookie = rd.block("server cookie");
  s.start_index = rd.u64("server start index");
  s.claim_count = rd.u64("server claim count");
  s.extend_count = rd.u64("server extend count");
  if (s.extend_count > ot::kMaxPoolExtend)
    bad("implausible extend count " + std::to_string(s.extend_count));
  if (s.claim_count > ot::kMaxPoolExtend)
    bad("implausible claim count " + std::to_string(s.claim_count));
  return s;
}

}  // namespace maxel::proto
