#include "proto/v3_records.hpp"

#include <string>

#include "proto/codec.hpp"

namespace maxel::proto {
namespace {

constexpr char kSeedMagic[8] = {'M', 'X', 'S', 'E', 'E', 'D', '3', '\0'};
constexpr char kTicketMagic[8] = {'M', 'X', 'T', 'K', 'T', '3', '\0', '\0'};

using Reader = ByteReader<V3FormatError>;
constexpr const char* kContext = "v3_records";

[[noreturn]] void bad(const std::string& what) {
  throw V3FormatError(std::string(kContext) + ": " + what);
}

}  // namespace

// ---- SeedExpansionRecord -------------------------------------------------

std::vector<std::uint8_t> serialize_seed_expansion(
    const SeedExpansionRecord& r) {
  std::vector<std::uint8_t> buf;
  buf.reserve(8 + 16 + 8 + 20 * r.corrections.size());
  ByteWriter w(buf);
  w.bytes(kSeedMagic, 8);
  w.block(r.label_seed);
  w.u64(r.corrections.size());
  for (const auto& [wire, label] : r.corrections) {
    w.u32(wire);
    w.block(label);
  }
  return buf;
}

SeedExpansionRecord parse_seed_expansion(const std::uint8_t* data,
                                         std::size_t n) {
  Reader rd(data, n, kContext);
  rd.magic(kSeedMagic, "seed-expansion record");
  SeedExpansionRecord r;
  r.label_seed = rd.block("label seed");
  const std::uint64_t cnt = rd.count(kMaxV3Corrections, 20, "correction");
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
  write_round_frame(buf, f.rows, f.output_map);
  return buf;
}

void write_round_frame(std::vector<std::uint8_t>& buf,
                       const std::vector<crypto::Block>& rows,
                       const std::vector<bool>& output_map) {
  ByteWriter w(buf);
  w.u32(static_cast<std::uint32_t>(rows.size()));
  for (const auto& b : rows) w.block(b);
  w.u32(static_cast<std::uint32_t>(output_map.size()));
  w.bits(output_map);
}

void parse_round_frame(const std::uint8_t* data, std::size_t n,
                       std::size_t expected_rows,
                       std::size_t expected_outputs, V3RoundFrame& f) {
  if (expected_rows > kMaxV3Rows || expected_outputs > kMaxV3Outputs)
    bad("round-frame expectation out of range");
  Reader rd(data, n, kContext);
  const std::uint32_t n_rows = rd.u32("row count");
  if (n_rows != expected_rows)
    bad("row count " + std::to_string(n_rows) + " != expected " +
        std::to_string(expected_rows));
  f.rows.resize(n_rows);
  for (auto& row : f.rows) row = rd.block("ciphertext row");
  const std::uint32_t n_out = rd.u32("output count");
  if (n_out != expected_outputs)
    bad("output count " + std::to_string(n_out) + " != expected " +
        std::to_string(expected_outputs));
  rd.bits(n_out, f.output_map, "output map");
  rd.done("round frame");
}

V3RoundFrame parse_round_frame(const std::uint8_t* data, std::size_t n,
                               std::size_t expected_rows,
                               std::size_t expected_outputs) {
  V3RoundFrame f;
  parse_round_frame(data, n, expected_rows, expected_outputs, f);
  return f;
}

void send_round_frame(Channel& ch, const V3RoundFrame& f) {
  const auto buf = serialize_round_frame(f);
  ch.send_bytes(buf.data(), buf.size());
}

void recv_round_frame(Channel& ch, std::size_t expected_rows,
                      std::size_t expected_outputs,
                      std::vector<std::uint8_t>& buf, V3RoundFrame& f) {
  if (expected_rows > kMaxV3Rows || expected_outputs > kMaxV3Outputs)
    bad("round-frame expectation out of range");
  buf.resize(V3RoundFrame::wire_size(expected_rows, expected_outputs));
  ch.recv_bytes(buf.data(), buf.size());
  parse_round_frame(buf.data(), buf.size(), expected_rows, expected_outputs,
                    f);
}

// ---- ResumptionTicket ----------------------------------------------------

std::vector<std::uint8_t> serialize_ticket(const ResumptionTicket& t) {
  std::vector<std::uint8_t> buf;
  buf.reserve(ResumptionTicket::kWireSize);
  ByteWriter w(buf);
  w.bytes(kTicketMagic, 8);
  w.u64(t.pool_id);
  w.block(t.client_id);
  w.block(t.cookie);
  return buf;
}

ResumptionTicket parse_ticket(const std::uint8_t* data, std::size_t n) {
  if (n != ResumptionTicket::kWireSize)
    bad("ticket length " + std::to_string(n) + " != " +
        std::to_string(ResumptionTicket::kWireSize));
  Reader rd(data, n, kContext);
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
  ByteWriter w(buf);
  w.u64(s.extended);
  w.u64(s.watermark);
  ch.send_bytes(buf.data(), buf.size());
}

V3ClientSetup recv_client_setup(Channel& ch) {
  std::uint8_t raw[V3ClientSetup::kWireSize];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd(raw, sizeof(raw), kContext);
  V3ClientSetup s;
  s.extended = rd.u64("client extended");
  s.watermark = rd.u64("client watermark");
  if (s.watermark > s.extended) bad("client watermark above extended");
  return s;
}

void send_server_setup(Channel& ch, const V3ServerSetup& s) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(s.fresh ? 1 : 0);
  w.u64(s.pool_id);
  w.block(s.cookie);
  w.u64(s.start_index);
  w.u64(s.claim_count);
  w.u64(s.extend_count);
  ch.send_bytes(buf.data(), buf.size());
}

V3ServerSetup recv_server_setup(Channel& ch) {
  std::uint8_t raw[1 + 8 + 16 + 8 + 8 + 8];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd(raw, sizeof(raw), kContext);
  V3ServerSetup s;
  const std::uint8_t fresh = rd.u8("server fresh flag");
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
