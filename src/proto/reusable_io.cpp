#include "proto/reusable_io.hpp"

#include <string>

#include "proto/codec.hpp"

namespace maxel::proto {

namespace {

constexpr char kReusableMagic[8] = {'M', 'X', 'R', 'E', 'U', 'S', '1', '\0'};

using Reader = ByteReader<ReusableFormatError>;
constexpr const char* kContext = "reusable record";

}  // namespace

std::vector<std::uint8_t> serialize_reusable_view(const gc::ReusableView& v) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.bytes(kReusableMagic, 8);
  w.u8(0);  // has_secrets
  w.u32(v.bit_width);
  w.bytes(v.fingerprint.data(), v.fingerprint.size());
  w.u64(v.n_gates);
  // Table count is stored explicitly: the parser cannot know the
  // obfuscated-gate count without the netlist.
  w.u64(static_cast<std::uint64_t>(v.tables.size()) * 2);
  w.u64(v.n_garbler_inputs);
  w.u64(v.n_evaluator_inputs);
  w.u64(static_cast<std::uint64_t>(v.output_flips.size()));
  w.u64(static_cast<std::uint64_t>(v.dff_init_masked.size()));
  w.bytes(v.tables.data(), v.tables.size());
  w.bits(v.dff_init_masked);
  w.bits(v.dff_corrections);
  w.bits(v.output_flips);
  return buf;
}

std::vector<std::uint8_t> serialize_reusable(const gc::ReusableCircuit& rc) {
  std::vector<std::uint8_t> buf = serialize_reusable_view(rc.view);
  buf[8] = 1;  // has_secrets flag sits right after the magic
  ByteWriter w(buf);
  w.bits(rc.garbler_flips);
  w.bits(rc.evaluator_flips);
  return buf;
}

namespace {

gc::ReusableCircuit parse_any(const std::uint8_t* data, std::size_t n,
                              bool want_secrets) {
  Reader rd(data, n, kContext);
  rd.magic(kReusableMagic, "artifact");
  const std::uint8_t secrets = rd.u8("secrets flag");
  if (secrets > 1) rd.fail("secrets flag not boolean");
  if (want_secrets && secrets != 1) rd.fail("artifact is missing the secrets");
  if (!want_secrets && secrets != 0)
    rd.fail("refusing a secrets-bearing artifact as a view");

  gc::ReusableCircuit rc;
  gc::ReusableView& v = rc.view;
  v.bit_width = rd.u32("bit width");
  v.fingerprint = rd.digest("fingerprint");
  v.n_gates = rd.u64("gate count");
  if (v.n_gates > kMaxReusableGates) rd.fail("implausible gate count");
  const std::uint64_t n_table_slots = rd.u64("table count");
  if (n_table_slots > v.n_gates + 1) rd.fail("more tables than gates");
  if (n_table_slots % 2 != 0) rd.fail("odd table slot count");
  v.n_garbler_inputs = rd.u64("garbler input count");
  v.n_evaluator_inputs = rd.u64("evaluator input count");
  if (v.n_garbler_inputs > kMaxReusableInputs ||
      v.n_evaluator_inputs > kMaxReusableInputs)
    rd.fail("implausible input count");
  const std::uint64_t n_outputs = rd.u64("output count");
  if (n_outputs > kMaxReusableOutputs) rd.fail("implausible output count");
  const std::uint64_t n_dffs = rd.u64("dff count");
  if (n_dffs > kMaxReusableDffs) rd.fail("implausible dff count");

  const auto table_bytes = static_cast<std::size_t>(n_table_slots / 2);
  const std::uint8_t* tables = rd.take(table_bytes, "gate tables");
  v.tables.assign(tables, tables + table_bytes);
  v.dff_init_masked = rd.bits(n_dffs, "masked dff inits");
  v.dff_corrections = rd.bits(n_dffs, "dff corrections");
  v.output_flips = rd.bits(n_outputs, "output flips");
  if (want_secrets) {
    rc.garbler_flips = rd.bits(v.n_garbler_inputs, "garbler flips");
    rc.evaluator_flips = rd.bits(v.n_evaluator_inputs, "evaluator flips");
  }
  rd.done("artifact");
  return rc;
}

}  // namespace

gc::ReusableView parse_reusable_view(const std::uint8_t* data, std::size_t n) {
  return parse_any(data, n, false).view;
}

gc::ReusableCircuit parse_reusable(const std::uint8_t* data, std::size_t n) {
  return parse_any(data, n, true);
}

void send_client_offer(Channel& ch, const ClientArtifactOffer& o) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(o.has_artifact ? 1 : 0);
  w.bytes(o.sha.data(), o.sha.size());
  ch.send_bytes(buf.data(), buf.size());
}

ClientArtifactOffer recv_client_offer(Channel& ch) {
  std::uint8_t raw[ClientArtifactOffer::kWireSize];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd(raw, sizeof(raw), kContext);
  ClientArtifactOffer o;
  const std::uint8_t have = rd.u8("client artifact flag");
  if (have > 1) rd.fail("client artifact flag not boolean");
  o.has_artifact = have == 1;
  o.sha = rd.digest("client artifact sha");
  return o;
}

void send_server_offer(Channel& ch, const ServerArtifactOffer& o) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u64(o.artifact_bytes);
  w.bytes(o.sha.data(), o.sha.size());
  ch.send_bytes(buf.data(), buf.size());
}

ServerArtifactOffer recv_server_offer(Channel& ch) {
  std::uint8_t raw[ServerArtifactOffer::kWireSize];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd(raw, sizeof(raw), kContext);
  ServerArtifactOffer o;
  o.artifact_bytes = rd.u64("server artifact size");
  if (o.artifact_bytes > kMaxReusableArtifactBytes)
    rd.fail("implausible artifact size " + std::to_string(o.artifact_bytes));
  o.sha = rd.digest("server artifact sha");
  return o;
}

}  // namespace maxel::proto
