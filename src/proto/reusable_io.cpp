#include "proto/reusable_io.hpp"

#include <cstring>
#include <string>

namespace maxel::proto {

namespace {

constexpr char kReusableMagic[8] = {'M', 'X', 'R', 'E', 'U', 'S', '1', '\0'};

[[noreturn]] void bad(const std::string& what) {
  throw ReusableFormatError("reusable record: " + what);
}

void put_magic(std::vector<std::uint8_t>& buf) {
  const std::size_t off = buf.size();
  buf.resize(off + 8);
  std::memcpy(buf.data() + off, kReusableMagic, 8);
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

// Packed bit vector, lsb-first, no count prefix (counts live in the
// record header and are validated before the bits are touched).
void put_bits(std::vector<std::uint8_t>& buf, const std::vector<bool>& bits) {
  const std::size_t off = buf.size();
  buf.resize(off + (bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) buf[off + (i >> 3)] |= static_cast<std::uint8_t>(1u << (i & 7));
}

struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n, const char* what) {
    if (left < n) bad(std::string("truncated ") + what);
  }
  std::uint8_t u8(const char* what) {
    need(1, what);
    const std::uint8_t v = *p;
    p += 1;
    left -= 1;
    return v;
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    std::memcpy(&v, p, 4);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    p += 8;
    left -= 8;
    return v;
  }
  std::array<std::uint8_t, 32> sha(const char* what) {
    need(32, what);
    std::array<std::uint8_t, 32> out{};
    std::memcpy(out.data(), p, 32);
    p += 32;
    left -= 32;
    return out;
  }
  // A count already validated against its cap; reject it again if the
  // remaining bytes cannot possibly hold the packed bits.
  std::vector<bool> bits(std::uint64_t count, const char* what) {
    const std::size_t bytes = static_cast<std::size_t>((count + 7) / 8);
    need(bytes, what);
    std::vector<bool> out(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = (p[i >> 3] >> (i & 7)) & 1u;
    // Padding bits of the last byte must be zero: a mutated tail is a
    // corrupt record, not silently-ignored slack.
    if (count % 8 != 0 &&
        (p[bytes - 1] >> (count % 8)) != 0)
      bad(std::string("nonzero padding in ") + what);
    p += bytes;
    left -= bytes;
    return out;
  }
};

}  // namespace

std::vector<std::uint8_t> serialize_reusable_view(const gc::ReusableView& v) {
  std::vector<std::uint8_t> buf;
  put_magic(buf);
  buf.push_back(0);  // has_secrets
  put_u32(buf, v.bit_width);
  buf.insert(buf.end(), v.fingerprint.begin(), v.fingerprint.end());
  put_u64(buf, v.n_gates);
  // Table count is stored explicitly: the parser cannot know the
  // obfuscated-gate count without the netlist.
  put_u64(buf, static_cast<std::uint64_t>(v.tables.size()) * 2);
  put_u64(buf, v.n_garbler_inputs);
  put_u64(buf, v.n_evaluator_inputs);
  put_u64(buf, static_cast<std::uint64_t>(v.output_flips.size()));
  put_u64(buf, static_cast<std::uint64_t>(v.dff_init_masked.size()));
  buf.insert(buf.end(), v.tables.begin(), v.tables.end());
  put_bits(buf, v.dff_init_masked);
  put_bits(buf, v.dff_corrections);
  put_bits(buf, v.output_flips);
  return buf;
}

std::vector<std::uint8_t> serialize_reusable(const gc::ReusableCircuit& rc) {
  std::vector<std::uint8_t> buf = serialize_reusable_view(rc.view);
  buf[8] = 1;  // has_secrets flag sits right after the magic
  put_bits(buf, rc.garbler_flips);
  put_bits(buf, rc.evaluator_flips);
  return buf;
}

namespace {

gc::ReusableCircuit parse_any(const std::uint8_t* data, std::size_t n,
                              bool want_secrets) {
  Reader rd{data, n};
  rd.need(8, "magic");
  if (std::memcmp(rd.p, kReusableMagic, 8) != 0) bad("bad magic");
  rd.p += 8;
  rd.left -= 8;
  const std::uint8_t secrets = rd.u8("secrets flag");
  if (secrets > 1) bad("secrets flag not boolean");
  if (want_secrets && secrets != 1) bad("artifact is missing the secrets");
  if (!want_secrets && secrets != 0)
    bad("refusing a secrets-bearing artifact as a view");

  gc::ReusableCircuit rc;
  gc::ReusableView& v = rc.view;
  v.bit_width = rd.u32("bit width");
  v.fingerprint = rd.sha("fingerprint");
  v.n_gates = rd.u64("gate count");
  if (v.n_gates > kMaxReusableGates) bad("implausible gate count");
  const std::uint64_t n_table_slots = rd.u64("table count");
  if (n_table_slots > v.n_gates + 1) bad("more tables than gates");
  if (n_table_slots % 2 != 0) bad("odd table slot count");
  v.n_garbler_inputs = rd.u64("garbler input count");
  v.n_evaluator_inputs = rd.u64("evaluator input count");
  if (v.n_garbler_inputs > kMaxReusableInputs ||
      v.n_evaluator_inputs > kMaxReusableInputs)
    bad("implausible input count");
  const std::uint64_t n_outputs = rd.u64("output count");
  if (n_outputs > kMaxReusableOutputs) bad("implausible output count");
  const std::uint64_t n_dffs = rd.u64("dff count");
  if (n_dffs > kMaxReusableDffs) bad("implausible dff count");

  const std::size_t table_bytes = static_cast<std::size_t>(n_table_slots / 2);
  rd.need(table_bytes, "gate tables");
  v.tables.assign(rd.p, rd.p + table_bytes);
  rd.p += table_bytes;
  rd.left -= table_bytes;
  v.dff_init_masked = rd.bits(n_dffs, "masked dff inits");
  v.dff_corrections = rd.bits(n_dffs, "dff corrections");
  v.output_flips = rd.bits(n_outputs, "output flips");
  if (want_secrets) {
    rc.garbler_flips = rd.bits(v.n_garbler_inputs, "garbler flips");
    rc.evaluator_flips = rd.bits(v.n_evaluator_inputs, "evaluator flips");
  }
  if (rd.left != 0) bad("trailing bytes");
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
  buf.push_back(o.has_artifact ? 1 : 0);
  buf.insert(buf.end(), o.sha.begin(), o.sha.end());
  ch.send_bytes(buf.data(), buf.size());
}

ClientArtifactOffer recv_client_offer(Channel& ch) {
  std::uint8_t raw[ClientArtifactOffer::kWireSize];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd{raw, sizeof(raw)};
  ClientArtifactOffer o;
  const std::uint8_t have = rd.u8("client artifact flag");
  if (have > 1) bad("client artifact flag not boolean");
  o.has_artifact = have == 1;
  o.sha = rd.sha("client artifact sha");
  return o;
}

void send_server_offer(Channel& ch, const ServerArtifactOffer& o) {
  std::vector<std::uint8_t> buf;
  put_u64(buf, o.artifact_bytes);
  buf.insert(buf.end(), o.sha.begin(), o.sha.end());
  ch.send_bytes(buf.data(), buf.size());
}

ServerArtifactOffer recv_server_offer(Channel& ch) {
  std::uint8_t raw[ServerArtifactOffer::kWireSize];
  ch.recv_bytes(raw, sizeof(raw));
  Reader rd{raw, sizeof(raw)};
  ServerArtifactOffer o;
  o.artifact_bytes = rd.u64("server artifact size");
  if (o.artifact_bytes > kMaxReusableArtifactBytes)
    bad("implausible artifact size " + std::to_string(o.artifact_bytes));
  o.sha = rd.sha("server artifact sha");
  return o;
}

}  // namespace maxel::proto
