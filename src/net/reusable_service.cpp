#include "net/reusable_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "crypto/sha256.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/handshake.hpp"
#include "proto/reusable_io.hpp"
#include "proto/v3_records.hpp"

namespace maxel::net {

namespace {

// recv_bits trusts the wire's count prefix, so the session flows never
// use it directly: the expected bit count is always known from the
// negotiated round/input geometry, and a peer announcing anything else
// is a framing violation, not a reason to allocate.
std::vector<bool> recv_bits_exact(proto::Channel& ch, std::uint64_t expect,
                                  const char* what) {
  const std::uint64_t n = ch.recv_u64();
  if (n != expect)
    throw FramingError(std::string("reusable session: ") + what +
                       " carries " + std::to_string(n) + " bits, expected " +
                       std::to_string(expect));
  std::vector<std::uint8_t> packed((n + 7) / 8);
  if (!packed.empty()) ch.recv_bytes(packed.data(), packed.size());
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < bits.size(); ++i)
    bits[i] = (packed[i / 8] >> (i % 8)) & 1u;
  return bits;
}

}  // namespace

gc::ReusableCircuit garble_reusable(const circuit::Circuit& c,
                                    std::uint32_t bit_width,
                                    crypto::RandomSource& rng) {
  gc::ReusableCircuit rc = gc::make_reusable_circuit(c, rng);
  rc.view.bit_width = bit_width;
  rc.view.fingerprint = circuit_fingerprint(c);
  return rc;
}

ReusableServeContext make_reusable_context(const circuit::Circuit& c,
                                           gc::ReusableCircuit artifact,
                                           std::uint32_t rounds,
                                           std::uint64_t demo_seed) {
  if (artifact.view.n_garbler_inputs != c.garbler_inputs.size() ||
      artifact.view.n_evaluator_inputs != c.evaluator_inputs.size() ||
      artifact.view.n_gates != c.gates.size())
    throw std::invalid_argument(
        "make_reusable_context: artifact does not match the circuit");
  const std::uint64_t need =
      static_cast<std::uint64_t>(rounds) * c.evaluator_inputs.size();
  if (need == 0 || need > ot::kMaxPoolExtend)
    throw std::invalid_argument(
        "make_reusable_context: session OT demand out of range");

  ReusableServeContext ctx;
  ctx.view_bytes = proto::serialize_reusable_view(artifact.view);
  ctx.view_sha =
      crypto::Sha256::hash(ctx.view_bytes.data(), ctx.view_bytes.size());
  ctx.rounds = rounds;
  const std::size_t n_g = c.garbler_inputs.size();
  DemoInputStream garbler(demo_seed, kGarblerStream, artifact.view.bit_width);
  ctx.masked_garbler_bits.reserve(static_cast<std::size_t>(rounds) * n_g);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const std::vector<bool> v = garbler.next_bits();
    if (v.size() != n_g)
      throw std::invalid_argument(
          "make_reusable_context: demo stream width != garbler inputs");
    for (std::size_t j = 0; j < n_g; ++j)
      ctx.masked_garbler_bits.push_back(v[j] != artifact.garbler_flips[j]);
  }
  ctx.artifact = std::move(artifact);
  return ctx;
}

ReusableEvalOutcome eval_reusable_session(
    proto::Channel& ch, const circuit::Circuit& circ,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng) {
  const std::size_t n_in = circ.evaluator_inputs.size();
  const std::size_t n_g = circ.garbler_inputs.size();
  const std::uint64_t rounds = evaluator_bits.size();
  const std::uint64_t need = rounds * n_in;

  proto::ClientArtifactOffer offer;
  offer.has_artifact = st.reusable_view.has_value();
  if (offer.has_artifact) offer.sha = st.reusable_sha;
  const PoolJoin join = join_pool(ch, st, need, rng, &offer);
  const proto::V3ServerSetup& ss = join.setup;

  ReusableEvalOutcome out;
  out.fresh_pool = join.fresh_pool;
  if (join.artifact.artifact_bytes > 0) {
    // Size was cap-checked by the offer parser; receive, hash-verify,
    // parse (view framing only — a secrets-bearing blob is refused by
    // the parser), and pin to the locally built netlist.
    std::vector<std::uint8_t> blob(
        static_cast<std::size_t>(join.artifact.artifact_bytes));
    ch.recv_bytes(blob.data(), blob.size());
    if (crypto::Sha256::hash(blob.data(), blob.size()) != join.artifact.sha)
      throw CorruptionError("reusable artifact failed its checksum");
    gc::ReusableView view = proto::parse_reusable_view(blob.data(),
                                                       blob.size());
    if (view.fingerprint != circuit_fingerprint(circ))
      throw NetError(
          "reusable artifact is for a different circuit fingerprint");
    st.reusable_view = std::move(view);
    st.reusable_sha = join.artifact.sha;
    out.artifact_received = true;
  } else {
    if (!st.reusable_view)
      throw NetError("server sent no reusable artifact and none is cached");
    if (join.artifact.sha != st.reusable_sha)
      throw NetError(
          "server confirmed a reusable artifact the client does not hold");
  }
  out.setup_bytes = ch.bytes_sent() + ch.bytes_received();

  std::vector<bool> d(static_cast<std::size_t>(need));
  for (std::uint64_t r = 0; r < rounds; ++r) {
    if (evaluator_bits[static_cast<std::size_t>(r)].size() != n_in)
      throw std::invalid_argument(
          "eval_reusable_session: round input width mismatch");
    for (std::size_t j = 0; j < n_in; ++j)
      d[static_cast<std::size_t>(r * n_in + j)] =
          evaluator_bits[static_cast<std::size_t>(r)][j] !=
          st.pool.choice(ss.start_index + r * n_in + j);
  }
  ch.send_bits(d);
  ch.flush();

  const std::vector<bool> z = recv_bits_exact(ch, need, "masked-input bits");
  const std::vector<bool> g =
      recv_bits_exact(ch, rounds * n_g, "masked garbler bits");

  gc::ReusableEvaluator ev(circ, *st.reusable_view);
  std::vector<bool> masked_e(n_in), masked_g(n_g);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::size_t j = 0; j < n_in; ++j) {
      const std::uint64_t k = r * n_in + j;
      masked_e[j] =
          (st.pool.pad(ss.start_index + k).lsb() != 0) !=
          z[static_cast<std::size_t>(k)];
    }
    for (std::size_t j = 0; j < n_g; ++j)
      masked_g[j] = g[static_cast<std::size_t>(r * n_g + j)];
    out.decoded = ev.eval_round(masked_g, masked_e);
  }
  return out;
}

}  // namespace maxel::net
