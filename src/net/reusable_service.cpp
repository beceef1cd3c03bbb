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
#include "proto/v3_session.hpp"

namespace maxel::net {

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
    proto::Channel& ch, const ServedCircuit& served,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng) {
  const circuit::Circuit& circ = served.circ;
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
    // the parser), and pin to the served netlist.
    std::vector<std::uint8_t> blob(
        static_cast<std::size_t>(join.artifact.artifact_bytes));
    ch.recv_bytes(blob.data(), blob.size());
    if (crypto::Sha256::hash(blob.data(), blob.size()) != join.artifact.sha)
      throw CorruptionError("reusable artifact failed its checksum");
    gc::ReusableView view = proto::parse_reusable_view(blob.data(),
                                                       blob.size());
    if (view.fingerprint != served.fingerprint)
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

  proto::send_dbits(ch, evaluator_bits, n_in, st.pool, ss.start_index);

  // Both bit counts follow from the negotiated geometry: a peer naming
  // any other count is a framing violation, not a reason to allocate.
  const std::vector<bool> z = ch.recv_bits<FramingError>(
      need, "reusable session: masked-input bits");
  const std::vector<bool> g = ch.recv_bits<FramingError>(
      rounds * n_g, "reusable session: masked garbler bits");

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
