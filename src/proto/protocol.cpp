#include "proto/protocol.hpp"

#include <stdexcept>

namespace maxel::proto {

using crypto::Block;

GarblerParty::GarblerParty(const circuit::Circuit& c,
                           const ProtocolOptions& opt, Channel& ch,
                           crypto::RandomSource& rng)
    : circ_(c), opt_(opt), ch_(ch), garbler_(c, opt.scheme, rng) {
  if (opt.ot == OtMode::kIknp) {
    iknp_ = std::make_unique<ot::IknpSender>(ch, rng);
    ot_ = iknp_.get();
  } else {
    base_ot_ = std::make_unique<ot::BaseOtSender>(ch, rng);
    ot_ = base_ot_.get();
  }
}

void GarblerParty::setup_step2() {
  if (iknp_) iknp_->setup_step2();
}
void GarblerParty::setup_step4() {
  if (iknp_) iknp_->setup_step4();
}

void GarblerParty::garble_and_send(const std::vector<bool>& garbler_bits) {
  if (garbler_bits.size() != circ_.garbler_inputs.size())
    throw std::invalid_argument("garble_and_send: input arity mismatch");
  const bool first_round = garbler_.rounds_garbled() == 0;
  const gc::RoundTables tables = garbler_.garble_round();

  // Garbled tables (the payload MAXelerator streams over PCIe), as one
  // contiguous buffer — a single syscall on socket transports.
  ch_.send_u64(tables.tables.size());
  std::vector<std::uint8_t> buf(tables.byte_size(opt_.scheme));
  gc::tables_to_bytes(tables, opt_.scheme, buf.data());
  ch_.send_bytes(buf.data(), buf.size());

  // Garbler-side input labels and the fixed/constant wire labels.
  std::vector<Block> g_labels(garbler_bits.size());
  for (std::size_t i = 0; i < garbler_bits.size(); ++i)
    g_labels[i] = garbler_.garbler_input_label(i, garbler_bits[i]);
  ch_.send_blocks(g_labels);
  ch_.send_blocks(garbler_.fixed_wire_labels());
  if (first_round) ch_.send_blocks(garbler_.initial_state_labels());

  // Output decode map (point-and-permute color bits).
  ch_.send_bits(garbler_.output_map());

  ot_->send_phase1(circ_.evaluator_inputs.size());
}

void GarblerParty::finish_ot() {
  std::vector<std::pair<Block, Block>> pairs(circ_.evaluator_inputs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    pairs[i] = garbler_.evaluator_input_labels(i);
  ot_->send_phase2(pairs);
}

WireChunk::Round recv_v2_round(Channel& ch, const circuit::Circuit& c,
                               gc::Scheme scheme, gc::StreamingEvaluator& ev) {
  WireChunk::Round r;
  const std::size_t n_tables = ev.tables();
  ch.expect_count(n_tables, "v2 round: table count");
  std::vector<std::uint8_t> buf(n_tables * gc::bytes_per_and(scheme));
  if (!buf.empty()) ch.recv_bytes(buf.data(), buf.size());
  r.tables = gc::tables_from_bytes(buf.data(), n_tables, scheme);
  r.garbler_labels =
      ch.recv_blocks(c.garbler_inputs.size(), "v2 round: garbler labels");
  r.fixed_labels = ch.recv_blocks(2, "v2 round: fixed labels");
  if (ev.rounds_evaluated() == 0)
    ev.set_initial_state_labels(
        ch.recv_blocks(c.dffs.size(), "v2 round: state labels"));
  r.output_map = ch.recv_bits(c.outputs.size(), "v2 round: output map");
  return r;
}

EvaluatorParty::EvaluatorParty(const circuit::Circuit& c,
                               const ProtocolOptions& opt, Channel& ch,
                               crypto::RandomSource& rng)
    : circ_(c), opt_(opt), ch_(ch), evaluator_(c, opt.scheme) {
  if (opt.ot == OtMode::kIknp) {
    iknp_ = std::make_unique<ot::IknpReceiver>(ch, rng);
    ot_ = iknp_.get();
  } else {
    base_ot_ = std::make_unique<ot::BaseOtReceiver>(ch, rng);
    ot_ = base_ot_.get();
  }
}

EvaluatorParty::EvaluatorParty(const circuit::Circuit& c, gc::Scheme scheme,
                               Channel& ch, ot::OtReceiver& external_ot)
    : circ_(c), opt_{scheme, OtMode::kBase}, ch_(ch),
      evaluator_(c, scheme), ot_(&external_ot) {}

void EvaluatorParty::setup_step1() {
  if (iknp_) iknp_->setup_step1();
}
void EvaluatorParty::setup_step3() {
  if (iknp_) iknp_->setup_step3();
}

void EvaluatorParty::receive_and_choose(
    const std::vector<bool>& evaluator_bits) {
  if (evaluator_bits.size() != circ_.evaluator_inputs.size())
    throw std::invalid_argument("receive_and_choose: input arity mismatch");

  round_ = recv_v2_round(ch_, circ_, opt_.scheme, evaluator_);
  ot_->recv_phase1(evaluator_bits);
}

std::vector<bool> EvaluatorParty::evaluate_round() {
  const std::vector<Block> e_labels = ot_->recv_phase2();
  const auto out_labels = evaluator_.eval_round(
      round_.tables, round_.garbler_labels, e_labels, round_.fixed_labels);
  return gc::decode_with_map(out_labels, round_.output_map);
}

TwoPartyProtocol::TwoPartyProtocol(const circuit::Circuit& c,
                                   const ProtocolOptions& opt)
    : circ_(c), opt_(opt) {}

ProtocolResult TwoPartyProtocol::run(
    const std::vector<circuit::RoundInputs>& rounds) {
  auto [g_ch, e_ch] = MemoryChannel::create_pair();
  crypto::SystemRandom g_rng;
  crypto::SystemRandom e_rng;
  GarblerParty garbler(circ_, opt_, *g_ch, g_rng);
  EvaluatorParty evaluator(circ_, opt_, *e_ch, e_rng);

  evaluator.setup_step1();
  garbler.setup_step2();
  evaluator.setup_step3();
  garbler.setup_step4();

  ProtocolResult res;
  for (const auto& r : rounds) {
    garbler.garble_and_send(r.garbler_bits);
    evaluator.receive_and_choose(r.evaluator_bits);
    garbler.finish_ot();
    res.outputs = evaluator.evaluate_round();
  }
  res.rounds = rounds.size();
  res.garbler_bytes_sent = g_ch->bytes_sent();
  res.evaluator_bytes_sent = e_ch->bytes_sent();
  res.ands_garbled = circ_.and_count() * rounds.size();
  res.table_bytes = res.ands_garbled * gc::bytes_per_and(opt_.scheme);
  return res;
}

}  // namespace maxel::proto
