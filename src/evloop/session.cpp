#include "evloop/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/error.hpp"
#include "proto/chunk_io.hpp"
#include "proto/reusable_io.hpp"
#include "proto/v3_records.hpp"

namespace maxel::evloop {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Runs f, adding its wall time to acc (a session phase's running sum).
template <class F>
void timed(double& acc, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  acc += seconds_since(t0);
}

}  // namespace

EvSession::EvSession(const EvServeContext& ctx)
    : ctx_(&ctx),
      a_inputs_(ctx.demo_seed, net::kGarblerStream, ctx.bits) {
  ch_.set_fault_injector(ctx.faults);
}

EvSession::~EvSession() { teardown(); }

const char* EvSession::mode_name() const {
  switch (mode_) {
    case Mode::kPre:
      return "precomputed";
    case Mode::kStream:
      return "stream";
    case Mode::kV3:
      return "v3";
    case Mode::kReusable:
      return "reusable";
  }
  return "?";
}

void EvSession::release_gate() {
  if (!gate_held_) return;
  gate_held_ = false;
  entry_->ev_gate.store(false, std::memory_order_release);
}

void EvSession::teardown() {
  if (claim_open_ && pool_) {
    pool_->discard(claim_);
    claim_open_ = false;
  }
  release_gate();
}

void EvSession::fail(EvError kind, const std::string& what) {
  teardown();
  err_ = kind;
  err_text_ = what;
  state_ = St::kFailed;
  // A handshake reject is already staged on the channel; cut its frame
  // so the owning connection can still deliver the verdict.
  ch_.flush();
}

void EvSession::on_bytes(const std::uint8_t* data, std::size_t n) {
  if (state_ == St::kDone || state_ == St::kFailed) return;
  try {
    if (n > 0) ch_.ingest(data, n);
    advance();
  } catch (const net::HandshakeError& e) {
    fail(EvError::kHandshake, e.what());
  } catch (const net::PeerClosedError& e) {
    fail(EvError::kPeerClosed, e.what());
  } catch (const net::NetError& e) {
    fail(EvError::kNet, e.what());
  } catch (const std::exception& e) {
    fail(EvError::kOther, e.what());
  }
}

void EvSession::on_peer_eof() {
  if (state_ == St::kDone || state_ == St::kFailed) return;
  fail(EvError::kPeerClosed, "peer closed mid-session");
}

void EvSession::on_gate_retry() {
  if (!wants_gate_retry_ || state_ == St::kDone || state_ == St::kFailed)
    return;
  wants_gate_retry_ = false;
  try {
    advance();
  } catch (const net::HandshakeError& e) {
    fail(EvError::kHandshake, e.what());
  } catch (const net::PeerClosedError& e) {
    fail(EvError::kPeerClosed, e.what());
  } catch (const net::NetError& e) {
    fail(EvError::kNet, e.what());
  } catch (const std::exception& e) {
    fail(EvError::kOther, e.what());
  }
}

void EvSession::advance() {
  while (state_ != St::kDone && state_ != St::kFailed &&
         !wants_gate_retry_) {
    if (ch_.available() < current_need()) break;
    step();
  }
  // Parking (or finishing) is a phase boundary: everything staged must
  // become drainable output now, because the peer cannot produce the
  // bytes we wait for until it has seen ours.
  ch_.flush();
}

std::size_t EvSession::hello_need() const {
  if (ch_.available() < net::kHelloWireSize) return net::kHelloWireSize;
  // A bad magic rejects on the bare hello; only a well-formed version-3
  // hello carries the extension (which the handshake drains even when
  // v3 is disabled, so the reject verdict survives the close).
  if (ch_.peek_u64(0) != net::kHelloMagic) return net::kHelloWireSize;
  if (ch_.peek_u32(8) != net::kProtocolVersionV3) return net::kHelloWireSize;
  const std::size_t ext_base = net::kHelloWireSize + 16 + 1;
  if (ch_.available() < ext_base) return ext_base;
  if (ch_.peek_u8(net::kHelloWireSize + 16) == 1)
    return ext_base + proto::ResumptionTicket::kWireSize;
  return ext_base;
}

std::size_t EvSession::ot_need() const {
  const std::size_t n = mode_ == Mode::kStream
                            ? chunk_pairs_[round_in_chunk_].size()
                            : n_eval_;
  if (iknp_) return 128 * ((n + 63) / 64) * 8;  // bit-matrix columns
  return 16 * n;                                // one Fp127 point per OT
}

std::size_t EvSession::current_need() const {
  switch (state_) {
    case St::kHello:
      return hello_need();
    case St::kOtSetup2:
    case St::kPoolBase2:
      return 16;  // base-OT A point
    case St::kOtSetup4:
    case St::kPoolBase4:
      return 128 * 32;  // 128 base-OT B-point pairs
    case St::kPreOt:
    case St::kStrOt:
      return ot_need();
    case St::kPoolGate:
      return proto::V3ClientSetup::kWireSize +
             (mode_ == Mode::kReusable ? proto::ClientArtifactOffer::kWireSize
                                       : 0);
    case St::kPoolExtend:
      return 128 * ((static_cast<std::size_t>(extend_count_) + 7) / 8);
    case St::kV3Round:
      return (n_eval_ + 7) / 8;
    case St::kReDbits:
      return 8 + (static_cast<std::size_t>(need_total_) + 7) / 8;
    case St::kDone:
    case St::kFailed:
      return 0;
  }
  return 0;
}

void EvSession::step() {
  switch (state_) {
    case St::kHello:
      finish_handshake();
      return;
    case St::kOtSetup2:
      timed(stats_.ot_seconds, [this] {
        if (mode_ == Mode::kPre)
          party_->setup_step2();
        else
          iknp_ot_->setup_step2();
      });
      state_ = St::kOtSetup4;
      return;
    case St::kOtSetup4:
      if (mode_ == Mode::kPre) {
        timed(stats_.ot_seconds, [this] { party_->setup_step4(); });
        begin_pre_round();
      } else {
        timed(stats_.ot_seconds, [this] { iknp_ot_->setup_step4(); });
        start_stream_chunk();
      }
      return;
    case St::kPreOt:
      timed(stats_.ot_seconds, [this] { party_->finish_ot(); });
      ++r_;
      if (r_ < ctx_->rounds)
        begin_pre_round();
      else
        finalize(Mode::kPre);
      return;
    case St::kStrOt:
      timed(stats_.ot_seconds,
            [this] { ot_->send_phase2(chunk_pairs_[round_in_chunk_]); });
      ++round_in_chunk_;
      ++r_;
      if (round_in_chunk_ < chunk_pairs_.size())
        timed(stats_.ot_seconds, [this] {
          ot_->send_phase1(chunk_pairs_[round_in_chunk_].size());
        });
      else if (next_round_ < ctx_->rounds)
        start_stream_chunk();
      else
        finalize(Mode::kStream);
      return;
    case St::kPoolGate:
      pool_gate_step();
      return;
    case St::kPoolBase2:
      timed(stats_.ot_seconds, [this] {
        crypto::SystemRandom setup_rng(ctx_->reg->next_block());
        pool_->base_setup_step2(ch_, setup_rng);
      });
      state_ = St::kPoolBase4;
      return;
    case St::kPoolBase4:
      timed(stats_.ot_seconds, [this] { pool_->base_setup_step4(); });
      if (extend_count_ > 0)
        state_ = St::kPoolExtend;
      else
        finish_pool_setup();
      return;
    case St::kPoolExtend:
      timed(stats_.ot_seconds, [this] {
        pool_->extend(ch_, static_cast<std::size_t>(extend_count_));
      });
      finish_pool_setup();
      return;
    case St::kV3Round:
      v3_round_step();
      return;
    case St::kReDbits:
      re_dbits_step();
      return;
    case St::kDone:
    case St::kFailed:
      return;
  }
}

void EvSession::finish_handshake() {
  const net::V23Handshake hs = net::server_handshake_v23(ch_, ctx_->expect);
  hello_ = hs.hello;
  ext_ = hs.ext;
  v3_ = hs.version == net::kProtocolVersionV3;
  iknp_ = hello_.ot == static_cast<std::uint8_t>(net::OtChoice::kIknp);
  n_eval_ = ctx_->circ->evaluator_inputs.size();
  stats_.handshake_seconds += seconds_since(t_accept_);
  t_session_ = Clock::now();

  if (v3_) {
    // The pooled modes share every step from here to the claim; they
    // differ only in the claim demand and where the session comes from.
    if (hello_.mode ==
        static_cast<std::uint8_t>(net::SessionMode::kReusable)) {
      mode_ = Mode::kReusable;
      if (ctx_->reusable == nullptr)
        throw std::logic_error("evloop: reusable accepted without a context");
      need_total_ = static_cast<std::uint64_t>(ctx_->reusable->rounds) *
                    ctx_->reusable->artifact.view.n_evaluator_inputs;
    } else {
      mode_ = Mode::kV3;
      if (!ctx_->take_v3)
        throw net::NetError("evloop: v3 mode has no session source");
      v3_session_ = ctx_->take_v3();
      if (v3_session_.pool_lineage != ctx_->reg->lineage())
        throw std::logic_error(
            "evloop v3: session garbled under a foreign delta");
      need_total_ = v3_session_.round_count() * n_eval_;
    }
    if (need_total_ == 0 || need_total_ > ot::kMaxPoolExtend)
      throw std::invalid_argument("evloop: pool claim demand out of range");
    entry_ = ctx_->reg->entry_for(ext_->client_id);
    state_ = St::kPoolGate;
  } else if (hello_.mode ==
             static_cast<std::uint8_t>(net::SessionMode::kStream)) {
    init_stream();
  } else {
    init_precomputed();
  }
}

void EvSession::init_precomputed() {
  mode_ = Mode::kPre;
  if (!ctx_->take_session)
    throw net::NetError("evloop: precomputed mode has no session source");
  proto::PrecomputedSession session = ctx_->take_session();
  const std::uint64_t resident =
      session.rounds.empty()
          ? 0
          : session.rounds.size() * session.rounds.front().tables.tables.size();
  stats_.peak_resident_tables =
      std::max(stats_.peak_resident_tables, resident);
  party_ = std::make_unique<proto::PrecomputedGarblerParty>(
      std::move(session), ch_, rng_,
      iknp_ ? proto::PrecomputedOtMode::kIknp
            : proto::PrecomputedOtMode::kBase);
  if (iknp_)
    state_ = St::kOtSetup2;
  else
    begin_pre_round();
}

void EvSession::begin_pre_round() {
  timed(stats_.transfer_seconds,
        [this] { party_->garble_and_send(a_inputs_.next_bits()); });
  if (r_ == 0) stats_.first_table_seconds += seconds_since(t_session_);
  state_ = St::kPreOt;
}

void EvSession::init_stream() {
  mode_ = Mode::kStream;
  // Inline garbling on the loop thread: an event loop overlaps garbling
  // with transfer by interleaving sessions. Wire record order: one chunk,
  // then its per-round OT phases.
  garbler_ =
      std::make_unique<gc::CircuitGarbler>(*ctx_->circ, ctx_->scheme, rng_);
  if (iknp_) {
    iknp_ot_ = std::make_unique<ot::IknpSender>(ch_, rng_);
    ot_ = iknp_ot_.get();
    state_ = St::kOtSetup2;
  } else {
    base_ot_ = std::make_unique<ot::BaseOtSender>(ch_, rng_);
    ot_ = base_ot_.get();
    start_stream_chunk();
  }
}

void EvSession::start_stream_chunk() {
  const std::size_t per_chunk =
      std::max<std::size_t>(1, ctx_->stream_chunk_rounds);
  const std::size_t count =
      std::min(per_chunk, ctx_->rounds - next_round_);
  proto::WireChunk wc;
  wc.scheme = ctx_->scheme;
  wc.first_round = next_round_;
  wc.rounds.reserve(count);
  chunk_pairs_.clear();
  chunk_pairs_.reserve(count);
  std::uint64_t chunk_tables = 0;
  for (std::size_t i = 0; i < count; ++i) {
    gc::RoundMaterial rm = garbler_->garble_round_material();
    chunk_tables += rm.tables.tables.size();
    const std::vector<bool> a_bits = a_inputs_.next_bits();
    proto::WireChunk::Round wr;
    wr.tables = std::move(rm.tables);
    wr.garbler_labels.resize(a_bits.size());
    for (std::size_t j = 0; j < a_bits.size(); ++j)
      wr.garbler_labels[j] = a_bits[j]
                                 ? rm.garbler_labels0[j] ^ garbler_->delta()
                                 : rm.garbler_labels0[j];
    wr.fixed_labels = std::move(rm.fixed_labels);
    wr.output_map = std::move(rm.output_map);
    wc.rounds.push_back(std::move(wr));
    chunk_pairs_.push_back(std::move(rm.evaluator_pairs));
    ++next_round_;
  }
  // Round-0 state labels exist only after the first round is garbled.
  if (wc.first_round == 0)
    wc.initial_state_labels = garbler_->initial_state_labels();
  timed(stats_.transfer_seconds, [&] { proto::send_chunk(ch_, wc); });
  if (!first_chunk_sent_) {
    stats_.first_table_seconds += seconds_since(t_session_);
    first_chunk_sent_ = true;
  }
  stats_.peak_resident_tables =
      std::max(stats_.peak_resident_tables, chunk_tables);
  round_in_chunk_ = 0;
  timed(stats_.ot_seconds,
        [this] { ot_->send_phase1(chunk_pairs_[0].size()); });
  state_ = St::kStrOt;
}

void EvSession::pool_gate_step() {
  // One session per client entry at a time across every shard. Losing
  // the exchange parks this session on a timer instead of a mutex a
  // sibling on the same loop thread might hold.
  if (entry_->ev_gate.exchange(true, std::memory_order_acq_rel)) {
    wants_gate_retry_ = true;
    return;
  }
  gate_held_ = true;

  // Both records are read before either reply is staged: a recv flushes
  // staged sends, and each side's setup and offer share one frame.
  const proto::V3ClientSetup cs = proto::recv_client_setup(ch_);
  const bool reusable = mode_ == Mode::kReusable;
  if (reusable) {
    const proto::ClientArtifactOffer have = proto::recv_client_offer(ch_);
    artifact_sent_ =
        !(have.has_artifact && have.sha == ctx_->reusable->view_sha);
  }
  reconcile_pool(cs.extended);
  proto::V3ServerSetup ss;
  ss.fresh = fresh_pool_;
  ss.pool_id = pool_->pool_id();
  ss.cookie = cookie_;
  ss.start_index = claim_start_expected_;
  ss.claim_count = need_total_;
  ss.extend_count = extend_count_;
  proto::send_server_setup(ch_, ss);
  if (reusable)
    proto::send_server_offer(
        ch_, proto::ServerArtifactOffer{
                 artifact_sent_ ? ctx_->reusable->view_bytes.size() : 0,
                 ctx_->reusable->view_sha});
  ch_.flush();
  begin_pool_phases();
}

void EvSession::reconcile_pool(std::uint64_t client_extended) {
  {
    // ev_gate serializes the wire phases; io_mu still guards the entry's
    // pointer fields against concurrent registry snapshots. Resume only
    // on full agreement — first contact, a missing or stale ticket, or a
    // materialized-count desync from a death mid-extend all restart from
    // a fresh pool and base OT, which costs one setup, never correctness.
    const std::lock_guard<std::mutex> io(entry_->io_mu);
    const bool resume = entry_->pool && ext_->has_ticket &&
                        ext_->ticket.pool_id == entry_->pool->pool_id() &&
                        ext_->ticket.cookie == entry_->cookie &&
                        ext_->ticket.client_id == ext_->client_id &&
                        client_extended == entry_->pool->extended();
    if (!resume) {
      entry_->pool = std::make_shared<ot::CorrelatedPoolSender>(
          ctx_->reg->delta(), ctx_->reg->next_pool_id());
      entry_->cookie = ctx_->reg->next_block();
      fresh_pool_ = true;
    }
    pool_ = entry_->pool;
    cookie_ = entry_->cookie;
  }

  const ot::PoolStats pst = pool_->stats();
  extend_count_ = 0;
  if (pst.available() < need_total_) {
    const std::uint64_t deficit = need_total_ - pst.available();
    extend_count_ =
        ((deficit + ot::kPoolExtendBatch - 1) / ot::kPoolExtendBatch) *
        ot::kPoolExtendBatch;
    extend_count_ = std::min<std::uint64_t>(
        extend_count_, static_cast<std::uint64_t>(ot::kMaxPoolExtend));
  }
  // The gate serializes claims on this pool, so the next claim starts
  // exactly at the total ever claimed.
  claim_start_expected_ = pst.claimed + pst.consumed + pst.discarded;
}

void EvSession::begin_pool_phases() {
  if (fresh_pool_)
    state_ = St::kPoolBase2;
  else if (extend_count_ > 0)
    state_ = St::kPoolExtend;
  else
    finish_pool_setup();
}

void EvSession::finish_pool_setup() {
  claim_ = pool_->claim(need_total_);
  claim_open_ = true;
  if (claim_.start != claim_start_expected_)
    throw std::logic_error("evloop: pool claim raced despite the gate");
  proto::send_ticket(ch_, proto::ResumptionTicket{pool_->pool_id(),
                                                  ext_->client_id, cookie_});
  if (artifact_sent_)
    timed(stats_.transfer_seconds, [this] {
      ch_.send_bytes(ctx_->reusable->view_bytes.data(),
                     ctx_->reusable->view_bytes.size());
    });
  ch_.flush();
  release_gate();

  if (mode_ == Mode::kV3) {
    proto::SeedExpansionRecord seed;
    seed.label_seed = v3_session_.label_seed;
    proto::send_seed_expansion(ch_, seed);
    r_ = 0;
    v3_send_round_frame();
    state_ = St::kV3Round;
  } else {
    state_ = St::kReDbits;
  }
}

void EvSession::v3_send_round_frame() {
  timed(stats_.transfer_seconds,
        [this] { proto::send_v3_round(ch_, v3_session_, r_); });
}

void EvSession::v3_round_step() {
  // The round's label OT: derandomize the pool pads by the client's
  // choice-adjust bits.
  timed(stats_.ot_seconds, [this] {
    proto::answer_v3_round(ch_, v3_session_, r_, *pool_, claim_);
  });
  ++r_;
  if (r_ < v3_session_.round_count())
    v3_send_round_frame();
  else
    finalize(Mode::kV3);
}

void EvSession::re_dbits_step() {
  const std::uint64_t n = ch_.recv_u64();
  if (n != need_total_)
    throw net::FramingError(
        "reusable session: choice-adjust bits carries " + std::to_string(n) +
        " bits, expected " + std::to_string(need_total_));
  std::vector<std::uint8_t> packed(
      (static_cast<std::size_t>(need_total_) + 7) / 8);
  if (!packed.empty()) ch_.recv_bytes(packed.data(), packed.size());

  // The session's label OT: derandomize the pool pads by the client's
  // choice-adjust bits, then push the garbler's masked input bits.
  timed(stats_.ot_seconds, [&] {
    const std::uint64_t n_in =
        ctx_->reusable->artifact.view.n_evaluator_inputs;
    std::vector<bool> z(static_cast<std::size_t>(need_total_));
    for (std::uint64_t k = 0; k < need_total_; ++k) {
      const bool d = (packed[static_cast<std::size_t>(k / 8)] >> (k % 8)) & 1u;
      z[static_cast<std::size_t>(k)] =
          ((pool_->pad(claim_.start + k).lsb() != 0) != d) !=
          static_cast<bool>(ctx_->reusable->artifact
                                .evaluator_flips[static_cast<std::size_t>(
                                    k % n_in)]);
    }
    ch_.send_bits(z);
  });
  timed(stats_.transfer_seconds, [this] {
    ch_.send_bits(ctx_->reusable->masked_garbler_bits);
    ch_.flush();
  });
  finalize(Mode::kReusable);
}

void EvSession::finalize(Mode done_mode) {
  if (claim_open_) {
    pool_->consume(claim_);
    claim_open_ = false;
  }
  stats_.bytes_sent += ch_.bytes_sent();
  stats_.bytes_received += ch_.bytes_received();
  ++stats_.sessions_served;
  switch (done_mode) {
    case Mode::kPre:
      stats_.rounds_served += ctx_->rounds;
      break;
    case Mode::kStream:
      stats_.rounds_served += r_;
      ++stats_.stream_sessions_served;
      break;
    case Mode::kV3:
      stats_.rounds_served += v3_session_.round_count();
      ++stats_.v3_sessions_served;
      break;
    case Mode::kReusable:
      stats_.rounds_served += ctx_->reusable->rounds;
      ++stats_.reusable_sessions_served;
      if (artifact_sent_) ++stats_.reusable_artifacts_sent;
      break;
  }
  if (pool_) {  // the pooled modes' shared accounting
    if (fresh_pool_) ++stats_.v3_fresh_pools;
    stats_.v3_ot_extended += extend_count_;
  }
  session_seconds_ = seconds_since(t_session_);
  state_ = St::kDone;
  ch_.flush();
}

}  // namespace maxel::evloop
