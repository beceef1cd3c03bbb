#include "net/v3_service.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/error.hpp"
#include "proto/v3_records.hpp"

namespace maxel::net {

V3PoolRegistry::V3PoolRegistry(const crypto::Block& seed) : rng_(seed) {
  delta_ = rng_.next_block();
  delta_.lo |= 1u;
  lineage_ = proto::delta_lineage(delta_);
}

std::shared_ptr<V3PoolRegistry::Entry> V3PoolRegistry::entry_for(
    const crypto::Block& client_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = entries_[{client_id.lo, client_id.hi}];
  if (!slot) slot = std::make_shared<Entry>();
  return slot;
}

crypto::Block V3PoolRegistry::next_block() {
  const std::lock_guard<std::mutex> lock(mu_);
  return rng_.next_block();
}

std::uint64_t V3PoolRegistry::next_pool_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_pool_id_++;
}

std::size_t V3PoolRegistry::clients() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t V3PoolRegistry::outstanding_claims() const {
  // Snapshot the entries under the registry lock, then visit each under
  // its own io mutex (the serve path locks io_mu before mu_, so holding
  // both here in the other order would invert).
  std::vector<std::shared_ptr<Entry>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) snapshot.push_back(entry);
  }
  std::uint64_t total = 0;
  for (const auto& entry : snapshot) {
    const std::lock_guard<std::mutex> io(entry->io_mu);
    if (entry->pool) total += entry->pool->stats().claimed;
  }
  return total;
}

std::shared_ptr<V3ClientState> make_v3_client_state(
    crypto::RandomSource& rng) {
  auto st = std::make_shared<V3ClientState>();
  st->client_id = rng.next_block();
  return st;
}

V3EvalOutcome eval_v3_session(
    proto::Channel& ch, const circuit::Circuit& circ,
    const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng) {
  const std::size_t n_in = circ.evaluator_inputs.size();
  proto::send_client_setup(
      ch, proto::V3ClientSetup{st.pool.extended(), st.pool.watermark()});
  ch.flush();
  const proto::V3ServerSetup ss = proto::recv_server_setup(ch);

  V3EvalOutcome out;
  if (ss.fresh) {
    st.pool.reset();
    st.ticket.reset();
    st.pool.base_setup_step1(ch, rng);
    st.pool.base_setup_step3();
    out.fresh_pool = true;
  }
  if (ss.extend_count > 0) st.pool.extend(ch, ss.extend_count);
  const proto::ResumptionTicket ticket = proto::recv_ticket(ch);
  if (ticket.client_id != st.client_id)
    throw NetError("v3 setup: ticket issued for a different client");
  if (ticket.pool_id != ss.pool_id)
    throw NetError("v3 setup: ticket names a different pool");
  if (ss.claim_count != evaluator_bits.size() * n_in)
    throw NetError("v3 setup: claim does not cover the session rounds");
  // Watermark check: throws on any replayed index before we evaluate.
  st.pool.mark_consumed(ss.start_index, ss.claim_count);
  st.ticket = ticket;
  out.setup_bytes = ch.bytes_sent() + ch.bytes_received();

  out.decoded = proto::eval_v3_rounds(ch, circ, an, evaluator_bits, st.pool,
                                      ss.start_index);
  return out;
}

}  // namespace maxel::net
