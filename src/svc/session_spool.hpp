// Disk-backed spool of pre-garbled sessions — the durable half of
// Fig. 1's host-side store. The accelerator (here: a GcCorePool
// producer) keeps depositing sessions; broker workers claim and serve
// them. Unlike the in-memory GarblingBank, the spool survives a host
// kill/restart, and its claim discipline guarantees single-use even
// across a crash.
//
// On-disk layout under the spool directory (see docs/PROTOCOL.md):
//
//   ready/sess-<seq>-<bytes>-<sha256>.mxs
//       session_io-format files, available to serve
//   ready/v3ss-<seq>-<bytes>-<lineage>-<sha256>.mx3
//       protocol-v3 lane (v3_session codec), named with its OT-pool
//       lineage
//   ready/reus-<seq>-<bytes>-<key>-<sha256>.mxr
//       reusable-circuit lane (reusable_io full framing, secrets
//       included), named with its cache key
//   claimed/<name>          claimed by a worker; purged on open()
//   tmp/                    staging for atomic writes
//   reusable.counts         MAC evaluations served per reusable artifact,
//                           written when the spool closes
//
// The directory is its own index: a file's name carries everything the
// spool knows about it. <seq>, <bytes> and <lineage> are 16 lowercase
// hex digits, so one lane's names sort oldest first, and <sha256> is the
// checksum of the file's bytes. open() lists ready/ and reads no file;
// a name that does not parse (an older build's layout, say) is removed
// and counted in purged_on_open. Content-addressed names also keep two
// processes that share a directory from ever naming two files alike.
//
// The reusable lane breaks the single-use mold on purpose: a reusable
// artifact is garbled once per (circuit fingerprint, bit width) key and
// then read — never claimed — by every broker process that opens the
// spool, surviving restarts. Corruption is handled at fetch time: a
// checksum mismatch destroys the file and the caller re-garbles, so a
// flipped bit on disk costs one garbling, never a wrong table.
//
// Single-use invariants (v2 and v3 lanes):
//   * put() writes tmp/<name>, fsync-free but complete, then renames
//     into ready/ — a crash mid-write leaves only tmp/ garbage, never a
//     half session in ready/.
//   * take() claims by renaming ready/<f> -> claimed/<f> BEFORE the
//     bytes are handed out. rename(2) is atomic, so two workers (or two
//     broker processes sharing a directory) can never both serve the
//     same session: exactly one rename wins.
//   * Opening a spool purges claimed/ — a claimed session may have been
//     partially streamed to a client before the crash, so its labels
//     are burned; destroying it is the only safe choice.
//
// Every read of a session or artifact file takes exactly the byte count
// in its name (a short or long file fails like a checksum mismatch) and
// checks the SHA-256 in its name, so a take detects bit rot or
// tampering before a worker streams garbage tables.
//
// RAM first: each single-use lane (v2 and v3) keeps up to
// ram_cache_sessions of its freshly put sessions in memory, and a take
// serves a cached session first and otherwise the oldest session on
// disk. A cache hit still wins the ready/ -> claimed/ rename and unlinks
// the file before it returns, so single use and the restart story are
// unchanged; it just reads, hashes and parses nothing. The v3 lineage
// check applies to cached sessions too.
//
// Per-operation writes: a put writes only its own file, and a take,
// burn, fetch, discard or purge only renames or unlinks its own file.
// The reusable evaluation counters live in memory and reach the disk
// once, when the spool closes.
//
// Locking: mu_ guards the file lists, the caches and the ledger. It is
// held for that bookkeeping and the claim rename only — never across
// writing, reading, checksumming or parsing a session or artifact file
// — so a put never waits behind a take's disk read and a take never
// waits behind a put's write.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "proto/precompute.hpp"
#include "proto/v3_session.hpp"

namespace maxel::svc {

struct SpoolConfig {
  std::string dir;
  std::size_t ram_cache_sessions = 4;  // in-memory front, per lane
  bool verify_checksums = true;        // SHA-256 check on disk reads
};

struct SpoolStats {
  std::size_t sessions_ready = 0;    // v2 files in ready/ right now
  std::uint64_t sessions_spooled = 0;   // put() total since open
  std::uint64_t sessions_claimed = 0;   // take() total since open
  std::uint64_t cache_hits = 0;         // takes (either lane) served from RAM
  std::uint64_t cache_misses = 0;       // takes (either lane) read from disk
  std::uint64_t purged_on_open = 0;     // claimed/ leftovers destroyed
  std::uint64_t bytes_on_disk = 0;      // sum of ready/ file sizes
  // Protocol-v3 lane (slim-wire sessions bound to an OT-pool delta).
  std::size_t sessions_ready_v3 = 0;
  std::uint64_t v3_spooled = 0;
  std::uint64_t v3_claimed = 0;
  // v3 sessions burned because their recorded pool lineage did not
  // match the caller's registry — e.g. sessions spooled by a previous
  // broker process whose garbling delta died with it. Never served.
  std::uint64_t v3_lineage_discarded = 0;
  // Reusable-circuit lane (garble-once artifacts, fetched not claimed).
  std::size_t reusable_ready = 0;          // artifacts in ready/ right now
  std::uint64_t reusable_spooled = 0;      // put_reusable() since open
  std::uint64_t reusable_purged = 0;       // purge_reusable() victims
  std::uint64_t reusable_corrupt_discarded = 0;  // failed fetch checksum
  // MAC evaluations served across all resident artifacts — written to
  // reusable.counts when the spool closes, so the count survives broker
  // restarts with the artifact.
  std::uint64_t reusable_evaluations = 0;

  // One JSON object — the `maxelctl spool` STATS line, and the "spool"
  // member of the serving front's export.
  [[nodiscard]] std::string to_json() const;
};

// One resident reusable artifact, as listed by `maxelctl spool`.
struct ReusableSpoolEntry {
  std::string name;        // reus-*.mxr file name within ready/
  std::string key;         // <fingerprint16hex>-<bits> cache key
  std::uint64_t bytes = 0;
  std::string sha256_hex;  // artifact lineage: checksum of the blob
  std::uint64_t evaluations = 0;  // MAC rounds served off this artifact
};

// Canonical reusable cache key: the first 8 bytes of the circuit
// fingerprint in lowercase hex, a dash, the bit width — one token of
// [0-9a-z-], so it embeds in the artifact's file name.
std::string reusable_artifact_key(
    const std::array<std::uint8_t, 32>& fingerprint, std::size_t bits);

class SessionSpool {
 public:
  // Opens (creating directories as needed): purges claimed/ and tmp/,
  // lists ready/ and removes every name that does not parse.
  explicit SessionSpool(const SpoolConfig& cfg);
  // Closes: writes the reusable evaluation counters if any changed.
  // Never throws; a failed write loses those counts, nothing else.
  ~SessionSpool();

  SessionSpool(const SessionSpool&) = delete;
  SessionSpool& operator=(const SessionSpool&) = delete;

  // Serializes, checksums, stages to tmp/ and renames into ready/;
  // updates the ledger and (space permitting) the lane's RAM cache,
  // which keeps the session moved in here.
  void put(proto::PrecomputedSession s);

  // Claims and returns a cached session if the lane has one, else the
  // oldest ready session on disk, or nullopt when the lane is empty.
  // The on-disk file is renamed into claimed/ before the session is
  // returned and unlinked once it is served. Throws std::runtime_error
  // when a disk copy fails its size or checksum check.
  std::optional<proto::PrecomputedSession> take();

  // Protocol-v3 lane. v3 sessions are only servable from the OT pool
  // whose garbling delta they were garbled under, so each file's name
  // records its pool lineage (proto::delta_lineage) and take_v3 burns —
  // claims and destroys, never serves — any session whose lineage does
  // not match the caller's registry. The same single-use claim
  // discipline, RAM cache and take order as the v2 lane apply.
  void put_v3(proto::PrecomputedSessionV3 s);
  std::optional<proto::PrecomputedSessionV3> take_v3(
      std::uint64_t expected_lineage);

  // Reusable-circuit lane. Artifacts are keyed, not sequenced: one
  // resident artifact per key, replaced (old file destroyed, evaluation
  // counter restarted) by a repeated put_reusable. fetch_reusable reads
  // without claiming — the file stays in ready/ for the next process —
  // and destroys a blob whose checksum no longer matches, returning
  // nullopt so the caller re-garbles. A key is 1 to 64 characters of
  // [0-9a-z-]; put_reusable throws std::invalid_argument on any other.
  // add_reusable_evaluations counts served rounds in memory only.
  void put_reusable(const std::string& key,
                    const std::vector<std::uint8_t>& bytes);
  std::optional<std::vector<std::uint8_t>> fetch_reusable(
      const std::string& key);
  void add_reusable_evaluations(const std::string& key, std::uint64_t rounds);
  // Destroys every resident artifact; returns how many were removed.
  std::size_t purge_reusable();
  [[nodiscard]] std::vector<ReusableSpoolEntry> reusable_entries() const;

  [[nodiscard]] std::size_t ready() const;
  [[nodiscard]] std::size_t ready_v3() const;
  [[nodiscard]] SpoolStats stats() const;
  [[nodiscard]] const std::string& dir() const { return cfg_.dir; }

 private:
  enum Lane : std::size_t { kV2, kV3, kReusable, kLanes };

  // One ready/ file, as its name spells it out.
  struct Entry {
    std::string name;  // file name within ready/
    std::uint64_t bytes = 0;
    std::string sha256_hex;
    std::uint64_t lineage = 0;  // pool lineage (v3 lane)
    std::string key;            // cache key (reusable lane)
    std::uint64_t evals = 0;    // MAC evaluations served (reusable lane)
  };

  template <class Session>
  struct Cached {
    std::string name;  // its file, still in ready/ until claimed
    Session session;
  };

  // The name grammar: name_of spells an entry of `lane` with sequence
  // number `seq`; parse_name reads all three back, false unless the
  // name matches the grammar exactly.
  static std::string name_of(std::size_t lane, std::uint64_t seq,
                             const Entry& e);
  static bool parse_name(const std::string& name, std::size_t& lane,
                         std::uint64_t& seq, Entry& e);

  bool claim_locked(const Entry& e);  // ready/ -> claimed/, true if won
  // Unlinks a reusable artifact and takes it off the ledger; returns
  // the next entry.
  std::deque<Entry>::iterator drop_reusable_locked(
      std::deque<Entry>::iterator it);

  // The one put and the one take behind both single-use lanes.
  template <class Session>
  void put_lane(Session s, std::deque<Cached<Session>>& cache);
  template <class Session>
  std::optional<Session> take_lane(std::deque<Cached<Session>>& cache,
                                   std::uint64_t expected_lineage);

  SpoolConfig cfg_;
  mutable std::mutex mu_;
  std::deque<Entry> files_[kLanes];  // per lane, oldest first
  bool counters_dirty_ = false;      // evaluations added since open
  // One RAM cache per single-use lane, oldest first.
  std::deque<Cached<proto::PrecomputedSession>> cache_;
  std::deque<Cached<proto::PrecomputedSessionV3>> cache_v3_;
  std::atomic<std::uint64_t> next_seq_{0};
  SpoolStats stats_;
};

// A private spool directory under the system temp dir, removed with
// its contents on destruction: what `maxelctl serve` runs on without
// --spool, and what tests and benches give a throwaway server.
class TempSpoolDir {
 public:
  TempSpoolDir();  // throws std::runtime_error if no directory was made
  ~TempSpoolDir();
  TempSpoolDir(const TempSpoolDir&) = delete;
  TempSpoolDir& operator=(const TempSpoolDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace maxel::svc
