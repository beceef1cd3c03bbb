// Disk-backed spool of pre-garbled sessions — the durable half of
// Fig. 1's host-side store. The accelerator (here: a GcCorePool
// producer) keeps depositing sessions; broker workers claim and serve
// them. Unlike the in-memory GarblingBank, the spool survives a host
// kill/restart, and its claim discipline guarantees single-use even
// across a crash.
//
// On-disk layout under the spool directory (see docs/PROTOCOL.md):
//
//   ready/sess-<seq>.mxs    session_io-format files, available to serve
//   ready/v3ss-<seq>.mx3    protocol-v3 lane (v3_session codec); the
//                           index records each file's OT-pool lineage
//   ready/reus-<seq>.mxr    reusable-circuit lane (reusable_io full
//                           framing, secrets included); the index
//                           records each artifact's cache key and the
//                           MAC evaluations served off it
//   claimed/sess-<seq>.mxs  claimed by a worker; purged on open()
//   tmp/                    staging for atomic writes
//   spool.idx               checksummed index of ready/ (text, see below)
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
// The index maps each ready file to its SHA-256 so take() detects
// bit-rot/tampering before a worker streams garbage tables; the index
// itself carries a trailing checksum line and is rebuilt by scanning
// ready/ when missing or corrupt.
//
// A small RAM cache fronts the disk: put() keeps the freshest sessions
// in memory (bounded), and take() serves from it when its backing file
// is still claimable — the disk write stays on the producer thread and
// the hot path skips the read-back + parse entirely.
#pragma once

#include <array>
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
  std::size_t ram_cache_sessions = 4;  // put()-side in-memory front
  bool verify_checksums = true;        // SHA-256 check on disk reads
};

struct SpoolStats {
  std::size_t sessions_ready = 0;    // v2 files in ready/ right now
  std::uint64_t sessions_spooled = 0;   // put() total since open
  std::uint64_t sessions_claimed = 0;   // take() total since open
  std::uint64_t cache_hits = 0;         // take() served from RAM
  std::uint64_t cache_misses = 0;       // take() read back from disk
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
  // MAC evaluations served across all resident artifacts — persisted in
  // the index, so the count survives broker restarts with the artifact.
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
// fingerprint in lowercase hex, a dash, the bit width — one token, so
// it embeds safely in the whitespace-separated index.
std::string reusable_artifact_key(
    const std::array<std::uint8_t, 32>& fingerprint, std::size_t bits);

class SessionSpool {
 public:
  // Opens (creating directories as needed) and reconciles: purges
  // claimed/ and tmp/, loads or rebuilds the index against ready/.
  explicit SessionSpool(const SpoolConfig& cfg);

  SessionSpool(const SessionSpool&) = delete;
  SessionSpool& operator=(const SessionSpool&) = delete;

  // Serializes, checksums, stages to tmp/ and renames into ready/;
  // updates the index and (space permitting) the RAM cache.
  void put(proto::PrecomputedSession s);

  // Claims and returns the oldest ready session, or nullopt when the
  // spool is empty. The on-disk file is renamed into claimed/ before
  // the session is returned and unlinked once the load succeeded.
  std::optional<proto::PrecomputedSession> take();

  // Protocol-v3 lane. v3 sessions are only servable from the OT pool
  // whose garbling delta they were garbled under, so the index records
  // each file's pool lineage (proto::delta_lineage) and take_v3 burns —
  // claims and destroys, never serves — any session whose lineage does
  // not match the caller's registry. The same single-use claim
  // discipline as the v2 lane applies.
  void put_v3(const proto::PrecomputedSessionV3& s);
  std::optional<proto::PrecomputedSessionV3> take_v3(
      std::uint64_t expected_lineage);

  // Reusable-circuit lane. Artifacts are keyed, not sequenced: one
  // resident artifact per key, replaced (old file destroyed, evaluation
  // counter restarted) by a repeated put_reusable. fetch_reusable reads
  // without claiming — the file stays in ready/ for the next process —
  // and destroys a blob whose checksum no longer matches, returning
  // nullopt so the caller re-garbles. add_reusable_evaluations persists
  // the served-rounds counter through the index.
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
  struct Entry {
    std::string name;       // file name within ready/
    std::uint64_t bytes = 0;
    std::string sha256_hex;
    bool v3 = false;            // lane: v3 files carry a lineage column
    std::uint64_t lineage = 0;  // pool lineage (v3 only)
    bool reusable = false;      // lane: reus files carry key + evals
    std::string key;            // reusable cache key
    std::uint64_t evals = 0;    // MAC evaluations served (reusable only)
  };

  void open_or_rebuild();
  void write_index_locked();
  bool claim_locked(const Entry& e);  // ready/ -> claimed/, true if won

  SpoolConfig cfg_;
  mutable std::mutex mu_;
  std::deque<Entry> index_;  // oldest first
  struct Cached {
    std::string name;
    proto::PrecomputedSession session;
  };
  std::deque<Cached> cache_;
  std::uint64_t next_seq_ = 0;
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
