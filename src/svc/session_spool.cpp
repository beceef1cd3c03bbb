#include "svc/session_spool.hpp"

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "crypto/sha256.hpp"
#include "proto/reusable_io.hpp"
#include "proto/session_io.hpp"

namespace maxel::svc {

namespace fs = std::filesystem;

namespace {

constexpr const char* kIndexName = "spool.idx";
constexpr const char* kIndexMagic = "MXSPOOL1";

std::string sha_hex(const std::uint8_t* data, std::size_t n) {
  return crypto::Sha256::hex(crypto::Sha256::hash(data, n));
}

// sess-<12-digit seq>.mxs (v2) / v3ss-<12-digit seq>.mx3 (v3 lane); the
// zero-padded sequence keeps lexicographic order equal to creation
// order within a lane, so "oldest first" is a plain sort.
std::string session_file_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sess-%012llu.mxs",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string session_v3_file_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v3ss-%012llu.mx3",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string reusable_file_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reus-%012llu.mxr",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool is_v3_name(const std::string& name) {
  return name.rfind("v3ss-", 0) == 0;
}

bool is_reusable_name(const std::string& name) {
  return name.rfind("reus-", 0) == 0;
}

// Parses the sequence number back out of a file name (any lane);
// ~0 on mismatch.
std::uint64_t parse_seq(const std::string& name) {
  if (name.size() != 21) return ~0ull;
  if (name.rfind("sess-", 0) == 0) {
    if (name.substr(17) != ".mxs") return ~0ull;
  } else if (is_v3_name(name)) {
    if (name.substr(17) != ".mx3") return ~0ull;
  } else if (is_reusable_name(name)) {
    if (name.substr(17) != ".mxr") return ~0ull;
  } else {
    return ~0ull;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = 5; i < 17; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return ~0ull;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

void remove_all_children(const fs::path& dir, std::uint64_t* count = nullptr) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    fs::remove_all(e.path(), ec);
    if (count) ++*count;
  }
}

}  // namespace

std::string reusable_artifact_key(
    const std::array<std::uint8_t, 32>& fingerprint, std::size_t bits) {
  static const char* hex = "0123456789abcdef";
  std::string key;
  key.reserve(16 + 1 + 4);
  for (std::size_t i = 0; i < 8; ++i) {
    key.push_back(hex[fingerprint[i] >> 4]);
    key.push_back(hex[fingerprint[i] & 0xF]);
  }
  key.push_back('-');
  key += std::to_string(bits);
  return key;
}

SessionSpool::SessionSpool(const SpoolConfig& cfg) : cfg_(cfg) {
  if (cfg_.dir.empty())
    throw std::invalid_argument("SessionSpool: empty spool directory");
  open_or_rebuild();
}

void SessionSpool::open_or_rebuild() {
  const fs::path root(cfg_.dir);
  fs::create_directories(root / "ready");
  fs::create_directories(root / "claimed");
  fs::create_directories(root / "tmp");

  // A claimed session may have been partially streamed before a crash;
  // its labels are burned either way. Destroy, never re-serve.
  remove_all_children(root / "claimed", &stats_.purged_on_open);
  remove_all_children(root / "tmp");

  // Try the checksummed index first.
  bool index_ok = false;
  {
    std::ifstream is(root / kIndexName);
    if (is) {
      std::ostringstream body;
      std::string line, sum_line;
      bool magic_ok = false;
      while (std::getline(is, line)) {
        if (!magic_ok) {
          magic_ok = line == kIndexMagic;
          if (!magic_ok) break;
          body << line << "\n";
          continue;
        }
        if (line.rfind("SUM ", 0) == 0) {
          sum_line = line.substr(4);
          break;
        }
        body << line << "\n";
      }
      const std::string content = body.str();
      if (magic_ok && !sum_line.empty() &&
          sum_line == sha_hex(reinterpret_cast<const std::uint8_t*>(
                                  content.data()),
                              content.size())) {
        index_ok = true;
        std::istringstream lines(content);
        std::string l;
        std::getline(lines, l);  // magic
        while (std::getline(lines, l)) {
          std::istringstream f(l);
          Entry e;
          if (!(f >> e.name >> e.bytes >> e.sha256_hex)) {
            index_ok = false;
            break;
          }
          e.v3 = is_v3_name(e.name);
          e.reusable = is_reusable_name(e.name);
          // v3 lines carry a fourth column: the pool lineage the
          // session was garbled under. Reusable lines carry the cache
          // key and the persisted evaluations-served counter.
          if (e.v3 && !(f >> e.lineage)) {
            index_ok = false;
            break;
          }
          if (e.reusable && !(f >> e.key >> e.evals)) {
            index_ok = false;
            break;
          }
          index_.push_back(std::move(e));
        }
        if (!index_ok) index_.clear();
      }
    }
  }

  // Reconcile against ready/ — the directory is ground truth for which
  // sessions exist; the index contributes the checksums. Entries whose
  // file vanished are dropped; files the index missed are (re)hashed.
  std::deque<Entry> reconciled;
  std::vector<std::string> on_disk;
  for (const auto& e : fs::directory_iterator(root / "ready"))
    if (e.is_regular_file() && parse_seq(e.path().filename().string()) != ~0ull)
      on_disk.push_back(e.path().filename().string());
  std::sort(on_disk.begin(), on_disk.end());
  for (const auto& name : on_disk) {
    const auto it = std::find_if(index_.begin(), index_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    if (index_ok && it != index_.end()) {
      reconciled.push_back(*it);
    } else {
      std::ifstream f(root / "ready" / name, std::ios::binary);
      std::ostringstream bytes;
      bytes << f.rdbuf();
      const std::string b = bytes.str();
      Entry e;
      e.name = name;
      e.bytes = b.size();
      e.sha256_hex = sha_hex(
          reinterpret_cast<const std::uint8_t*>(b.data()), b.size());
      if (is_v3_name(name)) {
        // The lineage column was lost with the index; recover it from
        // the file itself, or destroy a file that no longer parses.
        try {
          e.lineage = proto::parse_session_v3(
                          reinterpret_cast<const std::uint8_t*>(b.data()),
                          b.size())
                          .pool_lineage;
          e.v3 = true;
        } catch (const std::exception&) {
          std::error_code ec;
          fs::remove(root / "ready" / name, ec);
          continue;
        }
      } else if (is_reusable_name(name)) {
        // The key (and, lost with the index, the evaluation counter)
        // is recovered from the artifact itself; a blob that no longer
        // parses is destroyed rather than ever offered to a broker.
        try {
          const gc::ReusableCircuit rc = proto::parse_reusable(
              reinterpret_cast<const std::uint8_t*>(b.data()), b.size());
          e.key =
              reusable_artifact_key(rc.view.fingerprint, rc.view.bit_width);
          e.reusable = true;
          e.evals = 0;
        } catch (const std::exception&) {
          std::error_code ec;
          fs::remove(root / "ready" / name, ec);
          continue;
        }
      }
      reconciled.push_back(std::move(e));
    }
    next_seq_ = std::max(next_seq_, parse_seq(name) + 1);
  }
  index_ = std::move(reconciled);
  stats_.sessions_ready = 0;
  stats_.sessions_ready_v3 = 0;
  stats_.reusable_ready = 0;
  stats_.reusable_evaluations = 0;
  stats_.bytes_on_disk = 0;
  for (const auto& e : index_) {
    stats_.bytes_on_disk += e.bytes;
    if (e.v3) {
      ++stats_.sessions_ready_v3;
    } else if (e.reusable) {
      ++stats_.reusable_ready;
      stats_.reusable_evaluations += e.evals;
    } else {
      ++stats_.sessions_ready;
    }
  }
  write_index_locked();
}

void SessionSpool::write_index_locked() {
  const fs::path root(cfg_.dir);
  std::ostringstream body;
  body << kIndexMagic << "\n";
  for (const auto& e : index_) {
    body << e.name << " " << e.bytes << " " << e.sha256_hex;
    if (e.v3) body << " " << e.lineage;
    if (e.reusable) body << " " << e.key << " " << e.evals;
    body << "\n";
  }
  const std::string content = body.str();
  const fs::path tmp = root / "tmp" / "spool.idx.tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os << content << "SUM "
       << sha_hex(reinterpret_cast<const std::uint8_t*>(content.data()),
                  content.size())
       << "\n";
    if (!os) throw std::runtime_error("SessionSpool: cannot write index");
  }
  fs::rename(tmp, root / kIndexName);
}

void SessionSpool::put(proto::PrecomputedSession s) {
  const std::vector<std::uint8_t> bytes = proto::serialize_session(s);
  const std::string digest = sha_hex(bytes.data(), bytes.size());

  const std::lock_guard<std::mutex> lock(mu_);
  const std::string name = session_file_name(next_seq_++);
  const fs::path root(cfg_.dir);
  const fs::path tmp = root / "tmp" / name;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os) throw std::runtime_error("SessionSpool: cannot write " + name);
  }
  // The rename is the commit point: ready/ only ever holds complete files.
  fs::rename(tmp, root / "ready" / name);
  Entry entry;
  entry.name = name;
  entry.bytes = bytes.size();
  entry.sha256_hex = digest;
  index_.push_back(std::move(entry));
  ++stats_.sessions_spooled;
  ++stats_.sessions_ready;
  stats_.bytes_on_disk += bytes.size();
  write_index_locked();

  if (cache_.size() < cfg_.ram_cache_sessions)
    cache_.push_back(Cached{name, std::move(s)});
}

bool SessionSpool::claim_locked(const Entry& e) {
  const fs::path root(cfg_.dir);
  std::error_code ec;
  fs::rename(root / "ready" / e.name, root / "claimed" / e.name, ec);
  return !ec;
}

std::optional<proto::PrecomputedSession> SessionSpool::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path root(cfg_.dir);
  for (;;) {
    const auto it =
        std::find_if(index_.begin(), index_.end(),
                     [](const Entry& e) { return !e.v3 && !e.reusable; });
    if (it == index_.end()) return std::nullopt;
    Entry e = *it;
    index_.erase(it);
    if (!claim_locked(e)) {
      // Somebody else (another process sharing the directory) won the
      // rename, or the file vanished; either way it is not ours.
      --stats_.sessions_ready;
      continue;
    }
    --stats_.sessions_ready;
    stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, e.bytes);
    ++stats_.sessions_claimed;
    write_index_locked();

    // RAM-cache hit: the bytes never leave memory; the claim above
    // already burned the on-disk copy.
    const auto cached = std::find_if(
        cache_.begin(), cache_.end(),
        [&](const Cached& c) { return c.name == e.name; });
    if (cached != cache_.end()) {
      proto::PrecomputedSession s = std::move(cached->session);
      cache_.erase(cached);
      ++stats_.cache_hits;
      std::error_code ec;
      fs::remove(root / "claimed" / e.name, ec);
      return s;
    }

    ++stats_.cache_misses;
    std::ifstream is(root / "claimed" / e.name, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string bytes = buf.str();
    if (cfg_.verify_checksums &&
        sha_hex(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                bytes.size()) != e.sha256_hex)
      throw std::runtime_error("SessionSpool: checksum mismatch on " + e.name +
                               " (bit rot or tampering)");
    proto::PrecomputedSession s = proto::parse_session(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    std::error_code ec;
    fs::remove(root / "claimed" / e.name, ec);
    return s;
  }
  return std::nullopt;
}

void SessionSpool::put_v3(const proto::PrecomputedSessionV3& s) {
  const std::vector<std::uint8_t> bytes = proto::serialize_session_v3(s);
  const std::string digest = sha_hex(bytes.data(), bytes.size());

  const std::lock_guard<std::mutex> lock(mu_);
  const std::string name = session_v3_file_name(next_seq_++);
  const fs::path root(cfg_.dir);
  const fs::path tmp = root / "tmp" / name;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os) throw std::runtime_error("SessionSpool: cannot write " + name);
  }
  fs::rename(tmp, root / "ready" / name);
  Entry entry;
  entry.name = name;
  entry.bytes = bytes.size();
  entry.sha256_hex = digest;
  entry.v3 = true;
  entry.lineage = s.pool_lineage;
  index_.push_back(std::move(entry));
  ++stats_.v3_spooled;
  ++stats_.sessions_ready_v3;
  stats_.bytes_on_disk += bytes.size();
  write_index_locked();
}

std::optional<proto::PrecomputedSessionV3> SessionSpool::take_v3(
    std::uint64_t expected_lineage) {
  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path root(cfg_.dir);
  for (;;) {
    const auto it = std::find_if(index_.begin(), index_.end(),
                                 [](const Entry& e) { return e.v3; });
    if (it == index_.end()) return std::nullopt;
    Entry e = *it;
    index_.erase(it);
    --stats_.sessions_ready_v3;
    if (!claim_locked(e)) continue;
    stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, e.bytes);
    write_index_locked();

    std::error_code ec;
    if (e.lineage != expected_lineage) {
      // Garbled under a pool delta this process does not hold (e.g. a
      // previous broker's registry). Unservable — burn it and move on.
      ++stats_.v3_lineage_discarded;
      fs::remove(root / "claimed" / e.name, ec);
      continue;
    }

    std::ifstream is(root / "claimed" / e.name, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string bytes = buf.str();
    if (cfg_.verify_checksums &&
        sha_hex(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                bytes.size()) != e.sha256_hex)
      throw std::runtime_error("SessionSpool: checksum mismatch on " + e.name +
                               " (bit rot or tampering)");
    proto::PrecomputedSessionV3 s = proto::parse_session_v3(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    ++stats_.v3_claimed;
    fs::remove(root / "claimed" / e.name, ec);
    return s;
  }
}

void SessionSpool::put_reusable(const std::string& key,
                                const std::vector<std::uint8_t>& bytes) {
  if (key.empty() || key.find_first_of(" \t\n") != std::string::npos)
    throw std::invalid_argument("SessionSpool: bad reusable key");
  const std::string digest = sha_hex(bytes.data(), bytes.size());

  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path root(cfg_.dir);
  // One resident artifact per key: a repeated put replaces (re-garble
  // after corruption, operator-forced refresh) and the evaluation
  // counter restarts with the new artifact's lineage.
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->reusable && it->key == key) {
      std::error_code ec;
      fs::remove(root / "ready" / it->name, ec);
      stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, it->bytes);
      stats_.reusable_evaluations -=
          std::min(stats_.reusable_evaluations, it->evals);
      --stats_.reusable_ready;
      it = index_.erase(it);
    } else {
      ++it;
    }
  }
  const std::string name = reusable_file_name(next_seq_++);
  const fs::path tmp = root / "tmp" / name;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os) throw std::runtime_error("SessionSpool: cannot write " + name);
  }
  fs::rename(tmp, root / "ready" / name);
  Entry e;
  e.name = name;
  e.bytes = bytes.size();
  e.sha256_hex = digest;
  e.reusable = true;
  e.key = key;
  index_.push_back(std::move(e));
  ++stats_.reusable_spooled;
  ++stats_.reusable_ready;
  stats_.bytes_on_disk += bytes.size();
  write_index_locked();
}

std::optional<std::vector<std::uint8_t>> SessionSpool::fetch_reusable(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path root(cfg_.dir);
  const auto it = std::find_if(
      index_.begin(), index_.end(),
      [&](const Entry& e) { return e.reusable && e.key == key; });
  if (it == index_.end()) return std::nullopt;

  std::ifstream is(root / "ready" / it->name, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string b = buf.str();
  const bool corrupt =
      !is.good() ||
      (cfg_.verify_checksums &&
       sha_hex(reinterpret_cast<const std::uint8_t*>(b.data()), b.size()) !=
           it->sha256_hex);
  if (corrupt) {
    // Bit rot or tampering: destroy the blob so it can never be served,
    // and let the caller re-garble under the same key.
    std::error_code ec;
    fs::remove(root / "ready" / it->name, ec);
    stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, it->bytes);
    stats_.reusable_evaluations -=
        std::min(stats_.reusable_evaluations, it->evals);
    --stats_.reusable_ready;
    ++stats_.reusable_corrupt_discarded;
    index_.erase(it);
    write_index_locked();
    return std::nullopt;
  }
  return std::vector<std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(b.data()),
      reinterpret_cast<const std::uint8_t*>(b.data()) + b.size());
}

void SessionSpool::add_reusable_evaluations(const std::string& key,
                                            std::uint64_t rounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find_if(
      index_.begin(), index_.end(),
      [&](const Entry& e) { return e.reusable && e.key == key; });
  if (it == index_.end()) return;  // artifact purged under us: drop the count
  it->evals += rounds;
  stats_.reusable_evaluations += rounds;
  write_index_locked();
}

std::size_t SessionSpool::purge_reusable() {
  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path root(cfg_.dir);
  std::size_t removed = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->reusable) {
      std::error_code ec;
      fs::remove(root / "ready" / it->name, ec);
      stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, it->bytes);
      ++stats_.reusable_purged;
      ++removed;
      it = index_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.reusable_ready = 0;
  stats_.reusable_evaluations = 0;
  write_index_locked();
  return removed;
}

std::vector<ReusableSpoolEntry> SessionSpool::reusable_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReusableSpoolEntry> out;
  for (const auto& e : index_)
    if (e.reusable)
      out.push_back(
          ReusableSpoolEntry{e.name, e.key, e.bytes, e.sha256_hex, e.evals});
  return out;
}

std::size_t SessionSpool::ready() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_.sessions_ready;
}

std::size_t SessionSpool::ready_v3() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_.sessions_ready_v3;
}

SpoolStats SessionSpool::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string SpoolStats::to_json() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"ready\":%zu,\"spooled\":%llu,\"claimed\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"purged_on_open\":%llu,"
      "\"bytes_on_disk\":%llu,\"ready_v3\":%zu,\"v3_spooled\":%llu,"
      "\"v3_claimed\":%llu,\"v3_lineage_discarded\":%llu,"
      "\"reusable_ready\":%zu,\"reusable_spooled\":%llu,"
      "\"reusable_purged\":%llu,\"reusable_corrupt_discarded\":%llu,"
      "\"reusable_evaluations\":%llu}",
      sessions_ready, static_cast<unsigned long long>(sessions_spooled),
      static_cast<unsigned long long>(sessions_claimed),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(purged_on_open),
      static_cast<unsigned long long>(bytes_on_disk), sessions_ready_v3,
      static_cast<unsigned long long>(v3_spooled),
      static_cast<unsigned long long>(v3_claimed),
      static_cast<unsigned long long>(v3_lineage_discarded), reusable_ready,
      static_cast<unsigned long long>(reusable_spooled),
      static_cast<unsigned long long>(reusable_purged),
      static_cast<unsigned long long>(reusable_corrupt_discarded),
      static_cast<unsigned long long>(reusable_evaluations));
  return buf;
}

TempSpoolDir::TempSpoolDir() {
  std::string path =
      (fs::temp_directory_path() / "maxel_spool_XXXXXX").string();
  if (::mkdtemp(path.data()) == nullptr)
    throw std::runtime_error("cannot create a temporary spool under " +
                             fs::temp_directory_path().string());
  path_ = std::move(path);
}

TempSpoolDir::~TempSpoolDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace maxel::svc
