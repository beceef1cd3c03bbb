#include "svc/session_spool.hpp"

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

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

// Reads a file of exactly `bytes` bytes into a buffer of that size; false
// when it cannot be opened or is shorter or longer than that.
bool read_exact(const fs::path& path, std::uint64_t bytes,
                std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out.resize(bytes);
  std::size_t got = 0;
  ssize_t r = 1;
  while (got < out.size() && r > 0) {
    r = ::read(fd, out.data() + got, out.size() - got);
    if (r > 0) got += static_cast<std::size_t>(r);
    if (r < 0 && errno == EINTR) r = 1;
  }
  // One more byte would mean the file outgrew its indexed size.
  std::uint8_t extra = 0;
  do r = ::read(fd, &extra, 1);
  while (r < 0 && errno == EINTR);
  ::close(fd);
  return got == out.size() && r == 0;
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os)
    throw std::runtime_error("SessionSpool: cannot write " +
                             path.filename().string());
}

// What differs between the two single-use lanes; everything else is
// one put and one take.
template <class Session>
struct Lane;

template <>
struct Lane<proto::PrecomputedSession> {
  static constexpr bool kV3 = false;
  static std::string file_name(std::uint64_t seq) {
    return session_file_name(seq);
  }
  static std::vector<std::uint8_t> serialize(
      const proto::PrecomputedSession& s) {
    return proto::serialize_session(s);
  }
  static proto::PrecomputedSession parse(const std::vector<std::uint8_t>& b) {
    return proto::parse_session(b.data(), b.size());
  }
  static std::size_t& ready(SpoolStats& st) { return st.sessions_ready; }
  static std::uint64_t& spooled(SpoolStats& st) { return st.sessions_spooled; }
  static std::uint64_t& claimed(SpoolStats& st) { return st.sessions_claimed; }
};

template <>
struct Lane<proto::PrecomputedSessionV3> {
  static constexpr bool kV3 = true;
  static std::string file_name(std::uint64_t seq) {
    return session_v3_file_name(seq);
  }
  static std::vector<std::uint8_t> serialize(
      const proto::PrecomputedSessionV3& s) {
    return proto::serialize_session_v3(s);
  }
  static proto::PrecomputedSessionV3 parse(
      const std::vector<std::uint8_t>& b) {
    return proto::parse_session_v3(b.data(), b.size());
  }
  static std::size_t& ready(SpoolStats& st) { return st.sessions_ready_v3; }
  static std::uint64_t& spooled(SpoolStats& st) { return st.v3_spooled; }
  static std::uint64_t& claimed(SpoolStats& st) { return st.v3_claimed; }
};

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
    next_seq_ = std::max(next_seq_.load(), parse_seq(name) + 1);
    const auto it = std::find_if(index_.begin(), index_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    if (index_ok && it != index_.end()) {
      reconciled.push_back(*it);
    } else {
      const fs::path path = root / "ready" / name;
      std::error_code size_ec;
      const std::uint64_t size = fs::file_size(path, size_ec);
      std::vector<std::uint8_t> b;
      if (size_ec || !read_exact(path, size, b)) continue;
      Entry e;
      e.name = name;
      e.bytes = b.size();
      e.sha256_hex = sha_hex(b.data(), b.size());
      if (is_v3_name(name)) {
        // The lineage column was lost with the index; recover it from
        // the file itself, or destroy a file that no longer parses.
        try {
          e.lineage = proto::parse_session_v3(b.data(), b.size()).pool_lineage;
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
          const gc::ReusableCircuit rc =
              proto::parse_reusable(b.data(), b.size());
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

bool SessionSpool::claim_locked(const Entry& e) {
  const fs::path root(cfg_.dir);
  std::error_code ec;
  fs::rename(root / "ready" / e.name, root / "claimed" / e.name, ec);
  return !ec;
}

template <class Session>
void SessionSpool::put_lane(Session s, std::deque<Cached<Session>>& cache) {
  using L = Lane<Session>;
  const std::vector<std::uint8_t> bytes = L::serialize(s);
  Entry entry;
  entry.name = L::file_name(next_seq_++);
  entry.bytes = bytes.size();
  entry.sha256_hex = sha_hex(bytes.data(), bytes.size());
  entry.v3 = L::kV3;
  if constexpr (L::kV3) entry.lineage = s.pool_lineage;
  const fs::path root(cfg_.dir);
  write_file(root / "tmp" / entry.name, bytes);
  // The rename is the commit point: ready/ only ever holds complete
  // files, and a take only sees the file once it is indexed below.
  fs::rename(root / "tmp" / entry.name, root / "ready" / entry.name);

  const std::lock_guard<std::mutex> lock(mu_);
  ++L::spooled(stats_);
  ++L::ready(stats_);
  stats_.bytes_on_disk += entry.bytes;
  if (cache.size() < cfg_.ram_cache_sessions)
    cache.push_back(Cached<Session>{entry.name, std::move(s)});
  index_.push_back(std::move(entry));
  write_index_locked();
}

template <class Session>
std::optional<Session> SessionSpool::take_lane(
    std::deque<Cached<Session>>& cache, std::uint64_t expected_lineage) {
  using L = Lane<Session>;
  const fs::path root(cfg_.dir);
  for (;;) {
    Entry e;
    std::optional<Session> hit;
    bool burn = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      // A cached session first, else the lane's oldest file on disk.
      auto it = index_.end();
      if (!cache.empty()) {
        const std::string name = std::move(cache.front().name);
        hit = std::move(cache.front().session);
        cache.pop_front();
        it = std::find_if(index_.begin(), index_.end(),
                          [&](const Entry& x) { return x.name == name; });
        if (it == index_.end()) continue;  // unindexed: never claimable
      } else {
        it = std::find_if(index_.begin(), index_.end(), [](const Entry& x) {
          return x.v3 == L::kV3 && !x.reusable;
        });
        if (it == index_.end()) return std::nullopt;
      }
      e = std::move(*it);
      index_.erase(it);
      --L::ready(stats_);
      // Somebody else (another process sharing the directory) may have
      // won the rename, or the file vanished; either way it is not ours.
      if (!claim_locked(e)) continue;
      stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, e.bytes);
      write_index_locked();
      // Garbled under a pool delta this process does not hold (e.g. a
      // previous broker's registry): unservable, so burn it.
      burn = L::kV3 && e.lineage != expected_lineage;
      if (burn) {
        ++stats_.v3_lineage_discarded;
      } else if (hit) {
        ++stats_.cache_hits;
        ++L::claimed(stats_);
      } else {
        ++stats_.cache_misses;
      }
    }

    // The claim above already took the file out of ready/; from here on
    // nothing needs the lock.
    const fs::path claimed = root / "claimed" / e.name;
    std::error_code ec;
    if (burn) {
      fs::remove(claimed, ec);
      continue;
    }
    if (hit) {
      fs::remove(claimed, ec);
      return hit;
    }
    std::vector<std::uint8_t> bytes;
    if (!read_exact(claimed, e.bytes, bytes) ||
        (cfg_.verify_checksums &&
         sha_hex(bytes.data(), bytes.size()) != e.sha256_hex))
      throw std::runtime_error("SessionSpool: size or checksum mismatch on " +
                               e.name + " (bit rot or tampering)");
    Session s = L::parse(bytes);
    fs::remove(claimed, ec);
    const std::lock_guard<std::mutex> lock(mu_);
    ++L::claimed(stats_);
    return s;
  }
}

void SessionSpool::put(proto::PrecomputedSession s) {
  put_lane(std::move(s), cache_);
}

std::optional<proto::PrecomputedSession> SessionSpool::take() {
  return take_lane(cache_, 0);
}

void SessionSpool::put_v3(proto::PrecomputedSessionV3 s) {
  put_lane(std::move(s), cache_v3_);
}

std::optional<proto::PrecomputedSessionV3> SessionSpool::take_v3(
    std::uint64_t expected_lineage) {
  return take_lane(cache_v3_, expected_lineage);
}

void SessionSpool::put_reusable(const std::string& key,
                                const std::vector<std::uint8_t>& bytes) {
  if (key.empty() || key.find_first_of(" \t\n") != std::string::npos)
    throw std::invalid_argument("SessionSpool: bad reusable key");
  Entry e;
  e.name = reusable_file_name(next_seq_++);
  e.bytes = bytes.size();
  e.sha256_hex = sha_hex(bytes.data(), bytes.size());
  e.reusable = true;
  e.key = key;
  const fs::path root(cfg_.dir);
  write_file(root / "tmp" / e.name, bytes);
  fs::rename(root / "tmp" / e.name, root / "ready" / e.name);

  const std::lock_guard<std::mutex> lock(mu_);
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
  index_.push_back(std::move(e));
  ++stats_.reusable_spooled;
  ++stats_.reusable_ready;
  stats_.bytes_on_disk += bytes.size();
  write_index_locked();
}

std::optional<std::vector<std::uint8_t>> SessionSpool::fetch_reusable(
    const std::string& key) {
  const fs::path root(cfg_.dir);
  for (;;) {
    Entry e;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = std::find_if(
          index_.begin(), index_.end(),
          [&](const Entry& x) { return x.reusable && x.key == key; });
      if (it == index_.end()) return std::nullopt;
      e = *it;
    }
    std::vector<std::uint8_t> bytes;
    if (read_exact(root / "ready" / e.name, e.bytes, bytes) &&
        (!cfg_.verify_checksums ||
         sha_hex(bytes.data(), bytes.size()) == e.sha256_hex))
      return bytes;

    const std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find_if(index_.begin(), index_.end(),
                     [&](const Entry& x) { return x.name == e.name; });
    if (it == index_.end()) continue;  // replaced or purged meanwhile
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
