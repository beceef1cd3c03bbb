#include "svc/session_spool.hpp"

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "crypto/sha256.hpp"
#include "proto/session_io.hpp"

namespace maxel::svc {

namespace fs = std::filesystem;

namespace {

// The reusable lane's evaluation counters, one "<file name> <count>"
// line per artifact, written when a spool closes.
constexpr const char* kCountersName = "reusable.counts";

// Per lane (SessionSpool::Lane order): the name's prefix and extension.
constexpr const char* kPrefix[] = {"sess-", "v3ss-", "reus-"};
constexpr const char* kExt[] = {".mxs", ".mx3", ".mxr"};
constexpr std::size_t kPrefixLen = 5, kExtLen = 4;
constexpr std::size_t kHexU64 = 16, kHexSha = 64;
constexpr std::size_t kMaxKey = 64;

std::string sha_hex(const std::uint8_t* data, std::size_t n) {
  return crypto::Sha256::hex(crypto::Sha256::hash(data, n));
}

void append_hex(std::string& out, std::uint64_t v) {
  char buf[kHexU64 + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  out.append(buf, kHexU64);
}

bool is_lower_hex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

// Exactly kHexU64 lowercase hex digits at s[at..].
bool parse_hex(const std::string& s, std::size_t at, std::uint64_t& v) {
  if (s.size() < at + kHexU64) return false;
  v = 0;
  for (std::size_t i = at; i < at + kHexU64; ++i) {
    const char c = s[i];
    if (!is_lower_hex(c)) return false;
    v = v << 4 | static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return true;
}

bool is_key(const std::string& key) {
  return !key.empty() && key.size() <= kMaxKey &&
         std::all_of(key.begin(), key.end(), [](char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || c == '-';
         });
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
  // One more byte would mean the file outgrew the size in its name.
  std::uint8_t extra = 0;
  do r = ::read(fd, &extra, 1);
  while (r < 0 && errno == EINTR);
  ::close(fd);
  return got == out.size() && r == 0;
}

// Writes tmp/<name> and renames it to `dest`, so `dest` only ever holds
// a complete file.
void publish(const fs::path& root, const std::string& name,
             const std::uint8_t* data, std::size_t n, const fs::path& dest) {
  const fs::path tmp = root / "tmp" / name;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(n));
    if (!os)
      throw std::runtime_error("SessionSpool: cannot write " + name);
  }
  fs::rename(tmp, dest);
}

// What differs between the two single-use lanes; everything else is
// one put and one take.
template <class Session>
struct LaneOps;

template <>
struct LaneOps<proto::PrecomputedSession> {
  static constexpr std::size_t kLane = 0;  // SessionSpool::kV2
  static std::vector<std::uint8_t> serialize(
      const proto::PrecomputedSession& s) {
    return proto::serialize_session(s);
  }
  static proto::PrecomputedSession parse(const std::vector<std::uint8_t>& b) {
    return proto::parse_session(b.data(), b.size());
  }
  static std::uint64_t lineage(const proto::PrecomputedSession&) { return 0; }
  static std::size_t& ready(SpoolStats& st) { return st.sessions_ready; }
  static std::uint64_t& spooled(SpoolStats& st) { return st.sessions_spooled; }
  static std::uint64_t& claimed(SpoolStats& st) { return st.sessions_claimed; }
};

template <>
struct LaneOps<proto::PrecomputedSessionV3> {
  static constexpr std::size_t kLane = 1;  // SessionSpool::kV3
  static std::vector<std::uint8_t> serialize(
      const proto::PrecomputedSessionV3& s) {
    return proto::serialize_session_v3(s);
  }
  static proto::PrecomputedSessionV3 parse(
      const std::vector<std::uint8_t>& b) {
    return proto::parse_session_v3(b.data(), b.size());
  }
  static std::uint64_t lineage(const proto::PrecomputedSessionV3& s) {
    return s.pool_lineage;
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

// <prefix><seq>-<bytes>-[<lineage>-|<key>-]<sha256><ext>
std::string SessionSpool::name_of(std::size_t lane, std::uint64_t seq,
                                  const Entry& e) {
  std::string n = kPrefix[lane];
  append_hex(n, seq);
  n += '-';
  append_hex(n, e.bytes);
  n += '-';
  if (lane == kV3) {
    append_hex(n, e.lineage);
    n += '-';
  } else if (lane == kReusable) {
    n += e.key;
    n += '-';
  }
  n += e.sha256_hex;
  n += kExt[lane];
  return n;
}

bool SessionSpool::parse_name(const std::string& name, std::size_t& lane,
                              std::uint64_t& seq, Entry& e) {
  constexpr std::size_t kSeqAt = kPrefixLen, kBytesAt = kSeqAt + kHexU64 + 1,
                        kTagAt = kBytesAt + kHexU64 + 1;
  if (name.size() < kTagAt + kHexSha + kExtLen) return false;
  for (lane = 0; lane < kLanes; ++lane)
    if (name.compare(0, kPrefixLen, kPrefix[lane]) == 0 &&
        name.compare(name.size() - kExtLen, kExtLen, kExt[lane]) == 0)
      break;
  if (lane == kLanes) return false;
  const std::size_t sha_at = name.size() - kExtLen - kHexSha;
  if (!parse_hex(name, kSeqAt, seq) || name[kSeqAt + kHexU64] != '-' ||
      !parse_hex(name, kBytesAt, e.bytes) || name[kBytesAt + kHexU64] != '-' ||
      !std::all_of(name.begin() + static_cast<std::ptrdiff_t>(sha_at),
                   name.end() - kExtLen, is_lower_hex))
    return false;
  // Between the byte count and the checksum: nothing (v2), the lineage
  // (v3) or the key (reusable), each followed by a dash.
  const std::size_t tag_len = sha_at - kTagAt;
  if (lane == kV2) {
    if (tag_len != 0) return false;
  } else {
    if (tag_len < 2 || name[sha_at - 1] != '-') return false;
    if (lane == kV3) {
      if (tag_len != kHexU64 + 1 || !parse_hex(name, kTagAt, e.lineage))
        return false;
    } else {
      e.key = name.substr(kTagAt, tag_len - 1);
      if (!is_key(e.key)) return false;
    }
  }
  e.name = name;
  e.sha256_hex = name.substr(sha_at, kHexSha);
  return true;
}

SessionSpool::SessionSpool(const SpoolConfig& cfg) : cfg_(cfg) {
  if (cfg_.dir.empty())
    throw std::invalid_argument("SessionSpool: empty spool directory");
  const fs::path root(cfg_.dir);
  fs::create_directories(root / "ready");
  fs::create_directories(root / "claimed");
  fs::create_directories(root / "tmp");

  // A claimed session may have been partially streamed before a crash;
  // its labels are burned either way. Destroy, never re-serve.
  remove_all_children(root / "claimed", &stats_.purged_on_open);
  remove_all_children(root / "tmp");
  // An older build's index: the names below now carry what it held.
  std::error_code ec;
  if (fs::remove(root / "spool.idx", ec)) ++stats_.purged_on_open;

  // The names are the index. Whatever does not parse (an older build's
  // sess-<seq>.mxs, a stray file) is only a cache of something that can
  // be garbled again: remove it.
  std::vector<std::string> names;
  for (const auto& f : fs::directory_iterator(root / "ready"))
    names.push_back(f.path().filename().string());
  std::sort(names.begin(), names.end());
  for (const auto& name : names) {
    std::size_t lane = 0;
    std::uint64_t seq = 0;
    Entry e;
    if (!parse_name(name, lane, seq, e)) {
      fs::remove_all(root / "ready" / name, ec);
      ++stats_.purged_on_open;
      continue;
    }
    next_seq_ = std::max(next_seq_.load(), seq + 1);
    stats_.bytes_on_disk += e.bytes;
    files_[lane].push_back(std::move(e));
  }

  // The counters file names each artifact it counts; a line whose
  // artifact is gone is stale and ignored. Missing or unreadable: zero.
  std::ifstream is(root / kCountersName);
  std::string name;
  std::uint64_t evals = 0;
  while (is >> name >> evals)
    for (Entry& e : files_[kReusable])
      if (e.name == name) e.evals = evals;

  stats_.sessions_ready = files_[kV2].size();
  stats_.sessions_ready_v3 = files_[kV3].size();
  stats_.reusable_ready = files_[kReusable].size();
  for (const Entry& e : files_[kReusable])
    stats_.reusable_evaluations += e.evals;
}

SessionSpool::~SessionSpool() {
  if (!counters_dirty_) return;
  try {
    std::string body;
    for (const Entry& e : files_[kReusable])
      body += e.name + " " + std::to_string(e.evals) + "\n";
    const fs::path root(cfg_.dir);
    publish(root, kCountersName,
            reinterpret_cast<const std::uint8_t*>(body.data()), body.size(),
            root / kCountersName);
  } catch (const std::exception&) {
    // Telemetry only: a failed write costs the counts since open.
  }
}

bool SessionSpool::claim_locked(const Entry& e) {
  const fs::path root(cfg_.dir);
  std::error_code ec;
  fs::rename(root / "ready" / e.name, root / "claimed" / e.name, ec);
  return !ec;
}

template <class Session>
void SessionSpool::put_lane(Session s, std::deque<Cached<Session>>& cache) {
  using L = LaneOps<Session>;
  const std::vector<std::uint8_t> bytes = L::serialize(s);
  Entry e;
  e.bytes = bytes.size();
  e.sha256_hex = sha_hex(bytes.data(), bytes.size());
  e.lineage = L::lineage(s);
  e.name = name_of(L::kLane, next_seq_++, e);
  const fs::path root(cfg_.dir);
  // The rename is the commit point: ready/ only ever holds complete
  // files, and a take only sees the file once it is listed below.
  publish(root, e.name, bytes.data(), bytes.size(), root / "ready" / e.name);

  const std::lock_guard<std::mutex> lock(mu_);
  ++L::spooled(stats_);
  ++L::ready(stats_);
  stats_.bytes_on_disk += e.bytes;
  if (cache.size() < cfg_.ram_cache_sessions)
    cache.push_back(Cached<Session>{e.name, std::move(s)});
  files_[L::kLane].push_back(std::move(e));
}

template <class Session>
std::optional<Session> SessionSpool::take_lane(
    std::deque<Cached<Session>>& cache, std::uint64_t expected_lineage) {
  using L = LaneOps<Session>;
  std::deque<Entry>& files = files_[L::kLane];
  const fs::path root(cfg_.dir);
  for (;;) {
    Entry e;
    std::optional<Session> hit;
    bool burn = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      // A cached session first, else the lane's oldest file on disk.
      auto it = files.begin();
      if (!cache.empty()) {
        const std::string name = std::move(cache.front().name);
        hit = std::move(cache.front().session);
        cache.pop_front();
        it = std::find_if(files.begin(), files.end(),
                          [&](const Entry& x) { return x.name == name; });
        if (it == files.end()) continue;  // unlisted: never claimable
      } else if (files.empty()) {
        return std::nullopt;
      }
      e = std::move(*it);
      files.erase(it);
      --L::ready(stats_);
      stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, e.bytes);
      // Somebody else (another process sharing the directory) may have
      // won the rename, or the file vanished; either way it is not ours.
      if (!claim_locked(e)) continue;
      // Garbled under a pool delta this process does not hold (e.g. a
      // previous broker's registry): unservable, so burn it.
      burn = L::kLane == kV3 && e.lineage != expected_lineage;
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

std::deque<SessionSpool::Entry>::iterator SessionSpool::drop_reusable_locked(
    std::deque<Entry>::iterator it) {
  std::error_code ec;
  fs::remove(fs::path(cfg_.dir) / "ready" / it->name, ec);
  stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, it->bytes);
  stats_.reusable_evaluations -=
      std::min(stats_.reusable_evaluations, it->evals);
  --stats_.reusable_ready;
  return files_[kReusable].erase(it);
}

void SessionSpool::put_reusable(const std::string& key,
                                const std::vector<std::uint8_t>& bytes) {
  if (!is_key(key))
    throw std::invalid_argument("SessionSpool: bad reusable key");
  Entry e;
  e.bytes = bytes.size();
  e.sha256_hex = sha_hex(bytes.data(), bytes.size());
  e.key = key;
  e.name = name_of(kReusable, next_seq_++, e);
  const fs::path root(cfg_.dir);
  publish(root, e.name, bytes.data(), bytes.size(), root / "ready" / e.name);

  const std::lock_guard<std::mutex> lock(mu_);
  // One resident artifact per key: a repeated put replaces (re-garble
  // after corruption, operator-forced refresh) and the evaluation
  // counter restarts with the new artifact's lineage.
  auto& files = files_[kReusable];
  for (auto it = files.begin(); it != files.end();)
    it = it->key == key ? drop_reusable_locked(it) : std::next(it);
  files.push_back(std::move(e));
  ++stats_.reusable_spooled;
  ++stats_.reusable_ready;
  stats_.bytes_on_disk += bytes.size();
}

std::optional<std::vector<std::uint8_t>> SessionSpool::fetch_reusable(
    const std::string& key) {
  const fs::path root(cfg_.dir);
  auto& files = files_[kReusable];
  for (;;) {
    Entry e;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = std::find_if(files.begin(), files.end(),
                                   [&](const Entry& x) { return x.key == key; });
      if (it == files.end()) return std::nullopt;
      e = *it;
    }
    std::vector<std::uint8_t> bytes;
    if (read_exact(root / "ready" / e.name, e.bytes, bytes) &&
        (!cfg_.verify_checksums ||
         sha_hex(bytes.data(), bytes.size()) == e.sha256_hex))
      return bytes;

    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(
        files.begin(), files.end(),
        [&](const Entry& x) { return x.name == e.name; });
    if (it == files.end()) continue;  // replaced or purged meanwhile
    // Bit rot or tampering: destroy the blob so it can never be served,
    // and let the caller re-garble under the same key.
    drop_reusable_locked(it);
    ++stats_.reusable_corrupt_discarded;
    return std::nullopt;
  }
}

void SessionSpool::add_reusable_evaluations(const std::string& key,
                                            std::uint64_t rounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& files = files_[kReusable];
  const auto it = std::find_if(files.begin(), files.end(),
                               [&](const Entry& e) { return e.key == key; });
  if (it == files.end()) return;  // artifact purged under us: drop the count
  it->evals += rounds;
  stats_.reusable_evaluations += rounds;
  counters_dirty_ = true;
}

std::size_t SessionSpool::purge_reusable() {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& files = files_[kReusable];
  const std::size_t removed = files.size();
  while (!files.empty()) drop_reusable_locked(files.begin());
  stats_.reusable_purged += removed;
  return removed;
}

std::vector<ReusableSpoolEntry> SessionSpool::reusable_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReusableSpoolEntry> out;
  for (const auto& e : files_[kReusable])
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
