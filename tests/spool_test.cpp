// SessionSpool invariants: atomic claim-rename single-use (the property
// that makes restarting a broker safe), kill/restart from the directory
// alone, bit-rot detection against the checksum in each file's name, two
// spools sharing one directory, and the RAM cache fronting the disk.
// Plus MetricsRegistry unit coverage.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "gc/v3.hpp"
#include "net/reusable_service.hpp"
#include "proto/precompute.hpp"
#include "proto/reusable_io.hpp"
#include "proto/session_io.hpp"
#include "proto/v3_session.hpp"
#include "svc/metrics.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {
namespace {

namespace fs = std::filesystem;
using crypto::Block;

class SpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("maxel_spool_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  proto::PrecomputedSession make_session(std::uint64_t seed) {
    const circuit::Circuit c =
        circuit::make_mac_circuit(circuit::MacOptions{8, 8, true});
    crypto::SystemRandom rng(Block{seed, 0x5});
    return proto::garble_session(c, gc::Scheme::kHalfGates, 2, rng);
  }

  proto::PrecomputedSessionV3 make_v3_session(std::uint64_t seed,
                                              crypto::Block delta) {
    delta.lo |= 1;  // pool correlation secret: lsb is the permute bit
    const circuit::Circuit c =
        circuit::make_mac_circuit(circuit::MacOptions{8, 8, true});
    const gc::V3Analysis an = gc::analyze_v3(c);
    crypto::SystemRandom rng(Block{seed, 0x7});
    const std::vector<std::vector<bool>> g_bits(2, std::vector<bool>(8));
    return proto::garble_session_v3(c, an, g_bits, delta, rng.next_block(),
                                    rng);
  }

  SpoolConfig config(std::size_t cache = 0) {
    return SpoolConfig{dir_.string(), cache, true};
  }

  // The one file of a lane ("sess-", "v3ss-", "reus-") in ready/.
  fs::path ready_file(const std::string& prefix) const {
    fs::path found;
    for (const auto& e : fs::directory_iterator(dir_ / "ready"))
      if (e.path().filename().string().rfind(prefix, 0) == 0) {
        EXPECT_TRUE(found.empty()) << "two " << prefix << " files";
        found = e.path();
      }
    EXPECT_FALSE(found.empty()) << "no " << prefix << " file";
    return found;
  }

  // Every path under the spool directory, with its inode and mtime: a
  // rewrite shows as a new inode even within one mtime tick.
  std::map<std::string, std::array<long long, 3>> listing() const {
    std::map<std::string, std::array<long long, 3>> out;
    const auto add = [&](const fs::path& p) {
      struct stat st{};
      EXPECT_EQ(::stat(p.c_str(), &st), 0) << p;
      out[p.string()] = {static_cast<long long>(st.st_ino),
                         static_cast<long long>(st.st_mtim.tv_sec),
                         static_cast<long long>(st.st_mtim.tv_nsec)};
    };
    add(dir_);
    for (const auto& e : fs::recursive_directory_iterator(dir_)) add(e.path());
    return out;
  }

  fs::path dir_;
};

TEST_F(SpoolTest, PutTakeRoundTripsSessions) {
  SessionSpool spool(config());
  const proto::PrecomputedSession s = make_session(1);
  const auto want = proto::serialize_session(s);
  spool.put(make_session(1));
  EXPECT_EQ(spool.ready(), 1u);

  const auto got = spool.take();
  ASSERT_TRUE(got.has_value());
  // Byte-identical round trip through disk (same seed -> same session).
  EXPECT_EQ(proto::serialize_session(*got), want);
  EXPECT_EQ(spool.ready(), 0u);
  EXPECT_FALSE(spool.take().has_value());
}

TEST_F(SpoolTest, TakeClaimsOldestFirstAndNeverTwice) {
  SessionSpool spool(config());
  for (std::uint64_t i = 0; i < 4; ++i) spool.put(make_session(i));

  std::set<std::string> served;
  for (int i = 0; i < 4; ++i) {
    const auto s = spool.take();
    ASSERT_TRUE(s.has_value());
    // Distinct deltas witness distinct sessions: no double-serve.
    char key[64];
    std::snprintf(key, sizeof(key), "%016llx%016llx",
                  static_cast<unsigned long long>(s->delta.hi),
                  static_cast<unsigned long long>(s->delta.lo));
    EXPECT_TRUE(served.insert(key).second) << "session served twice";
  }
  EXPECT_FALSE(spool.take().has_value());
  EXPECT_EQ(spool.stats().sessions_claimed, 4u);
}

TEST_F(SpoolTest, SurvivesRestartWithoutReuse) {
  // First life: spool 3, serve 1 — then "crash" (drop the object).
  {
    SessionSpool spool(config());
    for (std::uint64_t i = 0; i < 3; ++i) spool.put(make_session(10 + i));
    ASSERT_TRUE(spool.take().has_value());
  }
  // The claim rename happened before the session bytes were handed out,
  // so a restart finds 2 ready files; the served one is gone for good.
  SessionSpool reopened(config());
  EXPECT_EQ(reopened.ready(), 2u);
  EXPECT_TRUE(reopened.take().has_value());
  EXPECT_TRUE(reopened.take().has_value());
  EXPECT_FALSE(reopened.take().has_value());
}

TEST_F(SpoolTest, PurgesClaimedLeftoversOnOpen) {
  {
    SessionSpool spool(config());
    spool.put(make_session(42));
  }
  // Simulate a crash mid-serve: the claim rename happened but the
  // process died before the unlink.
  const fs::path claimed = dir_ / "claimed" / ready_file("sess-").filename();
  fs::rename(ready_file("sess-"), claimed);

  SessionSpool reopened(config());
  // The half-served session's labels are burned; it must never be
  // re-offered.
  EXPECT_EQ(reopened.ready(), 0u);
  EXPECT_GE(reopened.stats().purged_on_open, 1u);
  EXPECT_FALSE(fs::exists(claimed));
}

// The directory is the index: a reopen restores every lane from the
// file names alone — v2, v3 with its lineage, reusable with its key.
TEST_F(SpoolTest, ReopenFromTheDirectoryAloneRestoresEveryLane) {
  const proto::PrecomputedSessionV3 s3 = make_v3_session(4, Block{0x3, 0x4});
  const std::vector<std::uint8_t> blob(40, 0x5A);
  std::uint64_t bytes = 0;
  {
    SessionSpool spool(config(/*cache=*/2));
    spool.put(make_session(7));
    spool.put_v3(s3);
    spool.put_reusable("abcd-8", blob);
    bytes = spool.stats().bytes_on_disk;
  }
  SessionSpool spool(config());
  EXPECT_EQ(spool.stats().purged_on_open, 0u);
  EXPECT_EQ(spool.stats().bytes_on_disk, bytes);
  EXPECT_EQ(spool.ready(), 1u);
  EXPECT_EQ(spool.ready_v3(), 1u);
  ASSERT_TRUE(spool.take().has_value());
  // Served, not burned: the lineage came back with the name.
  const auto got = spool.take_v3(s3.pool_lineage);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(proto::serialize_session_v3(*got), proto::serialize_session_v3(s3));
  EXPECT_EQ(spool.stats().v3_lineage_discarded, 0u);
  const auto entries = spool.reusable_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "abcd-8");
  EXPECT_EQ(entries[0].bytes, blob.size());
  EXPECT_EQ(spool.fetch_reusable("abcd-8"), blob);
  EXPECT_EQ(spool.stats().bytes_on_disk, blob.size());
}

// An older build's layout (spool.idx plus sess-<seq>.mxs) holds only
// caches: opening it removes and counts every such file.
TEST_F(SpoolTest, OldLayoutDirectoryIsPurgedOnOpen) {
  fs::create_directories(dir_ / "ready");
  const auto bytes = proto::serialize_session(make_session(6));
  for (const char* name : {"sess-000000000000.mxs", "sess-000000000001.mxs"}) {
    std::ofstream os(dir_ / "ready" / name, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }
  {
    std::ofstream os(dir_ / "spool.idx");
    os << "MXSPOOL1\nsess-000000000000.mxs " << bytes.size() << " 00\n";
  }
  SessionSpool spool(config());
  EXPECT_EQ(spool.ready(), 0u);
  EXPECT_EQ(spool.stats().purged_on_open, 3u);
  EXPECT_EQ(spool.stats().bytes_on_disk, 0u);
  EXPECT_FALSE(spool.take().has_value());
  EXPECT_TRUE(fs::is_empty(dir_ / "ready"));
  EXPECT_FALSE(fs::exists(dir_ / "spool.idx"));
}

// The name parser is strict: fixed widths and lowercase hex. A near
// miss of a valid name is removed on open, never served.
TEST_F(SpoolTest, NamesOutsideTheGrammarArePurgedOnOpen) {
  {
    SessionSpool spool(config());
    spool.put(make_session(5));
  }
  const fs::path f = ready_file("sess-");
  const std::string name = f.filename().string();
  std::string upper = name;
  for (std::size_t i = name.size() - 68; i < name.size() - 4; ++i)
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  for (const std::string& bad :
       {upper, name.substr(0, 5) + name.substr(6), name + ".tmp"})
    fs::copy_file(f, dir_ / "ready" / bad);
  SessionSpool spool(config());
  EXPECT_EQ(spool.stats().purged_on_open, 3u);
  EXPECT_EQ(spool.ready(), 1u);
  EXPECT_TRUE(spool.take().has_value());
  EXPECT_TRUE(fs::is_empty(dir_ / "ready"));
}

TEST_F(SpoolTest, DetectsBitRotViaChecksum) {
  SessionSpool spool(config());
  spool.put(make_session(3));
  // Flip one byte in the middle of the stored session file.
  const fs::path f = ready_file("sess-");
  std::fstream io(f, std::ios::in | std::ios::out | std::ios::binary);
  io.seekp(200);
  char b;
  io.seekg(200);
  io.get(b);
  b = static_cast<char>(b ^ 0x40);
  io.seekp(200);
  io.put(b);
  io.close();

  EXPECT_THROW((void)spool.take(), std::runtime_error);
}

TEST_F(SpoolTest, RamCacheServesWithoutDiskRead) {
  SessionSpool spool(config(/*cache=*/2));
  spool.put(make_session(1));
  spool.put(make_session(2));
  spool.put(make_session(3));  // beyond the cache: disk only

  ASSERT_TRUE(spool.take().has_value());  // cached
  ASSERT_TRUE(spool.take().has_value());  // cached
  ASSERT_TRUE(spool.take().has_value());  // disk read-back
  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.cache_misses, 1u);
  // Cache hits still burn the disk copy: nothing left to serve.
  EXPECT_FALSE(spool.take().has_value());
}

// ---------------------------------------------------------------------------
// Protocol-v3 lane

TEST_F(SpoolTest, V3LaneRoundTripsAndStaysSeparate) {
  SessionSpool spool(config(/*cache=*/2));
  const Block delta{0xD317A, 0xBEEF};
  const proto::PrecomputedSessionV3 s = make_v3_session(1, delta);
  const auto want = proto::serialize_session_v3(s);
  spool.put_v3(s);
  spool.put(make_session(1));

  EXPECT_EQ(spool.ready(), 1u);     // v2 count excludes the v3 lane
  EXPECT_EQ(spool.ready_v3(), 1u);

  // take() must never surface a v3 session, and vice versa.
  const auto v2 = spool.take();
  ASSERT_TRUE(v2.has_value());
  EXPECT_FALSE(spool.take().has_value());

  const auto got = spool.take_v3(s.pool_lineage);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(proto::serialize_session_v3(*got), want);  // disk round trip
  EXPECT_FALSE(spool.take_v3(s.pool_lineage).has_value());

  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.v3_spooled, 1u);
  EXPECT_EQ(st.v3_claimed, 1u);
  EXPECT_EQ(st.v3_lineage_discarded, 0u);
}

TEST_F(SpoolTest, V3LaneSurvivesRestartAndBurnsForeignLineage) {
  const Block delta{0x11, 0x22};
  std::uint64_t lineage = 0;
  {
    SessionSpool spool(config());
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto s = make_v3_session(20 + i, delta);
      lineage = s.pool_lineage;
      spool.put_v3(s);
    }
  }
  // Same lineage after restart: the inherited stock serves normally
  // (the index's lineage column survived the round trip).
  {
    SessionSpool spool(config());
    EXPECT_EQ(spool.ready_v3(), 3u);
    ASSERT_TRUE(spool.take_v3(lineage).has_value());
  }
  // Foreign lineage (a new broker's delta): every inherited session is
  // burned — claimed and destroyed, never returned.
  SessionSpool spool(config());
  EXPECT_EQ(spool.ready_v3(), 2u);
  EXPECT_FALSE(spool.take_v3(lineage + 1).has_value());
  EXPECT_EQ(spool.stats().v3_lineage_discarded, 2u);
  EXPECT_EQ(spool.ready_v3(), 0u);
  // And the burn is durable: nothing reappears on the next open.
  SessionSpool reopened(config());
  EXPECT_EQ(reopened.ready_v3(), 0u);
}

// Flips one byte in the middle of a stored session file.
void flip_byte(const fs::path& f, std::streamoff at = 200) {
  std::fstream io(f, std::ios::in | std::ios::out | std::ios::binary);
  char b;
  io.seekg(at);
  io.get(b);
  io.seekp(at);
  io.put(static_cast<char>(b ^ 0x40));
}

std::string hex_key(const Block& b) {
  char key[40];
  std::snprintf(key, sizeof(key), "%016llx%016llx",
                static_cast<unsigned long long>(b.hi),
                static_cast<unsigned long long>(b.lo));
  return key;
}

TEST_F(SpoolTest, V3CacheHitSkipsDiskAndStillBurnsTheFile) {
  const Block delta{0xCA, 0xC4E};
  const proto::PrecomputedSessionV3 s = make_v3_session(1, delta);
  {
    SessionSpool spool(config(/*cache=*/2));
    spool.put_v3(s);
    // A disk read would now fail its checksum; a cache hit never looks.
    flip_byte(ready_file("v3ss-"));
    const auto got = spool.take_v3(s.pool_lineage);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(proto::serialize_session_v3(*got),
              proto::serialize_session_v3(s));
    const SpoolStats st = spool.stats();
    EXPECT_EQ(st.cache_hits, 1u);
    EXPECT_EQ(st.cache_misses, 0u);
    EXPECT_EQ(st.v3_claimed, 1u);
    EXPECT_FALSE(spool.take_v3(s.pool_lineage).has_value());
  }
  // The hit claimed and unlinked the disk copy: a reopened spool finds
  // nothing to serve.
  SessionSpool reopened(config(/*cache=*/2));
  EXPECT_EQ(reopened.ready_v3(), 0u);
  EXPECT_FALSE(reopened.take_v3(s.pool_lineage).has_value());
}

TEST_F(SpoolTest, TakesServeCachedSessionsFirstThenOldestOnDisk) {
  const Block delta{0x0D, 0xE5};
  std::vector<proto::PrecomputedSessionV3> s;
  for (std::uint64_t i = 0; i < 4; ++i)
    s.push_back(make_v3_session(30 + i, delta));
  const std::uint64_t lineage = s[0].pool_lineage;
  SessionSpool spool(config(/*cache=*/2));
  spool.put_v3(s[0]);  // cached
  spool.put_v3(s[1]);  // cached
  spool.put_v3(s[2]);  // disk only: the cache is full
  std::vector<Block> order;
  const auto take = [&] {
    const auto got = spool.take_v3(lineage);
    EXPECT_TRUE(got.has_value());
    order.push_back(got ? got->label_seed : Block{});
  };
  take();              // s0, cached
  spool.put_v3(s[3]);  // cached: the take made room
  take();              // s1, cached
  take();              // s3: cached beats the older s2 on disk
  take();              // s2, from disk
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], s[0].label_seed);
  EXPECT_EQ(order[1], s[1].label_seed);
  EXPECT_EQ(order[2], s[3].label_seed);
  EXPECT_EQ(order[3], s[2].label_seed);
  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.cache_hits, 3u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.v3_claimed, 4u);
}

TEST_F(SpoolTest, CachedSessionOfForeignLineageIsBurnedNotServed) {
  const proto::PrecomputedSessionV3 s = make_v3_session(5, Block{0xF0, 0x0F});
  SessionSpool spool(config(/*cache=*/2));
  spool.put_v3(s);
  EXPECT_FALSE(spool.take_v3(s.pool_lineage + 1).has_value());
  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.v3_lineage_discarded, 1u);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.v3_claimed, 0u);
  // Burned for good: its own lineage cannot get it back either.
  EXPECT_FALSE(spool.take_v3(s.pool_lineage).has_value());
  EXPECT_TRUE(fs::is_empty(dir_ / "ready"));
  EXPECT_TRUE(fs::is_empty(dir_ / "claimed"));
}

TEST_F(SpoolTest, V3DetectsBitRotViaChecksum) {
  const proto::PrecomputedSessionV3 s = make_v3_session(3, Block{0xB1, 0x7});
  SessionSpool spool(config());  // no cache: the take reads the disk
  spool.put_v3(s);
  flip_byte(ready_file("v3ss-"));
  EXPECT_THROW((void)spool.take_v3(s.pool_lineage), std::runtime_error);
}

// A producer that keeps up with its taker after a set-up backlog: the
// cache, refilled by each put, serves every take.
TEST_F(SpoolTest, SteadyPutTakeAfterBacklogServesEveryTakeFromCache) {
  const proto::PrecomputedSessionV3 s = make_v3_session(8, Block{0x5E, 0xAD});
  SessionSpool spool(config(/*cache=*/4));
  for (int i = 0; i < 32; ++i) spool.put_v3(s);
  for (int round = 0; round < 50; ++round) {
    spool.put_v3(s);
    spool.put_v3(s);
    ASSERT_TRUE(spool.take_v3(s.pool_lineage).has_value());
    ASSERT_TRUE(spool.take_v3(s.pool_lineage).has_value());
  }
  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.cache_hits, 100u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.v3_claimed, 100u);
  EXPECT_EQ(spool.ready_v3(), 32u);
}

// Two takers race one putter on both lanes. Every session is served at
// most once, and the ledger balances: spooled == claimed + ready.
TEST_F(SpoolTest, ConcurrentTakersAndPutterServeEachSessionOnce) {
  constexpr std::uint64_t kPerLane = 24;
  const Block delta{0xC0, 0xC0};
  std::vector<proto::PrecomputedSession> v2;
  std::vector<proto::PrecomputedSessionV3> v3;
  for (std::uint64_t i = 0; i < kPerLane; ++i) {
    v2.push_back(make_session(100 + i));
    v3.push_back(make_v3_session(200 + i, delta));
  }
  const std::uint64_t lineage = v3[0].pool_lineage;

  SessionSpool spool(config(/*cache=*/4));
  std::atomic<bool> done{false};
  std::vector<std::string> seen[2];
  const auto taker = [&](std::vector<std::string>& out) {
    for (;;) {
      const bool finished = done.load();
      bool got = false;
      if (const auto s = spool.take()) {
        out.push_back("v2:" + hex_key(s->delta));
        got = true;
      }
      if (const auto s = spool.take_v3(lineage)) {
        out.push_back("v3:" + hex_key(s->label_seed));
        got = true;
      }
      if (!got && finished) return;
    }
  };
  std::thread t0(taker, std::ref(seen[0]));
  std::thread t1(taker, std::ref(seen[1]));
  for (std::uint64_t i = 0; i < kPerLane; ++i) {
    spool.put(std::move(v2[i]));
    spool.put_v3(std::move(v3[i]));
  }
  done.store(true);
  t0.join();
  t1.join();

  std::set<std::string> served;
  for (const auto& side : seen)
    for (const auto& key : side)
      EXPECT_TRUE(served.insert(key).second) << key << " served twice";
  EXPECT_EQ(served.size(), 2 * kPerLane);
  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.sessions_spooled, st.sessions_claimed + st.sessions_ready);
  EXPECT_EQ(st.v3_spooled, st.v3_claimed + st.sessions_ready_v3);
  EXPECT_EQ(st.sessions_claimed, kPerLane);
  EXPECT_EQ(st.v3_claimed, kPerLane);
}

// Two spools (two server processes, say) open one directory, each puts
// its own sessions, and both drain concurrently. Content-addressed names
// never collide, so every session is served exactly once, with no
// checksum error, and each spool gives back every byte it counted.
TEST_F(SpoolTest, TwoSpoolsOnOneDirectoryServeEverySessionOnce) {
  constexpr std::uint64_t kEach = 4;
  SessionSpool a(config());
  SessionSpool b(config());
  for (std::uint64_t i = 0; i < kEach; ++i) {
    a.put(make_session(300 + i));
    b.put(make_session(400 + i));
  }
  std::vector<std::string> seen[2];
  std::string error[2];
  const auto taker = [](SessionSpool& spool, std::vector<std::string>& out,
                        std::string& err) {
    try {
      while (const auto s = spool.take()) out.push_back(hex_key(s->delta));
    } catch (const std::exception& e) {
      err = e.what();
    }
  };
  std::thread ta(taker, std::ref(a), std::ref(seen[0]), std::ref(error[0]));
  std::thread tb(taker, std::ref(b), std::ref(seen[1]), std::ref(error[1]));
  ta.join();
  tb.join();

  EXPECT_EQ(error[0], "");
  EXPECT_EQ(error[1], "");
  std::set<std::string> served;
  for (const auto& side : seen)
    for (const auto& key : side)
      EXPECT_TRUE(served.insert(key).second) << key << " served twice";
  EXPECT_EQ(served.size(), 2 * kEach);
  EXPECT_EQ(a.stats().bytes_on_disk, 0u);
  EXPECT_EQ(b.stats().bytes_on_disk, 0u);
  EXPECT_TRUE(fs::is_empty(dir_ / "ready"));
}

// ---------------------------------------------------------------------------
// Reusable lane: keyed garble-once artifacts, fetched without claiming.

TEST_F(SpoolTest, ReusableLaneFetchesWithoutClaimingAndStaysSeparate) {
  SessionSpool spool(config());
  spool.put(make_session(1));
  const auto s3 = make_v3_session(2, Block{0x1, 0x3});
  spool.put_v3(s3);
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  spool.put_reusable("abcd-8", blob);

  // Fetch is idempotent: the artifact never moves to claimed/ and both
  // single-use lanes are blind to it.
  EXPECT_EQ(spool.fetch_reusable("abcd-8"), blob);
  EXPECT_EQ(spool.fetch_reusable("abcd-8"), blob);
  EXPECT_FALSE(spool.fetch_reusable("other-key").has_value());
  ASSERT_TRUE(spool.take().has_value());
  EXPECT_FALSE(spool.take().has_value());
  ASSERT_TRUE(spool.take_v3(s3.pool_lineage).has_value());
  EXPECT_FALSE(spool.take_v3(s3.pool_lineage).has_value());
  EXPECT_EQ(spool.stats().reusable_ready, 1u);
  EXPECT_EQ(spool.stats().reusable_spooled, 1u);
}

TEST_F(SpoolTest, ReusableEvaluationCounterPersistsAcrossRestart) {
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{8, 8, true});
  crypto::SystemRandom rng(Block{0x77, 0x9});
  const gc::ReusableCircuit rc = net::garble_reusable(c, 8, rng);
  const std::string key = reusable_artifact_key(rc.view.fingerprint, 8);
  {
    SessionSpool spool(config());
    spool.put_reusable(key, proto::serialize_reusable(rc));
    spool.add_reusable_evaluations(key, 100);
    spool.add_reusable_evaluations(key, 28);
  }
  {
    SessionSpool spool(config());
    const auto entries = spool.reusable_entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].key, key);
    EXPECT_EQ(entries[0].evaluations, 128u);
    EXPECT_EQ(spool.stats().reusable_evaluations, 128u);
  }
  // Losing the counter file costs the counter but not the artifact: the
  // key is in the artifact's file name.
  ASSERT_TRUE(fs::remove(dir_ / "reusable.counts"));
  SessionSpool rebuilt(config());
  const auto entries = rebuilt.reusable_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, key);
  EXPECT_EQ(entries[0].evaluations, 0u);
  ASSERT_TRUE(rebuilt.fetch_reusable(key).has_value());
}

// The counter is telemetry kept in memory: serving touches no file, and
// the spool writes the counts once, when it closes.
TEST_F(SpoolTest, ReusableEvaluationsWriteNothingUntilTheSpoolCloses) {
  {
    SessionSpool spool(config());
    spool.put_reusable("k-8", std::vector<std::uint8_t>(32, 0x01));
    spool.add_reusable_evaluations("k-8", 1);
  }
  ASSERT_TRUE(fs::exists(dir_ / "reusable.counts"));
  std::map<std::string, std::array<long long, 3>> before;
  {
    SessionSpool spool(config());
    before = listing();
    for (int i = 0; i < 100; ++i) spool.add_reusable_evaluations("k-8", 16);
    EXPECT_EQ(listing(), before);
    EXPECT_EQ(spool.stats().reusable_evaluations, 1601u);
  }
  EXPECT_NE(listing(), before);
  SessionSpool reopened(config());
  EXPECT_EQ(reopened.stats().reusable_evaluations, 1601u);
}

TEST_F(SpoolTest, ReusableFetchDestroysBitRottedArtifact) {
  SessionSpool spool(config());
  spool.put_reusable("feed-16", std::vector<std::uint8_t>(64, 0xAB));
  for (const auto& e : fs::directory_iterator(dir_ / "ready")) {
    std::ofstream os(e.path(), std::ios::binary | std::ios::trunc);
    os << "tampered";
  }
  EXPECT_FALSE(spool.fetch_reusable("feed-16").has_value());
  EXPECT_EQ(spool.stats().reusable_corrupt_discarded, 1u);
  EXPECT_EQ(spool.stats().reusable_ready, 0u);
  // The discard is durable: nothing resurfaces on the next open.
  spool.put(make_session(9));  // keep the dir non-trivial
  SessionSpool reopened(config());
  EXPECT_FALSE(reopened.fetch_reusable("feed-16").has_value());
}

TEST_F(SpoolTest, ReusablePutReplacesPerKeyAndPurgeRetires) {
  SessionSpool spool(config());
  spool.put_reusable("k-8", std::vector<std::uint8_t>(32, 0x01));
  spool.add_reusable_evaluations("k-8", 50);
  spool.put_reusable("k-8", std::vector<std::uint8_t>(48, 0x02));
  auto entries = spool.reusable_entries();
  ASSERT_EQ(entries.size(), 1u);  // replaced, not accumulated
  EXPECT_EQ(entries[0].bytes, 48u);
  EXPECT_EQ(entries[0].evaluations, 0u);  // fresh artifact, fresh count
  spool.put_reusable("k2-16", std::vector<std::uint8_t>(16, 0x03));
  EXPECT_EQ(spool.purge_reusable(), 2u);
  EXPECT_TRUE(spool.reusable_entries().empty());
  EXPECT_EQ(spool.stats().reusable_purged, 2u);
  EXPECT_FALSE(spool.fetch_reusable("k-8").has_value());
  SessionSpool reopened(config());
  EXPECT_TRUE(reopened.reusable_entries().empty());
}

TEST(ReusableKey, EncodesFingerprintPrefixAndBits) {
  std::array<std::uint8_t, 32> fp{};
  fp[0] = 0xDE;
  fp[1] = 0xAD;
  fp[7] = 0x01;
  EXPECT_EQ(reusable_artifact_key(fp, 16), "dead000000000001-16");
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CountersGaugesAccumulate) {
  MetricsRegistry reg;
  reg.counter("hits").inc();
  reg.counter("hits").inc(4);
  reg.gauge("depth").set(7);
  reg.gauge("depth").add(-2);
  EXPECT_EQ(reg.counter("hits").value(), 5u);
  EXPECT_EQ(reg.gauge("depth").value(), 5);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"hits\":5"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":5"), std::string::npos);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 90; ++i) h.observe(0.001);  // ~1 ms
  for (int i = 0; i < 10; ++i) h.observe(0.1);    // ~100 ms
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.sum_seconds, 90 * 0.001 + 10 * 0.1, 1e-3);
  // p50 lands in the ~1 ms bucket, p99 in the ~100 ms bucket.
  EXPECT_LT(s.quantile_seconds(0.50), 0.01);
  EXPECT_GT(s.quantile_seconds(0.99), 0.05);
  EXPECT_NE(reg.to_json().find("\"lat\":{\"count\":100"), std::string::npos);
}

TEST(Metrics, HistogramIgnoresGarbageSamples) {
  Histogram h;
  h.observe(-1.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.snapshot().count, 0u);
}

// The high-water mark is a CAS loop. N threads raise the gauge through
// an ever-climbing range while one more offers the maximum once: the
// gauge must end at that maximum. A read-then-set loses it whenever a
// climber reads the level just before the maximum lands and writes its
// own, lower value just after — with climbers in flight, most trials.
TEST(Metrics, GaugeRaiseToKeepsTheMaxUnderContention) {
  constexpr int kTrials = 200;
  constexpr int kClimbers = 3;
  constexpr std::int64_t kMax = std::int64_t{1} << 62;
  int lost = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Gauge peak;
    std::atomic<bool> stop{false};
    std::vector<std::thread> climbers;
    for (int t = 0; t < kClimbers; ++t)
      climbers.emplace_back([&, t] {
        for (std::int64_t v = t; !stop.load(std::memory_order_relaxed);
             v += kClimbers)
          peak.raise_to(v);
      });
    while (peak.value() < 1000) {
    }
    peak.raise_to(kMax);
    stop.store(true);
    for (auto& th : climbers) th.join();
    if (peak.value() != kMax) ++lost;
  }
  EXPECT_EQ(lost, 0) << "of " << kTrials << " trials";
}

// One writer for the spool ledger: every SpoolStats field, by name.
TEST(SpoolStatsJson, CarriesEveryField) {
  SpoolStats st;
  st.sessions_ready = 3;
  st.sessions_spooled = 4;
  st.reusable_evaluations = 128;
  const std::string json = st.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"ready\":3"), std::string::npos);
  EXPECT_NE(json.find("\"spooled\":4"), std::string::npos);
  EXPECT_NE(json.find("\"reusable_evaluations\":128"), std::string::npos);
  for (const char* key :
       {"claimed", "cache_hits", "cache_misses", "purged_on_open",
        "bytes_on_disk", "ready_v3", "v3_spooled", "v3_claimed",
        "v3_lineage_discarded", "reusable_ready", "reusable_spooled",
        "reusable_purged", "reusable_corrupt_discarded"})
    EXPECT_NE(json.find(std::string("\"") + key + "\":0"), std::string::npos)
        << key;
}

}  // namespace
}  // namespace maxel::svc
