#include "proto/session_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

namespace maxel::proto {
namespace {

constexpr char kMagic[8] = {'M', 'X', 'S', 'E', 'S', 'S', '1', '\0'};
// Smallest encoding of one round: five u64 count prefixes.
constexpr std::size_t kMinRoundBytes = 5 * 8;

[[noreturn]] void bad(const std::string& what) {
  throw SessionFormatError("load_session: " + what);
}

std::size_t blocks_size(const std::vector<crypto::Block>& v) {
  return 8 + 16 * v.size();
}

std::size_t encoded_size(const PrecomputedSession& s) {
  const std::size_t rows = gc::rows_per_and(s.scheme);
  std::size_t n =
      sizeof(kMagic) + 1 + 16 + 8 + blocks_size(s.initial_state_labels);
  for (const auto& r : s.rounds)
    n += 8 + 16 * rows * r.tables.tables.size() +
         blocks_size(r.garbler_labels0) + 8 + 32 * r.evaluator_pairs.size() +
         blocks_size(r.fixed_labels) + 8 + (r.output_map.size() + 7) / 8;
  return n;
}

// Encodes into a buffer already sized by encoded_size().
struct Writer {
  std::uint8_t* p;

  void u64(std::uint64_t v) {
    std::memcpy(p, &v, 8);
    p += 8;
  }
  void block(const crypto::Block& b) {
    b.to_bytes(p);
    p += 16;
  }
  void blocks(const std::vector<crypto::Block>& v) {
    u64(v.size());
    for (const auto& b : v) block(b);
  }
  void bits(const std::vector<bool>& v) {
    u64(v.size());
    const std::size_t packed = (v.size() + 7) / 8;
    std::memset(p, 0, packed);
    for (std::size_t i = 0; i < v.size(); ++i)
      if (v[i]) p[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    p += packed;
  }
};

// Every count prefix is checked against its hard cap and against the
// bytes actually left before anything is reserved, so a hostile prefix
// can only make us allocate in proportion to the input.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n) {
    if (left < n) bad("truncated stream");
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    left -= 8;
    return v;
  }
  crypto::Block block() {
    need(16);
    const crypto::Block b = crypto::Block::from_bytes(p);
    p += 16;
    left -= 16;
    return b;
  }
  // elem_bytes = 0: the caller checks the bytes itself.
  std::uint64_t count(std::uint64_t cap, std::size_t elem_bytes,
                      const char* what) {
    const std::uint64_t n = u64();
    if (n > cap)
      bad(std::string("implausible ") + what + " count " + std::to_string(n) +
          " (cap " + std::to_string(cap) + ")");
    if (elem_bytes != 0 && n > left / elem_bytes) bad("truncated stream");
    return n;
  }
  std::vector<crypto::Block> blocks(const char* what) {
    const std::uint64_t n = count(kMaxSessionCount, 16, what);
    std::vector<crypto::Block> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(block());
    return v;
  }
  std::vector<bool> bits() {
    const std::uint64_t n = count(kMaxSessionCount, 0, "bit");
    const std::size_t packed = static_cast<std::size_t>((n + 7) / 8);
    need(packed);
    std::vector<bool> v(n);
    for (std::uint64_t i = 0; i < n; ++i) v[i] = (p[i / 8] >> (i % 8)) & 1u;
    p += packed;
    left -= packed;
    return v;
  }
};

}  // namespace

std::vector<std::uint8_t> serialize_session(const PrecomputedSession& s) {
  std::vector<std::uint8_t> buf(encoded_size(s));
  Writer w{buf.data()};
  std::memcpy(w.p, kMagic, sizeof(kMagic));
  w.p += sizeof(kMagic);
  *w.p++ = static_cast<std::uint8_t>(s.scheme);
  w.block(s.delta);
  w.u64(s.rounds.size());
  const std::size_t rows = gc::rows_per_and(s.scheme);
  for (const auto& r : s.rounds) {
    w.u64(r.tables.tables.size());
    for (const auto& t : r.tables.tables)
      for (std::size_t i = 0; i < rows; ++i) w.block(t.ct[i]);
    w.blocks(r.garbler_labels0);
    w.u64(r.evaluator_pairs.size());
    for (const auto& [l0, l1] : r.evaluator_pairs) {
      w.block(l0);
      w.block(l1);
    }
    w.blocks(r.fixed_labels);
    w.bits(r.output_map);
  }
  w.blocks(s.initial_state_labels);
  return buf;
}

PrecomputedSession parse_session(const std::uint8_t* data, std::size_t n) {
  Reader rd{data, n};
  if (n < sizeof(kMagic) || std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    bad("bad magic");
  rd.p += sizeof(kMagic);
  rd.left -= sizeof(kMagic);
  rd.need(1);
  const std::uint8_t scheme = *rd.p++;
  --rd.left;
  if (scheme > 2) bad("bad scheme");
  PrecomputedSession s;
  s.scheme = static_cast<gc::Scheme>(scheme);
  s.delta = rd.block();
  const std::uint64_t n_rounds =
      rd.count(kMaxSessionRounds, kMinRoundBytes, "round");
  const std::size_t rows = gc::rows_per_and(s.scheme);
  s.rounds.reserve(n_rounds);
  for (std::uint64_t rd_i = 0; rd_i < n_rounds; ++rd_i) {
    PrecomputedSession::Round r;
    const std::uint64_t n_tables =
        rd.count(kMaxSessionCount, 16 * rows, "table");
    r.tables.tables.resize(n_tables);
    for (auto& tab : r.tables.tables)
      for (std::size_t i = 0; i < rows; ++i) tab.ct[i] = rd.block();
    r.garbler_labels0 = rd.blocks("block");
    const std::uint64_t n_pairs = rd.count(kMaxSessionCount, 32, "pair");
    r.evaluator_pairs.reserve(n_pairs);
    for (std::uint64_t i = 0; i < n_pairs; ++i) {
      const crypto::Block l0 = rd.block();
      const crypto::Block l1 = rd.block();
      r.evaluator_pairs.emplace_back(l0, l1);
    }
    r.fixed_labels = rd.blocks("block");
    r.output_map = rd.bits();
    s.rounds.push_back(std::move(r));
  }
  s.initial_state_labels = rd.blocks("block");
  return s;
}

void save_session(const PrecomputedSession& s, std::ostream& os) {
  const std::vector<std::uint8_t> bytes = serialize_session(s);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("save_session: write failure");
}

PrecomputedSession load_session(std::istream& is) {
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(is),
                                        std::istreambuf_iterator<char>()};
  return parse_session(bytes.data(), bytes.size());
}

void save_session_file(const PrecomputedSession& s, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_session_file: cannot open " + path);
  save_session(s, os);
}

PrecomputedSession load_session_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_session_file: cannot open " + path);
  return load_session(is);
}

}  // namespace maxel::proto
