#include "net/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "net/fault.hpp"

namespace maxel::net {

const char* const kModeHelp =
    "  --mode precomputed  classic v2 per-round flow off pre-garbled\n"
    "                      sessions: strongest-understood privacy for\n"
    "                      both parties, highest bytes/MAC (full tables\n"
    "                      + labels every round).\n"
    "  --mode stream       garble-while-transfer: same privacy as\n"
    "                      precomputed, bounded server memory, tables\n"
    "                      still shipped per round.\n"
    "  --mode v3           slim wire (PRG-seeded labels, packed select\n"
    "                      bits) + cross-session OT pool: same privacy,\n"
    "                      ~40% of the v2 bytes, base OT amortized to\n"
    "                      ~zero across sessions.\n"
    "  --mode reusable     garble once, evaluate any number of\n"
    "                      sessions off one cached artifact: lowest\n"
    "                      bytes/MAC and highest MAC/s, but WEAKER\n"
    "                      GARBLER PRIVACY (public-model/private-query\n"
    "                      only — see docs/SECURITY_MODELS.md).\n";

bool FlagParser::next(std::string& flag) {
  if (!ok_ || i_ >= argc_) return false;
  flag_ = argv_[i_++];
  flag = flag_;
  return true;
}

const char* FlagParser::value() {
  if (i_ >= argc_) {
    fail("missing value for " + flag_);
    return nullptr;
  }
  return argv_[i_++];
}

void FlagParser::str(std::string& out) {
  if (const char* v = value()) out = v;
}

bool FlagParser::decimal(std::uint64_t max, std::uint64_t& out) {
  const char* v = value();
  if (v == nullptr) return false;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec == std::errc() && ptr == end && ptr != v && out <= max) return true;
  fail("bad value '" + std::string(v) + "' for " + flag_ +
       " (want an integer in 0.." + std::to_string(max) + ")");
  return false;
}

void FlagParser::scheme(gc::Scheme& out) {
  const char* v = value();
  if (v == nullptr) return;
  if (std::strcmp(v, "halfgates") == 0) out = gc::Scheme::kHalfGates;
  else if (std::strcmp(v, "grr3") == 0) out = gc::Scheme::kGrr3;
  else if (std::strcmp(v, "classic4") == 0) out = gc::Scheme::kClassic4;
  else fail("bad --scheme (halfgates|grr3|classic4)");
}

void FlagParser::mode(ModeChoice& out) {
  const char* v = value();
  if (v == nullptr) return;
  if (std::strcmp(v, "precomputed") == 0) out = {false, false, false};
  else if (std::strcmp(v, "stream") == 0) out = {true, false, false};
  else if (std::strcmp(v, "v3") == 0) out = {false, true, false};
  else if (std::strcmp(v, "reusable") == 0) out = {false, true, true};
  else fail("bad --mode (precomputed|stream|v3|reusable)");
}

void FlagParser::unknown() { fail("unknown flag " + flag_); }

void FlagParser::fail(const std::string& what) {
  std::fprintf(stderr, "%s: %s\n", who_, what.c_str());
  ok_ = false;
}

bool check_fault_plan(const char* who, const std::string& spec) {
  if (spec.empty()) return true;
  try {
    FaultPlan::parse(spec);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", who, e.what());
    return false;
  }
}

void dump_stats(const std::string& json, const std::string& path) {
  std::printf("STATS %s\n", json.c_str());
  std::fflush(stdout);
  if (!path.empty()) {
    std::ofstream os(path);
    os << json << "\n";
  }
}

}  // namespace maxel::net
