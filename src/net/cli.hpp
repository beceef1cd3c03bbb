// Command-line scaffolding shared by every service command (maxelctl
// serve/connect/spool/stats and the maxel_server / maxel_client entry
// points): one flag parser whose numeric values are checked against
// their destination type, the --scheme and --mode selectors, fault-plan
// validation, and the `STATS {...}` dump.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "gc/scheme.hpp"

namespace maxel::net {

// The four session modes of the --mode flag. Server side: which hello
// families are accepted (precomputed is always served — the baseline
// every client can fall back to). Client side: what the hello asks for.
struct ModeChoice {
  bool stream = false;
  bool v3 = false;
  bool reusable = false;
};

// Help text describing the four modes and their tradeoffs.
extern const char* const kModeHelp;

// Walks argv as `--flag [value]` pairs. Every reader reports its own
// usage error on stderr, prefixed with the command name, and poisons
// the parser: next() then returns false and ok() stays false, so a
// command loop ends with `if (!p.ok()) return 2;`.
class FlagParser {
 public:
  FlagParser(const char* who, int argc, char** argv)
      : who_(who), argc_(argc), argv_(argv) {}

  // Advances to the next flag; false at the end or after an error.
  bool next(std::string& flag);
  [[nodiscard]] bool ok() const { return ok_; }

  // Readers for the current flag's value.
  void str(std::string& out);
  // A decimal integer that fits T. Signs, blanks, trailing characters
  // and out-of-range values are usage errors, never silently wrapped.
  template <typename T>
  void num(T& out) {
    static_assert(std::is_integral_v<T>);
    std::uint64_t v = 0;
    if (decimal(static_cast<std::uint64_t>(std::numeric_limits<T>::max()), v))
      out = static_cast<T>(v);
  }
  void scheme(gc::Scheme& out);
  void mode(ModeChoice& out);

  void unknown();                      // the current flag is not accepted
  void fail(const std::string& what);  // any other usage error

 private:
  const char* value();
  bool decimal(std::uint64_t max, std::uint64_t& out);

  const char* who_;
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
  bool ok_ = true;
};

// Parses a --fault-plan / MAXEL_FAULT_PLAN spec up front so a typo is a
// usage error (reported, false), not a failure mid-session.
bool check_fault_plan(const char* who, const std::string& spec);

// Prints `STATS <json>` on stdout and, when `path` is set, writes the
// JSON to that file.
void dump_stats(const std::string& json, const std::string& path);

}  // namespace maxel::net
