// Command-line entry point of the evaluator client, shared between the
// standalone maxel_client binary and `maxelctl connect`. argv excludes
// the program/subcommand name. Prints a human summary on exit and dumps
// the session stats as JSON (stdout line `STATS {...}`, plus --json
// FILE). The garbler side is `maxelctl serve` (evloop/ev_service.hpp).
#pragma once

namespace maxel::net {

// maxel_client [--host H] [--port P] [--bits N] [--rounds M]
//              [--scheme ...] [--ot base|iknp] [--seed S] [--no-check]
//              [--mode precomputed|stream|v3|reusable]
//              [--json FILE] [--quiet] [--retries N] [--retry-backoff MS]
//              [--retry-backoff-max MS] [--retry-seed S]
//              [--net-timeout MS] [--fault-plan SPEC]
//
// Also honors MAXEL_FAULT_PLAN (env) as the default --fault-plan, so the
// stock binary can be chaos-tested without flag changes; see
// net/fault.hpp for the plan grammar and docs/TESTING.md for usage.
int connect_command(int argc, char** argv);

}  // namespace maxel::net
