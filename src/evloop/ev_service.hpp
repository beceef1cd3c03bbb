// Command-line entry point of the garbler server, shared between the
// standalone maxel_server binary and `maxelctl serve`. argv excludes the
// program/subcommand name. Prints a human summary on exit and exports the
// metrics registry, spool ledger nested under "spool", as one JSON object
// (stdout line `STATS {...}`, plus --json FILE; `maxelctl stats
// --metrics FILE` pretty-prints that file).
#pragma once

namespace maxel::evloop {

// maxelctl serve [--port P] [--bind A] [--bits N] [--rounds M]
//   [--scheme halfgates|grr3|classic4] [--sessions K] [--cores C]
//   [--seed S] [--shards N] [--backlog B] [--spool DIR] [--low L]
//   [--high H] [--cache C] [--chunk-rounds R]
//   [--mode precomputed|stream|v3|reusable] [--idle-timeout MS]
//   [--fault-plan SPEC] [--json FILE] [--quiet]
// Runs the sharded EvBroker until SIGINT/SIGTERM or --sessions served.
// Without --spool it serves from a private temporary spool that is
// removed on exit. --mode restricts the optional session families
// (precomputed is always served). MAXEL_FAULT_PLAN (env) is the default
// --fault-plan: a server-side fault schedule, net/fault.hpp grammar.
int evloop_command(int argc, char** argv);

}  // namespace maxel::evloop
