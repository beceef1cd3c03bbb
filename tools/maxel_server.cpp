// maxel_server — garbler-side network daemon: serves garbled secure-MAC
// sessions in all four modes to remote maxel_client evaluators over TCP
// through the sharded event-loop broker. Same command as `maxelctl
// serve`; see src/evloop/ev_service.hpp for the flags and
// docs/PROTOCOL.md for the wire format.
#include "evloop/ev_service.hpp"

int main(int argc, char** argv) {
  return maxel::evloop::evloop_command(argc - 1, argv + 1);
}
