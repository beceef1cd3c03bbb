#!/usr/bin/env bash
# Binary-level end-to-end test for the network service: starts a real
# maxel_server on an ephemeral port, runs maxel_client against it for
# >= 100 MAC rounds over TCP, then cross-checks the two JSON stats dumps
# (client must verify its decoded MAC; the payload byte counters must
# match exactly in both directions).
#
# Inputs (environment): SERVER and CLIENT point at the built binaries.
# MODE selects the delivery path: "precomputed" (default) serves from
# the garbling bank; "stream" passes --stream to the client and checks
# the chunked garble-while-transfer pipeline; "reusable" runs two
# client processes against one garble-once server and proves a single
# garbling fed both sessions; "chaos" replays a matrix of
# MAXEL_FAULT_PLAN schedules against the stock binaries — in both the
# classic and reusable session modes — every run must end, under a hard
# watchdog, in a VERIFIED MAC or a typed maxel_client error (see
# docs/TESTING.md). Run by CTest as the `net_e2e` / `net_e2e_stream` /
# `net_e2e_reusable` / `net_e2e_chaos` tests.
set -euo pipefail
: "${SERVER:?set SERVER to the maxel_server binary}"
: "${CLIENT:?set CLIENT to the maxel_client binary}"
MODE="${MODE:-precomputed}"

client_args=()
case "$MODE" in
  precomputed) ;;
  stream) client_args+=(--stream) ;;
  reusable) ;;
  chaos) ;;
  *) echo "unknown MODE '$MODE' (want precomputed|stream|reusable|chaos)"; exit 1 ;;
esac

dir=$(mktemp -d)
spid=""
trap '[ -n "$spid" ] && kill "$spid" 2>/dev/null; rm -rf "$dir"' EXIT

start_server() {  # start_server <extra server args...>
  # Create the log before the server starts: the backgrounded redirect
  # may not have opened it yet when the first sed below reads it.
  : >"$dir/server.log"
  "$SERVER" --port 0 --bits 8 "$@" --json "$dir/server.json" \
            >"$dir/server.log" 2>&1 &
  spid=$!
  # The server prints its bound (ephemeral) port on startup.
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$dir/server.log")
    [ -n "$port" ] && break
    kill -0 "$spid" 2>/dev/null || { echo "server died early:"; cat "$dir/server.log"; exit 1; }
    sleep 0.1
  done
  [ -n "$port" ] || { echo "server never reported its port:"; cat "$dir/server.log"; exit 1; }
}

field() { sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" "$1"; }

if [ "$MODE" = chaos ]; then
  # One long-lived server (--sessions 0) with a tight idle deadline; the
  # fault schedules reach the unmodified client purely through the
  # MAXEL_FAULT_PLAN environment knob.
  start_server --rounds 24 --sessions 0 --idle-timeout 2000 --quiet

  plans=(
    "close@send:0"
    "close@recv:6"
    "trunc@send:2"
    "refuse@connect:0"
    "seed=4;split@send:2"
    "seed=11;stall@recv:1:300"
  )
  # The same contract in reusable mode, where the faults land on the
  # artifact transfer and the d/z bit exchange instead of the table
  # stream; the server must keep serving off its one garbling.
  reusable_plans=(
    "close@send:1"
    "seed=3;trunc@send:2"
    "refuse@connect:0"
    "seed=7;close@recv:4"
  )
  recovered=0

  chaos_run() {  # chaos_run <tag> <plan> <extra client args...>
    local tag="$1" plan="$2"; shift 2
    local rc=0
    MAXEL_FAULT_PLAN="$plan" timeout 60 \
      "$CLIENT" --port "$port" --bits 8 --retries 4 --retry-backoff 20 \
                --net-timeout 2000 --quiet --json "$dir/$tag.json" "$@" \
                >"$dir/$tag.log" 2>&1 || rc=$?
    if [ "$rc" = 124 ]; then
      echo "chaos[$tag $plan]: client hung past the 60 s watchdog"
      cat "$dir/$tag.log"; exit 1
    fi
    # A silent wrong answer is never acceptable, whatever the exit code.
    if grep -q "MISMATCH" "$dir/$tag.log"; then
      echo "chaos[$tag $plan]: client decoded a wrong MAC without a typed error"
      cat "$dir/$tag.log"; exit 1
    fi
    if [ "$rc" = 0 ]; then
      grep -q VERIFIED "$dir/$tag.log" \
        || { echo "chaos[$tag $plan]: exit 0 without VERIFIED"; cat "$dir/$tag.log"; exit 1; }
      attempts=$(field "$dir/$tag.json" attempts)
      [ -n "$attempts" ] && [ "$attempts" -ge 2 ] && recovered=$((recovered + 1))
      echo "chaos[$tag $plan]: VERIFIED after $attempts attempt(s)"
    else
      grep -q "maxel_client:" "$dir/$tag.log" \
        || { echo "chaos[$tag $plan]: exit $rc without a typed error"; cat "$dir/$tag.log"; exit 1; }
      echo "chaos[$tag $plan]: typed error after retries: $(grep maxel_client: "$dir/$tag.log" | head -1)"
    fi
    kill -0 "$spid" 2>/dev/null \
      || { echo "chaos[$tag $plan]: server died"; cat "$dir/server.log"; exit 1; }
  }

  for i in "${!plans[@]}"; do
    chaos_run "c$i" "${plans[$i]}"
  done
  for i in "${!reusable_plans[@]}"; do
    chaos_run "r$i" "${reusable_plans[$i]}" --mode reusable
  done
  [ "$recovered" -ge 1 ] \
    || { echo "chaos: no scenario recovered via retry (want attempts >= 2 at least once)"; exit 1; }

  # Graceful server shutdown must still work after all that abuse.
  kill -TERM "$spid"
  wait "$spid" || { echo "server exited non-zero after chaos run:"; cat "$dir/server.log"; exit 1; }
  spid=""
  served=$(field "$dir/server.json" sessions_served)
  errors=$(field "$dir/server.json" connection_errors)
  r_served=$(field "$dir/server.json" reusable_sessions_served)
  r_garbles=$(field "$dir/server.json" reusable_garbles)
  [ "$served" -ge 1 ] || { echo "server served no sessions"; exit 1; }
  [ "$errors" -ge 1 ] || { echo "server saw no connection errors (faults never landed?)"; exit 1; }
  [ "$r_served" -ge 1 ] || { echo "server served no reusable sessions"; exit 1; }
  [ "$r_garbles" = 1 ] \
    || { echo "server garbled $r_garbles reusable circuits under chaos (want exactly 1)"; exit 1; }
  echo "net_e2e[chaos]: $(( ${#plans[@]} + ${#reusable_plans[@]} )) plans," \
       "$recovered recovered via retry, $served sessions served" \
       "($r_served reusable off $r_garbles garbling)," \
       "$errors connection errors survived"
  exit 0
fi

if [ "$MODE" = reusable ]; then
  # Garble-once proof at the binary level: one server, two fresh client
  # processes. Each client pulls the artifact (its own process has no
  # cache) but the server must report exactly ONE garbling for both
  # sessions, and every byte counter must reconcile across the wire.
  start_server --rounds 120 --sessions 2 --mode reusable --quiet

  for i in 1 2; do
    "$CLIENT" --port "$port" --bits 8 --mode reusable --quiet \
              --json "$dir/client$i.json" >"$dir/client$i.log" 2>&1 \
      || { echo "reusable client $i failed:"; cat "$dir/client$i.log"; exit 1; }
    grep -q VERIFIED "$dir/client$i.log" \
      || { echo "reusable client $i did not verify:"; cat "$dir/client$i.log"; exit 1; }
  done

  wait "$spid"  # exits 0 once its two sessions are served
  spid=""

  r_served=$(field "$dir/server.json" reusable_sessions_served)
  r_sent=$(field "$dir/server.json" reusable_artifacts_sent)
  r_garbles=$(field "$dir/server.json" reusable_garbles)
  [ "$r_served" = 2 ] \
    || { echo "server served $r_served reusable sessions (want 2)"; exit 1; }
  [ "$r_sent" = 2 ] \
    || { echo "server sent $r_sent artifacts (two fresh clients want 2)"; exit 1; }
  [ "$r_garbles" = 1 ] \
    || { echo "server garbled $r_garbles times (garble-once wants 1)"; exit 1; }

  s_out=$(field "$dir/server.json" bytes_sent)
  s_in=$(field "$dir/server.json" bytes_received)
  c_out=$(( $(field "$dir/client1.json" bytes_sent) + $(field "$dir/client2.json" bytes_sent) ))
  c_in=$(( $(field "$dir/client1.json" bytes_received) + $(field "$dir/client2.json" bytes_received) ))
  rounds=$(( $(field "$dir/client1.json" rounds) + $(field "$dir/client2.json" rounds) ))
  [ "$rounds" -ge 200 ] \
    || { echo "only $rounds rounds completed across both sessions (need >= 200)"; exit 1; }
  [ "$s_out" = "$c_in" ] \
    || { echo "byte mismatch: server sent $s_out, clients received $c_in"; exit 1; }
  [ "$s_in" = "$c_out" ] \
    || { echo "byte mismatch: clients sent $c_out, server received $s_in"; exit 1; }
  echo "net_e2e[reusable]: $rounds rounds over 2 sessions off 1 garbling," \
       "$c_in B down / $c_out B up, counters match"
  exit 0
fi

start_server --rounds 120 --sessions 1

"$CLIENT" --port "$port" --bits 8 --json "$dir/client.json" \
          ${client_args[@]+"${client_args[@]}"} \
          >"$dir/client.log" 2>&1 \
  || { echo "client failed:"; cat "$dir/client.log"; exit 1; }
grep -q VERIFIED "$dir/client.log" \
  || { echo "client did not verify its MAC:"; cat "$dir/client.log"; exit 1; }

wait "$spid"  # exits 0 once its one session is served
spid=""

s_out=$(field "$dir/server.json" bytes_sent)
s_in=$(field "$dir/server.json" bytes_received)
c_out=$(field "$dir/client.json" bytes_sent)
c_in=$(field "$dir/client.json" bytes_received)
rounds=$(field "$dir/client.json" rounds)

[ "$rounds" -ge 100 ] \
  || { echo "only $rounds rounds completed (need >= 100)"; exit 1; }
[ "$s_out" = "$c_in" ] \
  || { echo "byte mismatch: server sent $s_out, client received $c_in"; exit 1; }
[ "$s_in" = "$c_out" ] \
  || { echo "byte mismatch: client sent $c_out, server received $s_in"; exit 1; }

if [ "$MODE" = stream ]; then
  chunks=$(field "$dir/client.json" chunks_received)
  streams=$(field "$dir/server.json" stream_sessions_served)
  [ -n "$chunks" ] && [ "$chunks" -ge 1 ] \
    || { echo "stream client reported no chunks_received"; exit 1; }
  [ "$streams" = 1 ] \
    || { echo "server served $streams stream sessions (want 1)"; exit 1; }
fi

echo "net_e2e[$MODE]: $rounds rounds over TCP, $c_in B down / $c_out B up, counters match"
