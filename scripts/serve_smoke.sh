#!/usr/bin/env bash
# Serve loopback smoke: starts `repro --serve` on an ephemeral port and
# checks the serving layer end to end over real sockets.
#   1. A faulted campaign measured over 2 connections is byte-identical
#      to the in-process run (plain `cmp` of the encoded CampaignData).
#   2. A 2-second paced load burst serves >0 pings with 0 errors
#      (`serve_load` exits non-zero otherwise).
#   3. The same campaign, with every connection sabotaged by the seeded
#      reference chaos schedule (resets, truncated frames, write stalls),
#      is still byte-identical: the retry layer absorbs each fault with a
#      reconnect (connect + HELLO) and a re-send.
#
# Usage: scripts/serve_smoke.sh
# Runs from any directory; builds the binaries it needs in release mode.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p surgescope-experiments --bin repro
cargo build --release -p surgescope-bench --bin serve_load --bin remote_campaign

TMP=$(mktemp -d)
./target/release/repro --serve 127.0.0.1:0 >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!
# `|| true`: the server is already gone on a clean exit, and under
# `set -e` a failing kill in the trap would turn a pass into exit 1.
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^\[serve\] listening on //p' "$TMP/serve.log" | head -1)
  [ -n "$ADDR" ] && break
  sleep 0.2
done
if [ -z "$ADDR" ]; then
  echo "serve smoke: server never reported its address:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi

echo "== serve: loopback byte-identity =="
./target/release/remote_campaign --out "$TMP/local.bin" --seed 70931 --faulted
./target/release/remote_campaign --out "$TMP/remote.bin" --seed 70931 --faulted \
  --remote "$ADDR" --conns 2
cmp "$TMP/local.bin" "$TMP/remote.bin"
echo "remote campaign bytes identical to in-process ($(wc -c <"$TMP/local.bin") bytes)"

echo "== serve: load smoke =="
./target/release/serve_load --addr "$ADDR" --conns 4 --rps 200 --secs 2

echo "== serve: chaos byte-identity =="
./target/release/remote_campaign --out "$TMP/chaos.bin" --seed 70931 --faulted \
  --remote "$ADDR" --conns 2 --chaos 3133
cmp "$TMP/local.bin" "$TMP/chaos.bin"
echo "chaotic remote campaign bytes identical to in-process"

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
echo "serve smoke: all checks passed"
