#!/bin/sh
# Smoke test for the socket serving front end: launch ppsm_server on a
# loopback ephemeral port, replay a pattern through `ppsm_cli query
# --connect`, and require the match rows to be identical to an in-process
# `ppsm_cli query` over the same graph — at one shard and two, and again
# after a zero-downtime hot-swap; then a BAS server must return those same
# rows, and a sharded BAS server must refuse to start. First argument: path
# to the ppsm_server binary; second: path to ppsm_cli.
set -e

SERVER="$1"
CLI="$2"
[ -x "$SERVER" ] && [ -x "$CLI" ] || {
  echo "usage: $0 <path-to-ppsm_server> <path-to-ppsm_cli>"; exit 2;
}

DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

"$CLI" generate --preset dbp --scale 0.01 --out "$DIR/g.graph" --seed 7
printf '(a:type0)\n(b:type1)\na -- b\n' > "$DIR/q.pat"

# The answer rows only — everything from the match count up to (excluding)
# the per-query timing line, which is nondeterministic run to run.
matches_only() { awk '/^query /{exit} {print}' "$1"; }

"$CLI" query --in "$DIR/g.graph" --pattern "$DIR/q.pat" --k 3 \
    > "$DIR/inproc1.txt"
"$CLI" query --in "$DIR/g.graph" --pattern "$DIR/q.pat" --k 3 --shards 2 \
    > "$DIR/inproc2.txt"

start_server() {
  "$SERVER" "$@" --port 0 > "$DIR/server.log" 2>&1 &
  SERVER_PID=$!
  # The bound port is printed once serving is live; poll for the line.
  i=0
  while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' \
        "$DIR/server.log")
    [ -n "$PORT" ] && return 0
    kill -0 "$SERVER_PID" 2>/dev/null \
        || { echo "server died:"; cat "$DIR/server.log"; exit 1; }
    sleep 0.2
    i=$((i + 1))
  done
  echo "server never printed its port:"; cat "$DIR/server.log"; exit 1
}

for SHARDS in 1 2; do
  start_server --in "$DIR/g.graph" --k 3 --shards "$SHARDS"

  "$CLI" ping --connect "127.0.0.1:$PORT" | grep -q "pong: snapshot v1" \
      || { echo "ping failed (shards=$SHARDS)"; exit 1; }

  "$CLI" query --connect "127.0.0.1:$PORT" --pattern "$DIR/q.pat" \
      > "$DIR/remote.txt"
  matches_only "$DIR/remote.txt" > "$DIR/remote_rows.txt"
  matches_only "$DIR/inproc1.txt" > "$DIR/rows1.txt"
  matches_only "$DIR/inproc2.txt" > "$DIR/rows2.txt"
  cmp -s "$DIR/remote_rows.txt" "$DIR/rows1.txt" || {
    echo "remote rows diverge from in-process (shards=$SHARDS vs 1)"
    diff "$DIR/rows1.txt" "$DIR/remote_rows.txt" | head; exit 1;
  }
  cmp -s "$DIR/remote_rows.txt" "$DIR/rows2.txt" || {
    echo "remote rows diverge from in-process (shards=$SHARDS vs 2)"
    diff "$DIR/rows2.txt" "$DIR/remote_rows.txt" | head; exit 1;
  }

  # Hot-swap: the admin reload publishes v2, SIGHUP publishes v3, and the
  # answers must not change across either swap.
  "$CLI" reload --connect "127.0.0.1:$PORT" \
      | grep -q "reloaded: snapshot v2" \
      || { echo "admin reload failed (shards=$SHARDS)"; exit 1; }
  kill -HUP "$SERVER_PID"
  i=0
  while [ $i -lt 100 ]; do
    "$CLI" ping --connect "127.0.0.1:$PORT" | grep -q "snapshot v3" && break
    sleep 0.2
    i=$((i + 1))
  done
  "$CLI" ping --connect "127.0.0.1:$PORT" | grep -q "snapshot v3" \
      || { echo "SIGHUP reload never published (shards=$SHARDS)"; exit 1; }

  "$CLI" query --connect "127.0.0.1:$PORT" --pattern "$DIR/q.pat" \
      --repeat 3 > "$DIR/reloaded.txt"
  grep -q "replay: 3/3 ok" "$DIR/reloaded.txt" \
      || { echo "post-reload replay failed (shards=$SHARDS)"; exit 1; }
  matches_only "$DIR/reloaded.txt" > "$DIR/reloaded_rows.txt"
  cmp -s "$DIR/reloaded_rows.txt" "$DIR/rows1.txt" || {
    echo "rows changed across hot-swap (shards=$SHARDS)"; exit 1;
  }

  kill "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
done

# BAS ships all of Gk and answers through the same one-shard cloud. Every
# method returns the exact R(Q,G), so its rows must equal the EFF rows.
start_server --in "$DIR/g.graph" --k 3 --method bas
"$CLI" query --connect "127.0.0.1:$PORT" --pattern "$DIR/q.pat" \
    > "$DIR/bas.txt"
matches_only "$DIR/bas.txt" > "$DIR/bas_rows.txt"
cmp -s "$DIR/bas_rows.txt" "$DIR/rows1.txt" || {
  echo "BAS rows diverge from in-process EFF rows"
  diff "$DIR/rows1.txt" "$DIR/bas_rows.txt" | head; exit 1;
}
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# A sharded BAS deployment has no B1 block to partition: the server must
# exit with the typed refusal instead of serving.
if "$SERVER" --in "$DIR/g.graph" --k 3 --method bas --shards 2 --port 0 \
    > "$DIR/bas_sharded.log" 2>&1; then
  echo "sharded BAS server did not refuse"; exit 1
fi
grep -q "error: InvalidArgument" "$DIR/bas_sharded.log" || {
  echo "sharded BAS refusal is not the typed InvalidArgument:"
  cat "$DIR/bas_sharded.log"; exit 1;
}

echo "net smoke test passed"
