#!/bin/sh
# smoke.sh — end-to-end smoke of pariod and its clients as real processes.
#
# Usage:
#   scripts/smoke.sh
#
# Builds each binary once and checks only what needs real processes:
# signals, listening lines, the CLIs and a restart on disk. Every other
# serving contract is proved in-process by `go test ./...`; EXPERIMENTS.md
# "Smoke" maps each check to the test or step that proves it.
#
# Single node:
#   1. the daemon prints its listening line and /healthz answers ok
#   2. pariobench holds its mixed (-n 40 -c 8 -hot 0.8), -sweep and
#      -estimate (p99 under 1 ms) contracts against it
#   3. iotrace -capture and iogen -emit-trace / -adversary print the hash
#      that POST /trace answers, and iosim -trace -json prints the daemon's
#      replay body byte for byte
#   4. SIGTERM drains: "pariod: drained" and exit 0
# Three-node cluster, each node with its own -cache-dir:
#   5. pariobench -cluster -n 24 holds the cluster contract
#   6. a node stopped with SIGTERM and restarted on the same directory
#      answers a key it owns from disk: X-Pario-Cache: l2, runs_total 0
#   7. every node drains and exits 0
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

fail() {
    for f in "$tmp"/*.log; do [ -f "$f" ] && { echo "== $f"; cat "$f"; }; done
    echo "smoke: FAIL: $*"
    exit 1
}

# boot NAME ARGS...: start pariod with ARGS, logging to $tmp/NAME.log, and
# wait for its listening line. Sets $pid and $url; returns 1 if the daemon
# exits or has not bound within 10 s.
boot() {
    log="$tmp/$1.log"
    shift
    "$tmp/pariod" "$@" >"$log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    i=0
    while [ $i -lt 100 ]; do
        url=$(sed -n 's,^pariod: listening on \(http://[^ ]*\)$,\1,p' "$log")
        [ -n "$url" ] && return 0
        kill -0 "$pid" 2>/dev/null || return 1
        i=$((i + 1))
        sleep 0.1
    done
    return 1
}

# drain NAME PID: SIGTERM the daemon; it must say it drained and exit 0.
drain() {
    kill -TERM "$2"
    wait "$2" || fail "$1 exited non-zero"
    pids=$(echo " $pids " | sed "s/ $2 / /")
    grep -q '^pariod: drained' "$tmp/$1.log" || fail "$1 did not drain"
}

echo "smoke: building..."
go build -o "$tmp/" ./cmd/pariod ./cmd/pariobench ./cmd/iotrace ./cmd/iogen ./cmd/iosim

# 1. Single node up.
boot single -addr 127.0.0.1:0 -workers 4 -batch-queue 32 || fail "daemon never bound"
single=$pid
curl -fsS "$url/healthz" | grep -q '"status":"ok"' || fail "/healthz"
echo "smoke: daemon up at $url"

# 2. The pariobench drives.
addr=${url#http://}
"$tmp/pariobench" -addr "$addr" -n 40 -c 8 -hot 0.8 || fail "pariobench mixed drive"
"$tmp/pariobench" -addr "$addr" -sweep 'app=fft&procs=1,2,4&opt=both' || fail "pariobench -sweep"
"$tmp/pariobench" -addr "$addr" -estimate -n 300 || fail "pariobench -estimate"

# 3. Traces across binaries. fft goes last so $h is the capture's hash.
"$tmp/iogen" -pattern hotspot -total 2M -req 16K -writefrac 0.25 -procs 4 \
    -emit-trace "$tmp/hot.ptrt" >"$tmp/hot.out"
"$tmp/iogen" -adversary appendstorm -procs 4 -events 64 -emit-trace "$tmp/storm.ptrt" >"$tmp/storm.out"
"$tmp/iotrace" -app fft -procs 4 -capture "$tmp/fft.ptrt" >"$tmp/fft.out"
for t in hot storm fft; do
    h=$(sed -n 's/^trace:\([0-9a-f]\{64\}\)$/\1/p' "$tmp/$t.out")
    [ -n "$h" ] || fail "$t: no trace hash printed"
    curl -fsS --data-binary @"$tmp/$t.ptrt" "$url/trace" | grep -q "\"trace\":\"$h\"" ||
        fail "$t: POST /trace did not answer trace:$h"
done
curl -fsS -o "$tmp/daemon.json" -H 'Content-Type: application/json' \
    -d "{\"app\":\"trace\",\"trace\":\"$h\",\"version\":\"passion\",\"opt\":true}" "$url/run"
"$tmp/iosim" -trace "$tmp/fft.ptrt" -version passion -opt -json >"$tmp/cli.json"
cmp -s "$tmp/cli.json" "$tmp/daemon.json" || fail "iosim -trace -json differs from the daemon's body"
echo "smoke: CLI trace hashes match POST /trace; iosim and pariod replay bodies identical"

# 4. Drain.
drain single "$single"
echo "smoke: single node drained"

# 5. Three nodes on a port triple derived from the PID; if node 0 cannot
# bind, the next stride is tried.
node() { # ID [LOGSUFFIX]
    boot "node$1${2-}" -addr "127.0.0.1:$((port + $1))" -node-id "$1" -peers "$peers" \
        -workers 2 -cache-dir "$tmp/cache$1" -cache-disk-bytes 16777216
}
try=0
while :; do
    port=$((20000 + ($$ + try * 131) % 20000))
    peers="127.0.0.1:$port,127.0.0.1:$((port + 1)),127.0.0.1:$((port + 2))"
    node 0 && break
    kill "$pid" 2>/dev/null || true
    try=$((try + 1))
    [ $try -lt 5 ] || fail "could not bind a port triple"
done
pid0=$pid
node 1 || fail "node 1 never bound"
pid1=$pid
node 2 || fail "node 2 never bound"
pid2=$pid
echo "smoke: cluster up on $peers"
"$tmp/pariobench" -cluster "$peers" -n 24 || fail "pariobench -cluster"

# 6. Restart a node on its cache directory. The drive's keys are scf30
# cached_pct 1..24; find one that node 2 owns.
n2="http://127.0.0.1:$((port + 2))"
i=1
while :; do
    curl -fsS -D "$tmp/owner.h" -o /dev/null "http://127.0.0.1:$port/run?app=scf30&input=SMALL&cached_pct=$i"
    grep -qi "^x-pario-owner: $n2" "$tmp/owner.h" && break
    i=$((i + 1))
    [ $i -le 24 ] || fail "no key owned by node 2 among 24"
done
drain node2 "$pid2"
node 2 b || fail "node 2 did not come back"
pid2=$pid
curl -fsS -D "$tmp/warm.h" -o /dev/null "$n2/run?app=scf30&input=SMALL&cached_pct=$i"
grep -qi '^x-pario-cache: l2' "$tmp/warm.h" || fail "restarted node 2 did not answer cached_pct=$i from disk"
runs=$(curl -fsS "$n2/metrics" | sed -n 's/.*"runs_total": *\([0-9]*\).*/\1/p')
[ "$runs" = 0 ] || fail "restarted node 2 re-simulated (runs_total $runs)"
echo "smoke: restarted node 2 answered cached_pct=$i from disk, runs_total 0"

# 7. Drain the cluster.
drain node0 "$pid0"
drain node1 "$pid1"
drain node2b "$pid2"
echo "smoke: OK"
