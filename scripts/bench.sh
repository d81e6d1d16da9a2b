#!/bin/sh
# bench.sh — run the repo's benchmark suites and emit a JSON summary.
#
# Usage:
#   scripts/bench.sh                      # print JSON to stdout
#   scripts/bench.sh -o out.json          # write JSON to a file
#   scripts/bench.sh -baseline old.json   # wrap as {before: old, after: new}
#   scripts/bench.sh -gate old.json       # fail on >10% ns/op regression
#   scripts/bench.sh -gate old.json -tol 15
#
# Runs the root artifact benchmarks (BenchmarkFig1, BenchmarkTable2, ...),
# the internal/sim kernel microbenchmarks, the internal/disk,
# internal/ionode, internal/network, internal/pfs, internal/pio and
# internal/mp call-path microbenchmarks and
# the internal/serve request-layer microbenchmarks with -short -benchmem so
# the whole suite finishes in seconds. BENCHTIME overrides -benchtime (default
# 1x — one iteration per benchmark, a smoke run; use e.g. BENCHTIME=2x or
# a duration like 200ms for numbers stable enough to compare). BENCHCOUNT
# overrides -count (default 1); with several repetitions the summary keeps
# the per-benchmark MINIMUM ns/op — the standard way to cancel scheduler
# noise, since a benchmark can only be slowed down by interference, never
# sped up.
#
# -gate is the CI regression gate: every benchmark present in both the
# committed baseline and the fresh run is compared on ns/op. Because the
# baseline was measured on a different machine, raw ratios are normalized
# by the median after/before ratio across the whole suite (the machine's
# overall speed factor); a benchmark whose normalized ratio exceeds the
# tolerance (default 10%) regressed relative to its peers and fails the
# gate. Benchmarks whose baseline ns/op is under 1µs skip the timing
# comparison — at nanosecond scale the reading is mostly CPU frequency
# and cache state, not simulator work. allocs/op, which is exact and
# machine-independent, is gated unnormalized at the same tolerance for
# every benchmark, floor included. Baseline benchmarks absent from the
# fresh run (deleted or renamed since the baseline was recorded) are
# listed by name; that list is informational and never fails the gate.
#
# The summary's "commit" field is the short hash of HEAD, suffixed with
# "-dirty" when the working tree differs from HEAD: the numbers then
# measure uncommitted changes on top of that commit, not the commit itself.
set -eu

cd "$(dirname "$0")/.."

out=""
baseline=""
gate=""
tol=10
while [ $# -gt 0 ]; do
    case "$1" in
    -o)        out="$2"; shift 2 ;;
    -baseline) baseline="$2"; shift 2 ;;
    -gate)     gate="$2"; shift 2 ;;
    -tol)      tol="$2"; shift 2 ;;
    *) echo "usage: $0 [-o out.json] [-baseline before.json] [-gate before.json [-tol pct]]" >&2; exit 2 ;;
    esac
done

benchtime="${BENCHTIME:-1x}"
benchcount="${BENCHCOUNT:-1}"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
    commit="$commit-dirty"
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run='^$' -bench=. -short -benchtime="$benchtime" -count="$benchcount" \
    -benchmem . ./internal/sim/ ./internal/disk/ ./internal/ionode/ ./internal/network/ ./internal/pfs/ ./internal/pio/ ./internal/mp/ ./internal/serve/ | tee "$raw" >&2

# Turn `BenchmarkName-N  iters  X ns/op  Y B/op  Z allocs/op` lines into
# JSON, keeping the fastest repetition of each benchmark.
json="$(awk -v commit="$commit" -v benchtime="$benchtime" '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    ns = ""; bop = ""; aop = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns  = $i
        if ($(i+1) == "B/op")      bop = $i
        if ($(i+1) == "allocs/op") aop = $i
    }
    if (ns == "") next
    if (!(name in best)) order[n++] = name
    if (!(name in best) || ns + 0 < best[name] + 0) {
        best[name] = ns; bestb[name] = bop; besta[name] = aop
    }
}
END {
    for (i = 0; i < n; i++) {
        name = order[i]
        if (i) body = body ","
        body = body sprintf("\n    \"%s\": {\"ns_op\": %s", name, best[name])
        if (bestb[name] != "") body = body sprintf(", \"b_op\": %s", bestb[name])
        if (besta[name] != "") body = body sprintf(", \"allocs_op\": %s", besta[name])
        body = body "}"
    }
    printf "{\n  \"commit\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": {%s\n  }\n}\n",
        commit, benchtime, body
}' "$raw")"

if [ -n "$gate" ]; then
    printf '%s\n' "$json" >"$raw"
    # Benchmark lines in our JSON are one per line:
    #     "Name": {"ns_op": N, "b_op": B, "allocs_op": A}
    # so a sed capture turns each file into  name ns_op allocs_op  rows.
    base_t="$(mktemp)"; new_t="$(mktemp)"
    sed -n 's/^ *"\([^"]*\)": {"ns_op": \([0-9.e+]*\)\(, "b_op": [0-9]*, "allocs_op": \([0-9]*\)\)\{0,1\}.*/\1 \2 \4/p' "$gate" >"$base_t"
    sed -n 's/^ *"\([^"]*\)": {"ns_op": \([0-9.e+]*\)\(, "b_op": [0-9]*, "allocs_op": \([0-9]*\)\)\{0,1\}.*/\1 \2 \4/p' "$raw" >"$new_t"
    awk -v tol="$tol" '
    NR == FNR { base_ns[$1] = $2; base_al[$1] = $3; next }
    { new_ns[$1] = $2; new_al[$1] = $3 }
    END {
        n = 0
        for (b in new_ns) if (b in base_ns && base_ns[b] > 0) ratio[n++] = new_ns[b] / base_ns[b]
        if (n == 0) { print "bench gate: no common benchmarks with the baseline" > "/dev/stderr"; exit 1 }
        # median of ratios = the machine speed factor
        m = n
        for (i = 0; i < m; i++) for (j = i + 1; j < m; j++)
            if (ratio[j] < ratio[i]) { t = ratio[i]; ratio[i] = ratio[j]; ratio[j] = t }
        med = (m % 2) ? ratio[int(m/2)] : (ratio[m/2-1] + ratio[m/2]) / 2
        printf "bench gate: %d common benchmarks, machine speed factor %.3f, tolerance %d%%\n", n, med, tol > "/dev/stderr"
        k = 0
        for (b in base_ns) if (!(b in new_ns)) gone[k++] = b
        for (i = 0; i < k; i++) for (j = i + 1; j < k; j++)
            if (gone[j] < gone[i]) { t = gone[i]; gone[i] = gone[j]; gone[j] = t }
        for (i = 0; i < k; i++)
            printf "bench gate: absent from this run (not gated): %s\n", gone[i] > "/dev/stderr"
        fail = 0
        for (b in new_ns) {
            if (!(b in base_ns) || base_ns[b] <= 0) continue
            norm = (new_ns[b] / base_ns[b]) / med
            if (base_ns[b] >= 1000 && norm > 1 + tol / 100.0) {
                printf "bench gate: FAIL %s: ns/op %.0f -> %.0f (%.0f%% over the suite trend)\n",
                    b, base_ns[b], new_ns[b], (norm - 1) * 100 > "/dev/stderr"
                fail = 1
            }
            if (base_al[b] != "" && new_al[b] != "" && base_al[b] > 0 &&
                new_al[b] > base_al[b] * (1 + tol / 100.0)) {
                printf "bench gate: FAIL %s: allocs/op %d -> %d\n", b, base_al[b], new_al[b] > "/dev/stderr"
                fail = 1
            }
        }
        if (fail) exit 1
        print "bench gate: OK — no benchmark regressed beyond tolerance" > "/dev/stderr"
    }' "$base_t" "$new_t" && gate_rc=0 || gate_rc=$?
    rm -f "$base_t" "$new_t"
    [ "$gate_rc" -eq 0 ] || exit 1
fi

if [ -n "$baseline" ]; then
    json="$(printf '{\n"before":\n%s,\n"after":\n%s\n}\n' "$(cat "$baseline")" "$json")"
fi

if [ -n "$out" ]; then
    printf '%s\n' "$json" >"$out"
    echo "wrote $out" >&2
else
    printf '%s\n' "$json"
fi
