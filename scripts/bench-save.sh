#!/bin/sh
# bench-save.sh — run a benchmark smoke and record the perf trajectory.
#
# Writes BENCH_<date>.json in the repo root: the `go test -json` event
# stream of the run, which carries every benchmark result line with its
# timestamp, and echoes the result lines to the console. Commit the file
# to track the trajectory; recover benchstat-format text from a recording
# with the same extraction this script uses:
#
#   grep -o '"Output":"[^"]*"' BENCH_<date>.json \
#     | sed 's/^"Output":"//; s/"$//' | tr -d '\n' \
#     | sed 's/\\n/\n/g; s/\\t/\t/g' | grep -E '^(Benchmark|goos|goarch|pkg|cpu)'
#
# Usage: [GO=go1.x] bench-save.sh [bench-regexp]
# Default records the accuracy-table smoke, the replay scaling benchmark
# and the decode-only trace benchmark in one `go test` run, so every BENCH
# record carries the table trajectory, the events/sec curve and the trace
# decoder's ns/event.
set -eu
bench="${1:-BenchmarkTable1\$|BenchmarkReplayEventsPerSec|BenchmarkTraceDecode\$}"
# One record per run: same-day reruns get a letter suffix instead of
# clobbering the day's earlier record (suffixes sort after the plain name,
# so `ls | sort` stays chronological for bench-compare.sh).
date="$(date +%Y-%m-%d)"
out="BENCH_${date}.json"
for s in b c d e f g h i j k; do
	[ -e "$out" ] || break
	out="BENCH_${date}${s}.json"
done
# -benchtime 5x: the first iteration compiles the accuracy suite into the
# process-wide prepared-workload cache (internal/harness), the rest run
# against it — the steady state a `tables` invocation actually serves, and
# the state the allocs/op trajectory tracks.
"${GO:-go}" test -run '^$' -bench "$bench" -benchtime 5x -benchmem -json . > "$out"
# Provenance trailer: one extra JSON line pinning the commit and the
# host's parallelism, so a BENCH record is interpretable after the fact.
# bench-compare.sh and the recovery grep above only read "Output": lines,
# so the trailer is invisible to them.
sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
# EventsPerSec: the shards-1 replay throughput when the record includes
# the replay benchmark (0 otherwise) — the single-number perf headline a
# record can be skimmed by.
evsec="$(grep -o '"Output":"[^"]*"' "$out" \
	| sed 's/^"Output":"//; s/"$//' | tr -d '\n' \
	| sed 's/\\n/\n/g; s/\\t/\t/g' \
	| awk '/^BenchmarkReplayEventsPerSec\/shards-1/ {
		for (i = 2; i <= NF; i++) if ($i == "events/sec") { print $(i-1); exit }
	}')"
printf '{"BenchMeta":{"Commit":"%s","GoMaxProcs":%s,"NumCPU":%s,"EventsPerSec":%s}}\n' \
	"$sha" "${GOMAXPROCS:-$cpus}" "$cpus" "${evsec:-0}" >> "$out"
grep -o '"Output":"[^"]*"' "$out" \
	| sed 's/^"Output":"//; s/"$//' | tr -d '\n' \
	| sed 's/\\n/\n/g; s/\\t/\t/g' | grep -E '^(Benchmark|goos|goarch|pkg|cpu)' || true
echo "recorded $out"
