#!/bin/sh
# replay-smoke.sh — CI gate for the record/replay path.
#
# Records a workload's event stream with `racedetect -record`, then asserts
# that the live run's report and the replay of the recording are
# byte-identical (fingerprint equality) — the CLI round trip of the
# record/replay contract, cheap enough for every CI run.
#
# Usage: [GO=go] [WORKLOAD=name] replay-smoke.sh
set -eu
GO="${GO:-go}"
workload="${WORKLOAD:-adhoc_spin11_b7_atomic_long}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$GO" build -o "$tmp/racedetect" ./cmd/racedetect
"$tmp/racedetect" -w "$workload" -tool spin -seed 1 -record "$tmp/t.trace" >/dev/null

live="$("$tmp/racedetect" -w "$workload" -tool spin -seed 1 -fingerprint | sed -n 's/^fingerprint=//p')"
replay="$("$tmp/racedetect" -replay "$tmp/t.trace" -fingerprint | sed -n 's/^fingerprint=//p')"
if [ -z "$live" ] || [ -z "$replay" ]; then
	echo "replay-smoke: missing fingerprint (live '$live', replay '$replay')" >&2
	exit 1
fi
if [ "$live" != "$replay" ]; then
	echo "replay-smoke: FAIL: live and replayed reports differ ($live vs $replay)" >&2
	exit 1
fi
echo "replay-smoke: ok — $workload live run and replay byte-identical (fingerprint $live)"
