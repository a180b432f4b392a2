#!/bin/sh
# serve_e2e.sh — kill-and-restart end-to-end proof for positserve,
# invoked by `make serve-e2e` and as a `make ci` step. The HTTP twin
# of resume_e2e.sh:
#   1. a reference server runs a campaign to completion over HTTP;
#      /metrics must carry a positres-telemetry/v1 snapshot while the
#      campaign is in flight;
#   2. a second server is hard-crashed mid-campaign
#      (-debug-crash-after: os.Exit(137) with no drain) — pending
#      stores must exist, no result CSV or sealed store may be
#      published;
#   3. a third server on the same -data-dir must auto-resume the job
#      to completion with no resubmission;
#   4. the resumed CSVs must be byte-identical to the reference ones;
#   5. SIGTERM must drain each surviving server to exit 0.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
CURL="curl -sS"
TMP=$(mktemp -d)
SRV_PID=""
cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null
	rm -rf "$TMP"
}
trap cleanup EXIT

BIN="$TMP/positserve"
$GO build -o "$BIN" ./cmd/positserve

# Same campaign as resume_e2e.sh: two codecs, 12 shards (16/4 + 32/4),
# so a crash after 2 shards leaves real work unfinished.
BODY='{"fields":["CESM/CLOUD"],"formats":["posit16","ieee32"],"n":20000,"trials_per_bit":100,"seed":5,"bits_per_shard":4}'

# start_server <data-dir> <log> [extra flags...] — launches positserve
# on a random port and sets BASE/SRV_PID.
start_server() {
	dir=$1
	log=$2
	shift 2
	"$BIN" -addr 127.0.0.1:0 -data-dir "$dir" "$@" >"$log" 2>&1 &
	SRV_PID=$!
	addr=""
	for _ in $(seq 1 100); do
		addr=$(sed -n 's|^positserve: listening on http://||p' "$log" | head -n 1)
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "server never reported its address:"
		cat "$log"
		exit 1
	fi
	BASE="http://$addr"
}

# wait_complete <id> — polls campaign status until "complete".
wait_complete() {
	for _ in $(seq 1 600); do
		state=$($CURL "$BASE/v1/campaigns/$1" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n 1)
		[ "$state" = "complete" ] && return 0
		if [ "$state" = "failed" ] || [ "$state" = "cancelled" ]; then
			echo "campaign reached terminal state $state"
			$CURL "$BASE/v1/campaigns/$1"
			exit 1
		fi
		sleep 0.1
	done
	echo "campaign $1 never completed"
	exit 1
}

# fetch_csvs <outdir> <id> — downloads both result CSVs.
fetch_csvs() {
	$CURL -o "$1/posit16.csv" "$BASE/v1/campaigns/$2/results?field=CESM/CLOUD&format=posit16"
	$CURL -o "$1/ieee32.csv" "$BASE/v1/campaigns/$2/results?field=CESM/CLOUD&format=ieee32"
	head -c 200 "$1/posit16.csv" | grep -q '^field,codec,' || {
		echo "downloaded posit16.csv is not a campaign CSV:"
		head -n 3 "$1/posit16.csv"
		exit 1
	}
}

# submit_campaign — POSTs BODY and prints the job id.
submit_campaign() {
	$CURL -X POST -d "$BODY" "$BASE/v1/campaigns" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -n 1
}

echo "--- reference server: run campaign to completion over HTTP"
start_server "$TMP/ref" "$TMP/ref.log"
REF_ID=$(submit_campaign)
[ -n "$REF_ID" ] || { echo "submission returned no job id"; cat "$TMP/ref.log"; exit 1; }

# Acceptance: /metrics serves a positres-telemetry/v1 snapshot during
# the run.
$CURL "$BASE/metrics" | grep -q '"schema": "positres-telemetry/v1"' || {
	echo "/metrics missing the positres-telemetry/v1 snapshot"
	exit 1
}
echo "metrics snapshot OK"

wait_complete "$REF_ID"
mkdir -p "$TMP/ref-csv"
fetch_csvs "$TMP/ref-csv" "$REF_ID"

echo "--- SIGTERM must drain the reference server to exit 0"
kill -TERM "$SRV_PID"
status=0
wait "$SRV_PID" || status=$?
SRV_PID=""
if [ "$status" -ne 0 ]; then
	echo "expected exit 0 from graceful drain, got $status"
	cat "$TMP/ref.log"
	exit 1
fi

echo "--- crash server: simulated hard crash after 2 shards"
start_server "$TMP/crash" "$TMP/crash.log" -campaign-workers 1 -debug-crash-after 2
CRASH_ID=$(submit_campaign)
[ -n "$CRASH_ID" ] || { echo "crash submission returned no job id"; exit 1; }
status=0
wait "$SRV_PID" || status=$?
SRV_PID=""
if [ "$status" -ne 137 ]; then
	echo "expected exit 137 from the crash server, got $status"
	cat "$TMP/crash.log"
	exit 1
fi
if ! ls "$TMP/crash/jobs/$CRASH_ID/state/"*.pts.pending >/dev/null 2>&1; then
	echo "no pending store survived the crash"
	exit 1
fi
if ls "$TMP/crash/jobs/$CRASH_ID/"*.csv "$TMP/crash/jobs/$CRASH_ID/state/"*.pts >/dev/null 2>&1; then
	echo "partial CSV or store published after a crash"
	exit 1
fi

echo "--- restart on the same data dir: job must auto-resume, no resubmission"
start_server "$TMP/crash" "$TMP/restart.log"
wait_complete "$CRASH_ID"
$CURL "$BASE/v1/campaigns/$CRASH_ID" | grep -q '"resumed": [1-9]' || {
	echo "resumed shard count is zero; the pending store was not recovered"
	$CURL "$BASE/v1/campaigns/$CRASH_ID"
	exit 1
}
mkdir -p "$TMP/crash-csv"
fetch_csvs "$TMP/crash-csv" "$CRASH_ID"
kill -TERM "$SRV_PID"
status=0
wait "$SRV_PID" || status=$?
SRV_PID=""
[ "$status" -eq 0 ] || { echo "restart server drain exited $status"; exit 1; }

echo "--- resumed outputs must be byte-identical to the reference"
for name in posit16.csv ieee32.csv; do
	cmp "$TMP/ref-csv/$name" "$TMP/crash-csv/$name"
	echo "identical: $name"
done

echo "serve e2e: OK"
