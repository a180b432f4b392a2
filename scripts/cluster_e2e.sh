#!/bin/sh
# cluster_e2e.sh — distributed fan-out end-to-end proof for positserve
# coordinator mode, invoked by `make cluster-e2e` and as a `make ci`
# step (docs/SERVICE.md "Coordinator / worker mode"):
#   1. a single-node server runs the reference campaign to completion —
#      the serial baseline;
#   2. a coordinator plus three workers runs the same campaign with
#      every shard dispatched over HTTP: two workers are named on the
#      coordinator's -workers flag, the third self-registers via
#      -register (POST /v1/workers), so both enrolment paths are
#      exercised;
#   3. one worker is hard-killed (SIGKILL) mid-campaign — the
#      coordinator must retry its failed dispatches on the surviving
#      workers and still complete;
#   4. the distributed CSVs must be byte-identical to the serial ones;
#   5. the coordinator's /metrics must carry per-worker cluster gauges,
#      a nonzero reassignment count after the kill, and nonzero binary
#      wire counters — every shard in a current-version fleet travels
#      as a packed frame (docs/WIRE.md), so wire_frames > 0 and
#      wire_bytes > 0 with zero CSV fallbacks.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
CURL="curl -sS"
TMP=$(mktemp -d)
PIDS=""
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT

BIN="$TMP/positserve"
$GO build -o "$BIN" ./cmd/positserve

# Same field/formats as serve_e2e.sh but 2 bits per shard (24 shards:
# 16/2 + 32/2) and a much larger field/trial budget, so shards take
# long enough that killing a worker mid-run leaves real work to
# re-dispatch. Workers generate the field once and reuse it across
# shards, so a shard's time is set by its trials: 2000 per bit.
BODY='{"fields":["CESM/CLOUD"],"formats":["posit16","ieee32"],"n":200000,"trials_per_bit":2000,"seed":5,"bits_per_shard":2}'

# start_node <data-dir> <log> [extra flags...] — launches positserve on
# a random port and sets NODE_BASE/NODE_PID.
start_node() {
	dir=$1
	log=$2
	shift 2
	"$BIN" -addr 127.0.0.1:0 -data-dir "$dir" "$@" >"$log" 2>&1 &
	NODE_PID=$!
	PIDS="$PIDS $NODE_PID"
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
	NODE_BASE="http://$addr"
}

# submit_campaign <base> — POSTs BODY and prints the job id.
submit_campaign() {
	$CURL -X POST -d "$BODY" "$1/v1/campaigns" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -n 1
}

# wait_complete <base> <id> — polls campaign status until "complete".
wait_complete() {
	for _ in $(seq 1 600); do
		state=$($CURL "$1/v1/campaigns/$2" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n 1)
		[ "$state" = "complete" ] && return 0
		if [ "$state" = "failed" ] || [ "$state" = "cancelled" ]; then
			echo "campaign reached terminal state $state"
			$CURL "$1/v1/campaigns/$2"
			exit 1
		fi
		sleep 0.1
	done
	echo "campaign $2 never completed"
	exit 1
}

# fetch_csvs <base> <outdir> <id> — downloads both result CSVs.
fetch_csvs() {
	$CURL -o "$2/posit16.csv" "$1/v1/campaigns/$3/results?field=CESM/CLOUD&format=posit16"
	$CURL -o "$2/ieee32.csv" "$1/v1/campaigns/$3/results?field=CESM/CLOUD&format=ieee32"
	head -c 200 "$2/posit16.csv" | grep -q '^field,codec,' || {
		echo "downloaded posit16.csv is not a campaign CSV:"
		head -n 3 "$2/posit16.csv"
		exit 1
	}
}

echo "--- serial baseline: single node, campaign to completion"
start_node "$TMP/serial" "$TMP/serial.log"
SERIAL_BASE=$NODE_BASE
SERIAL_PID=$NODE_PID
SERIAL_ID=$(submit_campaign "$SERIAL_BASE")
[ -n "$SERIAL_ID" ] || { echo "serial submission returned no job id"; cat "$TMP/serial.log"; exit 1; }
wait_complete "$SERIAL_BASE" "$SERIAL_ID"
mkdir -p "$TMP/serial-csv"
fetch_csvs "$SERIAL_BASE" "$TMP/serial-csv" "$SERIAL_ID"
kill -TERM "$SERIAL_PID"

echo "--- cluster: three workers (two static, one self-registered) + coordinator"
start_node "$TMP/w1" "$TMP/w1.log"
W1_BASE=$NODE_BASE
W1_PID=$NODE_PID
start_node "$TMP/w2" "$TMP/w2.log"
W2_BASE=$NODE_BASE

# -campaign-workers 3: dispatch concurrency must match the fleet size,
# not the coordinator's own core count (shard compute happens remotely).
start_node "$TMP/coord" "$TMP/coord.log" -workers "$W1_BASE,$W2_BASE" -campaign-workers 3 -heartbeat 500ms
COORD_BASE=$NODE_BASE

# Third worker enrols itself over the wire (POST /v1/workers).
start_node "$TMP/w3" "$TMP/w3.log" -register "$COORD_BASE"

# The coordinator must list all three workers before we submit.
nworkers=0
for _ in $(seq 1 100); do
	nworkers=$($CURL "$COORD_BASE/v1/workers" | grep -c '"url":' || true)
	[ "$nworkers" -eq 3 ] && break
	sleep 0.1
done
if [ "$nworkers" -ne 3 ]; then
	echo "coordinator lists $nworkers workers, want 3:"
	$CURL "$COORD_BASE/v1/workers"
	exit 1
fi
echo "3 workers enrolled"

CLUSTER_ID=$(submit_campaign "$COORD_BASE")
[ -n "$CLUSTER_ID" ] || { echo "cluster submission returned no job id"; cat "$TMP/coord.log"; exit 1; }

echo "--- SIGKILL worker 1 mid-campaign"
# Wait until real shards have completed so the victim has been in the
# rotation, then kill it with work still outstanding (24 shards total).
for _ in $(seq 1 600); do
	done_shards=$($CURL "$COORD_BASE/v1/campaigns/$CLUSTER_ID" | sed -n 's/.*"done": \([0-9]*\).*/\1/p' | head -n 1)
	[ -n "$done_shards" ] && [ "$done_shards" -ge 2 ] && break
	sleep 0.05
done
kill -9 "$W1_PID"
echo "killed worker 1 after $done_shards shards"

wait_complete "$COORD_BASE" "$CLUSTER_ID"
mkdir -p "$TMP/cluster-csv"
fetch_csvs "$COORD_BASE" "$TMP/cluster-csv" "$CLUSTER_ID"

echo "--- coordinator /metrics must expose cluster gauges"
metrics=$($CURL "$COORD_BASE/metrics")
echo "$metrics" | grep -q '"schema": "positres-telemetry/v1"' || {
	echo "/metrics missing the positres-telemetry/v1 snapshot"
	exit 1
}
cluster_workers=$(echo "$metrics" | grep -c '"shards_assigned":' || true)
if [ "$cluster_workers" -ne 3 ]; then
	echo "cluster metrics cover $cluster_workers workers, want 3"
	echo "$metrics"
	exit 1
fi
echo "$metrics" | grep -q '"reassignments": [1-9]' || {
	echo "no shard reassignments recorded after killing a worker"
	echo "$metrics"
	exit 1
}
echo "$metrics" | grep -q '"wire_frames": [1-9]' || {
	echo "no binary wire frames recorded; shards did not negotiate the packed encoding"
	echo "$metrics"
	exit 1
}
echo "$metrics" | grep -q '"wire_bytes": [1-9]' || {
	echo "wire_bytes is zero despite binary frames"
	echo "$metrics"
	exit 1
}
echo "$metrics" | grep -q '"wire_csv_fallbacks": 0' || {
	echo "CSV fallbacks recorded in an all-current fleet (version skew?)"
	echo "$metrics"
	exit 1
}
echo "cluster metrics OK (3 workers, reassignments recorded, all shards binary)"

echo "--- distributed outputs must be byte-identical to the serial baseline"
for name in posit16.csv ieee32.csv; do
	cmp "$TMP/serial-csv/$name" "$TMP/cluster-csv/$name"
	echo "identical: $name"
done

echo "cluster e2e: OK"
