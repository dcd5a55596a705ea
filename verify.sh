#!/bin/sh
# Tier-1 verification: build, vet, the full test suite under the race
# detector (every parallel path — training fan-out, CV folds, forest
# trees, the extraction worker pool, the feature cache, and the
# cancellation/panic-containment paths — is race-checked on every run),
# the serving benchmark's own build and tests, and short native-fuzz
# smokes over the MiniC parser and the whole per-file analysis pass, the
# panic sources the containment layer most needs to hold against. Ends with a live
# secmetricd smoke: concurrent daemon scores must be byte-identical to a
# CLI run, incremental /v1/delta results must be byte-identical to the
# cold endpoints, the NDJSON streaming endpoints must end with the batch
# bytes, deadlines must 504 without killing the process, a tight queue
# must shed load with 429s, SIGTERM must drain cleanly — and a 3-backend
# fleet behind the consistent-hash shard router must answer the same
# bytes as a solo daemon, coalesce identical bursts, and keep serving
# through a SIGKILLed backend and its recovery.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race -timeout 5m ./...

# The serving benchmark is its own module over this one's internal
# packages: build, vet and test it so an internal API change that stops
# it compiling fails here rather than in a benchmark run.
echo "== servebench (vet + test) =="
(cd servebench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

echo "== fuzz smoke (FuzzParse, 10s) =="
go test -run Fuzz -fuzz FuzzParse -fuzztime 10s ./internal/minic

echo "== fuzz smoke (FuzzAnalyzeFile, 10s) =="
# Each exec runs several whole passes, so a short minimization budget
# keeps the window fuzzing instead of shrinking its first new input.
go test -run Fuzz -fuzz FuzzAnalyzeFile -fuzztime 10s -fuzzminimizetime 1s ./internal/core

echo "== fuzz smoke (FuzzQueryParse, 10s) =="
go test -run Fuzz -fuzz FuzzQueryParse -fuzztime 10s ./internal/store/query

echo "== findings smoke (examples/vulnapp) =="
out=$(go run ./cmd/secmetric findings examples/vulnapp)
echo "$out"
case "$out" in
*CWE-121*) ;;
*)
	echo "findings smoke: expected a CWE-121 finding in examples/vulnapp" >&2
	exit 1
	;;
esac

# Bench smoke: the quick-budget workloads must stay within 25% ns/op of
# the committed post-optimization baseline, so hot-path regressions fail
# verification instead of landing silently.
echo "== bench smoke (secmetric bench -quick vs BENCH_pr10.json) =="
benchtmp=$(mktemp -d)
go run ./cmd/secmetric bench -quick -rev verify -out "$benchtmp/bench.json" \
	-against BENCH_pr10.json -max-regress 0.25
rm -rf "$benchtmp"

# Store smoke: the findings log must survive a crash cutting it mid-append
# losing no acknowledged run (two crash offsets), and queries racing a
# writer must always see a prefix of its appends — the crash torture and
# the concurrency test, run explicitly under the race detector.
echo "== store smoke (crash recovery + snapshot parity) =="
go run ./cmd/storesmoke -crash $((128 * 1024)) -runs 600
go run ./cmd/storesmoke -crash $((300 * 1024)) -runs 1200 -seed 99
go test -race -count=1 -run 'TestSnapshotParityUnderConcurrentWriter|TestCrashRecoveryTorture' ./internal/store/findex

# Rank smoke: the function-level ranking must be byte-identical at any
# worker-pool width, and the acceptance ordering on examples/vulnapp must
# hold (the function reaching three sinks outranks everything, the benign
# input wrapper comes last).
echo "== rank smoke (jobs parity + acceptance ordering) =="
ranktmp=$(mktemp -d)
go run ./cmd/secmetric rank -jobs 1 -json examples/vulnapp > "$ranktmp/j1.json"
go run ./cmd/secmetric rank -jobs 8 -json examples/vulnapp > "$ranktmp/j8.json"
cmp "$ranktmp/j1.json" "$ranktmp/j8.json" || {
	echo "rank smoke: -jobs 1 and -jobs 8 rankings differ" >&2
	exit 1
}
rankout=$(go run ./cmd/secmetric rank -top 10 examples/vulnapp)
echo "$rankout"
first_fn=$(echo "$rankout" | awk '$1 == "1" { print $2 }')
if [ "$first_fn" != "main" ]; then
	echo "rank smoke: expected main at rank 1, got '$first_fn'" >&2
	exit 1
fi
rm -rf "$ranktmp"

# Trace smoke: a traced analysis of examples/vulnapp must produce
# well-formed, non-empty trace_event JSON, and the span structure must be
# identical at -jobs 1 and -jobs 8 (cacheless; only durations may vary).
echo "== trace smoke (analyze -trace on examples/vulnapp) =="
tracetmp=$(mktemp -d)
go run ./cmd/secmetric analyze -jobs 1 -trace "$tracetmp/j1.json" -slowest 3 examples/vulnapp
go run ./cmd/secmetric analyze -jobs 8 -trace "$tracetmp/j8.json" examples/vulnapp > /dev/null
go run ./cmd/tracecheck "$tracetmp/j1.json" "$tracetmp/j8.json"
rm -rf "$tracetmp"

echo "== daemon smoke (secmetricd) =="
smoketmp=$(mktemp -d)
daemon_pid=""
cleanup() {
	if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
		kill "$daemon_pid" 2>/dev/null || true
	fi
	rm -rf "$smoketmp"
}
trap cleanup EXIT

go build -o "$smoketmp/" ./cmd/secmetric ./cmd/secmetricd ./cmd/daemonsmoke
go run ./cmd/trainctl -kind logistic -folds 5 -seed 5 -out "$smoketmp/model.json" >/dev/null
"$smoketmp/secmetric" score -model "$smoketmp/model.json" -json examples/vulnapp > "$smoketmp/cli.json"
"$smoketmp/secmetric" rank -json examples/vulnapp > "$smoketmp/cli-rank.json"

wait_addr() {
	i=0
	while [ ! -s "$smoketmp/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "daemon smoke: daemon never wrote its address" >&2
			exit 1
		fi
		sleep 0.1
	done
}

# Phase 1: a normally provisioned daemon must serve concurrent scores
# byte-identical to the CLI, answer findings/analyze/metrics/reload, trip
# 504 on an impossible deadline without dying — then drain on SIGTERM.
"$smoketmp/secmetricd" -addr 127.0.0.1:0 -addr-file "$smoketmp/addr" \
	-model "$smoketmp/model.json" -workers 4 -queue 32 \
	-cache "$smoketmp/featcache" > "$smoketmp/daemon.log" 2>&1 &
daemon_pid=$!
wait_addr
"$smoketmp/daemonsmoke" -addr "$(cat "$smoketmp/addr")" \
	-dir examples/vulnapp -cli "$smoketmp/cli.json"
# Delta smoke against the same daemon: seed a session, push a 1-file
# change, and hold the incremental report/comparison to byte parity with
# the cold score/compare endpoints.
"$smoketmp/daemonsmoke" -addr "$(cat "$smoketmp/addr")" \
	-dir examples/vulnapp -mode delta
# Rank smoke against the same daemon: /v1/rank must be deterministic
# across repeats and byte-identical to the CLI's -json ranking.
"$smoketmp/daemonsmoke" -addr "$(cat "$smoketmp/addr")" \
	-dir examples/vulnapp -mode rank -cli "$smoketmp/cli-rank.json"
# Streaming smoke against the same daemon: the NDJSON endpoints must fire
# one per-file record per tree file and end with a summary byte-identical
# to the batch response.
"$smoketmp/daemonsmoke" -addr "$(cat "$smoketmp/addr")" \
	-dir examples/vulnapp -mode stream
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
	echo "daemon smoke: SIGTERM drain exited nonzero" >&2
	cat "$smoketmp/daemon.log" >&2
	exit 1
fi
daemon_pid=""
grep -q "drained cleanly" "$smoketmp/daemon.log" || {
	echo "daemon smoke: no clean-drain log line" >&2
	cat "$smoketmp/daemon.log" >&2
	exit 1
}

# Phase 2: a tightly provisioned daemon (1 worker, queue depth 1) must
# shed a 16-request burst with 429s while still serving some requests.
rm -f "$smoketmp/addr"
"$smoketmp/secmetricd" -addr 127.0.0.1:0 -addr-file "$smoketmp/addr" \
	-model "$smoketmp/model.json" -workers 1 -queue 1 \
	-cache "$smoketmp/featcache2" > "$smoketmp/daemon2.log" 2>&1 &
daemon_pid=$!
wait_addr
"$smoketmp/daemonsmoke" -addr "$(cat "$smoketmp/addr")" \
	-dir examples/vulnapp -mode burst -requests 16
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
	echo "daemon smoke: burst daemon drain exited nonzero" >&2
	cat "$smoketmp/daemon2.log" >&2
	exit 1
fi
daemon_pid=""

# Phase 3: the fleet smoke boots a solo daemon, three shard backends, and
# the consistent-hash router itself, then holds the fleet to the solo
# daemon's bytes for score/rank/delta/query, proves a burst of identical
# requests coalesces on the home shard, SIGKILLs one backend mid-burst,
# and requires service through the outage and after the restart.
echo "== fleet smoke (shard router) =="
"$smoketmp/daemonsmoke" -mode fleet -daemon "$smoketmp/secmetricd" \
	-model "$smoketmp/model.json" -dir examples/vulnapp

echo "verify: OK"
