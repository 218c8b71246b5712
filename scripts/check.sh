#!/bin/sh
# Tier-1 gate: vet, build, full test suite, then the race-detector pass.
#
# The race pass runs in -short mode: it exists to catch data races in the
# parallel exploration engine and the live-world objects, and the deep
# (multi-minute) certificates add nothing racy while multiplying the
# ~10x race-detector slowdown.  Run `go test ./...` without -short for
# the full certificates (included below, before the race pass).
#
# Every test invocation carries an explicit -timeout so a wedged run (a
# deadlocked live protocol, a runaway exploration) fails the gate with a
# goroutine dump instead of hanging CI, and each stage is named on exit
# so a red gate says which rung broke.
set -eu
cd "$(dirname "$0")/.."

stage="startup"
trap 'status=$?; if [ "$status" -ne 0 ]; then echo "check.sh: FAILED at stage: $stage" >&2; fi' EXIT

stage="go vet"
go vet ./...
stage="go build"
go build ./...
stage="go test (full suite)"
go test -timeout 20m ./...
stage="go test -race -short"
go test -race -short -timeout 10m ./...
stage="dist race (full, internal/dist)"
# The -short race pass above skips nothing in internal/dist today, but
# the distributed runtime is the code most likely to grow long tests
# behind -short; pin a full (non-short) race pass over it explicitly.
go test -race -timeout 10m ./internal/dist/
stage="dist loopback smoke"
# End-to-end cluster smoke: coordinator plus two in-process TCP workers
# must reproduce the serial verdict on a small exhaustive job.
go run ./cmd/distcheck -loopback 2 -shards 8 -protocol counter-walk -n 2 -all | grep -q "SAFE"
stage="dist-chaos smoke"
# Self-healing smoke: the same cluster behind the deterministic
# network-chaos proxy (seeded drops, delays, duplicates, reorders,
# truncations, cuts) must still report SAFE.  The recovery clocks are
# tuned down so dropped frames cost milliseconds, not the production
# 10s timeouts; the seed makes a failure reproducible verbatim.  The
# worker-kill-under-chaos and coordinator-kill + checkpoint-resume
# drills then run as their dedicated differential tests.
go run ./cmd/distcheck -loopback 3 -shards 8 -protocol counter-walk -n 2 -all \
	-chaos-net-seed 7 -heartbeat 25ms -dead-after 500ms | grep -q "SAFE"
go test -run 'TestChaosWorkerKillMidRun|TestCoordinatorRestartResume' \
	-count=1 -timeout 5m ./internal/dist/
stage="shard-engine race smoke"
# The shard-owned exploration engine is the hot path every certificate
# now rides; pin a focused non-short race pass over its hand-off queues,
# arena recycling, and the engine differential matrix, so a data race in
# the sharded engine fails the gate by name even if the broad -short
# race pass above is ever narrowed.
go test -race -count=1 -timeout 10m \
	-run 'TestRunShardedRecycleStress|TestRunShardedMatchesSerialReach|TestQuickShardedOrderIndependence' \
	./internal/explore/
go test -race -count=1 -timeout 10m \
	-run 'TestShardedStripedSerialMatrix|TestShardedEnginesAgreeAcrossWorkerCounts' \
	./internal/valency/
stage="spill smoke (beyond-RAM engine)"
# The disk-tiered engine's robustness drills, under the race detector:
# a run the in-RAM checker truncates under -mem-budget must complete
# exactly when spilling; a sweep killed at several disk-operation
# counts must degrade honestly and then resume to the uninterrupted
# verdict; the seeded disk-fault soak must never turn an injected
# fault into a wrong verdict; and stale or corrupt spill state must be
# refused, never silently mixed in.  (-short trims the soak to 8
# seeds under the ~10x race slowdown; the full 32-seed soak runs in
# the non-race full-suite stage above.)  The explore-level kill,
# compaction and corruption drills ride a second focused invocation.
go test -race -short -count=1 -timeout 15m \
	-run 'TestCheckSpillBeyondMemBudget|TestCheckSpillFaultSoak|TestCheckAllInputsSpillKillResume|TestSpillRefusesDirtyDir' \
	./internal/valency/
go test -race -short -count=1 -timeout 10m \
	-run 'TestSpillKillResume|TestSpillFaultSoak|TestSpillResumeRefusesCorruption|TestSpillCheckpointCleanFinish' \
	./internal/explore/
# End-to-end CLI drill: a budget that truncates the in-RAM run must
# complete exhaustively ("SAFE") through -spill-dir.
spilldir="$(mktemp -d)"
go run ./cmd/modelcheck -protocol counter-walk -n 2 -workers 2 -mem-budget 4096 -spill-dir "$spilldir" | grep -q "SAFE"
rm -rf "$spilldir"
stage="service smoke"
# Checker-as-a-service drill, in two parts.  First the focused race
# pass over the coordinator's scheduler, restart/resume and kill drills
# (the multi-second drills hide behind -short in the broad race pass
# above, so pin them here by name), and three rounds of the commit-path
# drills: no fsync under Server.mu or Store.mu (a lock-order mistake
# there fails by name here instead of hanging a benchmark workload), a
# disk kill at every operation of two concurrent jobs' lifecycle, one
# writer per record, and coalesced artifact writes.  Then the
# live-daemon drill: start
# checkd on an ephemeral port, probe it, run a job to its verdict
# through the API, submit a second job asynchronously, SIGTERM the
# daemon mid-run (graceful drain to checkpoints), restart it over the
# same data directory, and require the drained job to resume and finish
# with a verdict document served from the content-addressed store.
go test -race -count=1 -timeout 10m \
	-run 'TestTenantFairness|TestDuplicateSubmission|TestGracefulRestartResume|TestHardKillResume|TestEndToEndLifecycle|TestCheckSpillInterruptResume|TestLoopbackInterruptResume' \
	./internal/service/ ./internal/valency/ ./internal/dist/
go test -race -count=3 -timeout 10m \
	-run 'TestNoFsyncUnderLock|TestCommitCrashSweep|TestCommitOneWriterPerRecord|TestStorePutCoalesces' \
	./internal/service/
svcdir="$(mktemp -d)"
go build -o "$svcdir/checkd" ./cmd/checkd
go build -o "$svcdir/distcheck" ./cmd/distcheck
"$svcdir/checkd" -data "$svcdir/data" -listen 127.0.0.1:0 -addr-file "$svcdir/addr" \
	-max-active 1 -workers 1 &
checkd_pid=$!
for _ in $(seq 1 100); do [ -s "$svcdir/addr" ] && break; sleep 0.1; done
addr="http://$(cat "$svcdir/addr")"
"$svcdir/distcheck" -ping "$addr" | grep -q "ok"
"$svcdir/distcheck" -submit "$addr" -tenant smoke -protocol counter-walk -n 2 \
	| grep -q '"verdict": "safe"'
jobid="$("$svcdir/distcheck" -submit "$addr" -tenant smoke -protocol counter-walk -n 3 -async)"
kill -TERM "$checkd_pid"
wait "$checkd_pid"
"$svcdir/checkd" -data "$svcdir/data" -listen 127.0.0.1:0 -addr-file "$svcdir/addr2" \
	-max-active 1 -workers 1 &
checkd_pid=$!
for _ in $(seq 1 100); do [ -s "$svcdir/addr2" ] && break; sleep 0.1; done
addr="http://$(cat "$svcdir/addr2")"
"$svcdir/distcheck" -submit "$addr" -wait-job "$jobid" | grep -q '"verdict": "safe"'
kill -TERM "$checkd_pid"
wait "$checkd_pid"
rm -rf "$svcdir"
stage="service chaos (lifecycle drill)"
# The job-lifecycle hardening, in two parts.  First the focused race
# pass over deadlines, cancellation, classified retry with backoff,
# tenant quotas, panic isolation, the submit storm and the end-to-end
# service chaos soak (seeded disk faults + engine kill + deadline and
# cancel storms across two tenants).  Then the live-daemon drill: a
# 1-second deadline on a multi-second job must land it in the timeout
# state, a cancelled job must land in cancelled, and the daemon must
# answer "ok" on /v1/healthz throughout.
go test -race -short -count=1 -timeout 15m \
	-run 'TestServiceChaosSoak|TestDeadlineTimesOutRunningJob|TestDeadlineTimesOutQueuedJob|TestCancelQueuedJob|TestCancelRunningJob|TestTransientFailureRetriesToSerialVerdict|TestRetryBudgetExhausted|TestPanicIsolation|TestSubmitStormQuotaFairness|TestGlobalQueueBound|TestClientHonorsRetryAfter|TestRunShardedWorkerPanic' \
	./internal/service/ ./internal/explore/
lcdir="$(mktemp -d)"
go build -o "$lcdir/checkd" ./cmd/checkd
go build -o "$lcdir/distcheck" ./cmd/distcheck
"$lcdir/checkd" -data "$lcdir/data" -listen 127.0.0.1:0 -addr-file "$lcdir/addr" \
	-max-active 2 -workers 1 &
lc_pid=$!
for _ in $(seq 1 100); do [ -s "$lcdir/addr" ] && break; sleep 0.1; done
lcaddr="http://$(cat "$lcdir/addr")"
# Deadline: a 1s budget on a multi-minute n=4 job reliably expires; the
# CLI reports the timeout state (grep owns the pipeline status, so
# distcheck's deliberate non-zero exit does not trip set -e).
"$lcdir/distcheck" -submit "$lcaddr" -tenant drill -protocol counter-walk -n 4 \
	-job-deadline 1 2>&1 | grep -q "hit its deadline"
# Cancel: a second slow job (distinct seed, distinct job id) is
# cancelled mid-flight and must finish in the cancelled state.
cjob="$("$lcdir/distcheck" -submit "$lcaddr" -tenant drill -protocol counter-walk -n 4 -seed 9 -async)"
"$lcdir/distcheck" -submit "$lcaddr" -cancel-job "$cjob" | grep -Eq "cancelled|running"
"$lcdir/distcheck" -submit "$lcaddr" -wait-job "$cjob" 2>&1 | grep -q "was cancelled"
"$lcdir/distcheck" -ping "$lcaddr" | grep -q "ok"
kill -TERM "$lc_pid"
wait "$lc_pid"
rm -rf "$lcdir"
stage="bench smoke"
# One iteration of every in-tree benchmark: keeps the benchmark suites
# compiling and their invariant checks (clean-verification assertions)
# honest without paying for a measurement run; bench/run.sh (below, and
# in full outside the gate) does the real measurement.
go test -run=NONE -bench=. -benchtime=1x -timeout 15m ./...
# Fifteen seconds of fuzzing the in-place solo walk against its recursive
# reference (random protocol, process count, reachable configuration and
# budget); the seed corpus alone already runs in the suite above.
go test -run=NONE -fuzz=FuzzSoloTerminate -fuzztime=15s -timeout 5m ./internal/sim
# The nested bench module's own tests (~2 s), which nothing above runs:
# among them the verifySweep/expected.json checks that hold the
# hierarchy census (36 864 / 36, 20 736 / 0) to theory.
(cd bench && go test -short -timeout 5m ./...)
# The repo's benchmark (BENCHMARK.json -> bench/, a nested module the
# commands above never build): 1 warm-up + 2 ops of all six workloads,
# non-zero exit on a wrong verdict or a failed op, and the timeout turns
# a hung workload into a red gate here instead of in the pipeline.
timeout 300 bash bench/run.sh --smoke
stage="done"
echo "check.sh: all stages passed"
