#!/bin/sh
# Tier-1 gate: gofmt, vet, build, full test suite, then the race-detector pass.
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
#
# Usage: scripts/check.sh [STAGE...].  With no argument every stage runs,
# in order; otherwise only the named ones, in the order given.  The
# stages are listed in $stages below; CI runs each one as its own job
# through this script.
set -eu
cd "$(dirname "$0")/.."

stage="startup"
smokeout="$(mktemp)"
trap 'status=$?; rm -f "$smokeout"; if [ "$status" -ne 0 ]; then echo "check.sh: FAILED at stage: $stage" >&2; fi' EXIT

# sh has no pipefail, so a `cmd | grep -q` smoke gates on grep alone: a
# command that prints its expected line and then fails would pass.  So
# every smoke runs its command through smoke, which captures stdout and
# stderr in $smokeout and fails on any exit status but the expected one,
# and then matches the capture with expect.
#
# smoke WANT CMD...: run CMD; fail, printing its output, unless it exits WANT.
smoke() {
	want=$1
	shift
	rc=0
	"$@" >"$smokeout" 2>&1 || rc=$?
	if [ "$rc" -ne "$want" ]; then
		echo "check.sh: exit status $rc, want $want, from: $*" >&2
		cat "$smokeout" >&2
		return 1
	fi
}
# expect GREP-ARGS...: require the last smoke's output to match.
expect() {
	if ! grep -q "$@" "$smokeout"; then
		echo "check.sh: no match for grep $* in the output of the last smoke:" >&2
		cat "$smokeout" >&2
		return 1
	fi
}

stage_gofmt() {
	stage="gofmt"
	# Every Go file in the tree, the nested bench module's included, is
	# gofmt-clean; a listed file fails the gate by name.
	unformatted="$(gofmt -l .)"
	if [ -n "$unformatted" ]; then
		echo "gofmt: these files need formatting (run gofmt -w):" >&2
		echo "$unformatted" >&2
		exit 1
	fi
}

stage_vet() {
	stage="go vet"
	go vet ./...
}

stage_build() {
	stage="go build"
	go build ./...
}

stage_test() {
	stage="go test (full suite)"
	go test -timeout 20m ./...
}

stage_experiments() {
	stage="experiments (one command per result)"
	# cmd/experiments is the one regeneration command for every result a
	# program prints.  Named here so a drift fails by name: the golden test
	# diffs the deterministic tables (E1-E4, E12, E13's two-free-state rows)
	# against EXPERIMENTS.md by experiment and row, TestExperimentsRun runs
	# every experiment's own checks (witness replays, live agreement, chaos
	# certification), and the orphan-package test fails on an internal
	# package that nothing imports and no EXPERIMENTS.md result names.  Then
	# the E4 facts print from the command itself.
	go test -count=1 -timeout 5m \
		-run 'TestExperimentsGolden|TestExperimentsRun|TestNoOrphanPackages|TestE13Census' \
		./cmd/experiments/
	smoke 0 go run ./cmd/experiments -only e4
	expect -F -- '- counter-walk at n=3 (all schedules & coins): safe, exhaustively (124748 configs)'
}

stage_consensus() {
	stage="live consensus smoke"
	# cmd/consensus runs the live protocols: the step machines of package
	# protocol, run by consensus.Machine, and the two live-only
	# constructions.  The fault-free table must show every default protocol
	# with its objects and registers columns; the chaos form exits non-zero
	# on any trial that breaks agreement, validity or wait-freedom.
	smoke 0 go run ./cmd/consensus -n 8 -trials 3
	expect -E '^cas +1 +0 '
	expect -E '^counter-walk +3 +0 '
	expect -E '^packed-fetch&add +1 +0 '
	expect -E '^registers +0 +26 '
	expect -E '^counter-walk/registers +0 +24 '
	smoke 0 go run ./cmd/consensus -n 8 -crash 2 -chaos-seed 7
	expect -F 'counter-walk/registers'
}

stage_linearizable() {
	stage="live objects linearizable (E10, race)"
	# E10 under the race detector: one recorded runtime.Object of each of the
	# ten object types, hammered with an op mix from its type's Ops, must
	# check linearizable; the checker must still catch a broken counter (also
	# under fault injection) and check long histories by windows; and every
	# object of the live cas and sticky Machines (n = 8) and of the four n = 2
	# warm-ups, recorded whole, must check linearizable while the processes
	# agree.
	go test -race -count=1 -timeout 5m \
		-run 'TestLiveObjectsLinearizable|TestCheckerDetectsBrokenCounter|TestCheckWindowsLongHistory|TestBrokenObjectCaughtUnderInjection|TestMachineObjectsLinearizable' \
		./internal/linearizability/ ./internal/consensus/
}

stage_race() {
	stage="go test -race -short"
	go test -race -short -timeout 10m ./...
}

stage_dist_race() {
	stage="dist race (full, internal/dist)"
	# The -short race pass above skips nothing in internal/dist today, but
	# the distributed runtime is the code most likely to grow long tests
	# behind -short; pin a full (non-short) race pass over it explicitly.
	go test -race -timeout 10m ./internal/dist/
	# Dispatch by free worker and admission by the one visited set, named
	# so a regression fails by name: a batch is capped at batchSize, a dead
	# worker's items return to the one frontier queue, the reference job
	# (counter-walk n = 3) fits in at most 1,000 batches, a held report does
	# not pin its coordinator, ids are admission indices, and an ack whose
	# emit names a parent outside its batch is refused with its connection.
	go test -count=1 -timeout 5m \
		-run 'TestPumpBatchShape|TestLoopbackBatchesPerJob|TestReportDoesNotPinCoordinator|TestAdmissionIDs|TestEmitParentRefused' \
		./internal/dist/
}

stage_dist_loopback() {
	stage="dist loopback smoke"
	# End-to-end cluster smoke: coordinator plus two in-process TCP workers
	# must reproduce the serial verdict on a small exhaustive job.
	smoke 0 go run ./cmd/distcheck -loopback 2 -protocol counter-walk -n 2 -all
	expect "SAFE"
}

stage_dist_chaos() {
	stage="dist-chaos smoke"
	# Self-healing smoke: the same cluster behind the deterministic
	# network-chaos proxy (seeded delays, duplicates, reorders,
	# truncations, cuts) must still report SAFE.  A frame is lost only with
	# its connection; the heartbeat is tuned down so a frame the proxy
	# holds back for a reorder is released by the next ping within
	# milliseconds, and the seed makes a failure reproducible verbatim.  The
	# job is the n = 3 sweep (124,748 configurations over 8 vectors), big
	# enough that the chaos reliably lands: the recovery line must show at
	# least one worker death and at least one chaos event.  The
	# worker-kill-under-chaos and coordinator-kill + checkpoint-resume
	# drills then run as their dedicated differential tests.
	smoke 0 go run ./cmd/distcheck -loopback 3 -protocol counter-walk -n 3 -all \
		-chaos-net-seed 7 -heartbeat 25ms -dead-after 500ms
	expect "SAFE"
	expect -E '^recovery: .*, [1-9][0-9]* worker deaths,.*; [1-9][0-9]* chaos events'
	go test -run 'TestChaosWorkerKillMidRun|TestCoordinatorRestartResume' \
		-count=1 -timeout 5m ./internal/dist/
}

stage_shard_race() {
	stage="shard-engine race smoke"
	# The shard-owned exploration engine is the hot path every certificate
	# now rides; pin a focused non-short race pass over its hand-off queues,
	# arena recycling, and the engine differential matrix, so a data race in
	# the sharded engine fails the gate by name even if the broad -short
	# race pass above is ever narrowed.  The explore pass also covers
	# explore.Each, the index fan-out the all-inputs sweep, the hierarchy
	# search and the distributed worker run on (TestEach*: every index once,
	# worker ids in range, a stop leaves a claimed prefix).  The RAM and
	# spill tiers run one expand callback over the one move rule
	# (valency.Options.Successors), so the valency pass covers both tiers
	# and the rule itself.  The visited set rides along: the key table's
	# fuzz seed corpus (FuzzKeyTable: collisions, grows, resets, persist-mark
	# walks) and the sharded engine's memory pins, at most 550 allocated
	# bytes per configuration on a one-worker counter-walk n = 3 run (one
	# worker, so the reading does not depend on scheduling) and at most
	# 400 KiB for a tiny n = 2 job (TestShardedAllocBytesPerConfig,
	# TestShardedSmallJobAllocs).  So does the key every engine merges on:
	# TestStateKeyCongruence requires configurations with equal visit keys
	# to behave identically across the zoo, and fails by name when a state's
	# AppendKey drops a field that matters.  The serial engine and Bivalence
	# admit through the same key set (explore.KeySet): the budget stops are
	# pinned (TestBudgetStopsPinned), and Bivalence must equal its map-keyed
	# reference on every zoo entry, critical trace included
	# (TestBivalenceMatchesReference).
	go test -race -count=1 -timeout 10m \
		-run 'TestRunShardedRecycleStress|TestRunShardedMatchesSerialReach|TestQuickShardedOrderIndependence|TestEachHandsOutEveryIndexOnce|TestEachStop|FuzzKeyTable' \
		./internal/explore/
	go test -race -count=1 -timeout 10m \
		-run 'TestShardedStripedSerialMatrix|TestShardedEnginesAgreeAcrossWorkerCounts|TestSuccessors|TestCheckSpillDifferential|TestShardedAllInputsDifferential|TestShardedAllocBytesPerConfig|TestShardedSmallJobAllocs|TestStateKeyCongruence|TestBudgetStopsPinned|TestBivalenceMatchesReference' \
		./internal/valency/
}

stage_spill() {
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
	# compaction and corruption drills ride a second focused invocation,
	# with checkd's shape (checkpoints, no hot budget): its kill rows, a
	# census that counts a key held in RAM and in a run once, and cuts
	# that persist each key once and never probe the disk.  The cold-probe
	# pins ride along: a probe's allocation and read budget, compaction and
	# resume in both the writers' block layout and the older 256-entry one,
	# and (TestCheckSpillBeyondMemBudget's spill-evict row) at most 2 KiB
	# read per block on the benchmark's job.
	go test -race -short -count=1 -timeout 15m \
		-run 'TestCheckSpillBeyondMemBudget|TestCheckSpillFaultSoak|TestCheckAllInputsSpillKillResume|TestSpillRefusesDirtyDir' \
		./internal/valency/
	go test -race -short -count=1 -timeout 10m \
		-run 'TestSpillKillResume|TestSpillFaultSoak|TestSpillResumeRefusesCorruption|TestSpillCheckpointCleanFinish|TestSpillCensusRetainedHotSet|TestSpillCheckpointPersistsOnce|TestSpillProbeBudget|TestCompactionMatchesFlushOfUnion|TestSpillResumeOtherBlockLayout' \
		./internal/explore/
	# End-to-end CLI drill: a budget that truncates the in-RAM run must
	# complete exhaustively ("SAFE") through -spill-dir.
	spilldir="$(mktemp -d)"
	smoke 0 go run ./cmd/modelcheck -protocol counter-walk -n 2 -workers 2 -mem-budget 4096 -spill-dir "$spilldir"
	expect "SAFE"
	rm -rf "$spilldir"
	# Every CLI resolves the one registry (internal/zoo): a machine
	# coordinate, here the census's lowest-id sticky-bit solver, checks
	# SAFE through modelcheck exactly as through distcheck and checkd.
	smoke 0 go run ./cmd/modelcheck -protocol machine:sticky-bit:2:26863 -n 2
	expect SAFE
}

stage_service() {
	stage="service smoke"
	# Checker-as-a-service drill, in two parts.  First the focused race
	# pass over the coordinator's scheduler, restart/resume and kill drills
	# (the multi-second drills hide behind -short in the broad race pass
	# above, so pin them here by name), and three rounds of the commit-path
	# drills: no fsync under Server.mu or Store.mu (a lock-order mistake
	# there fails by name here instead of hanging a benchmark workload), a
	# disk kill at every operation of two concurrent jobs' lifecycle, one
	# writer per record, and coalesced artifact writes.  The pass also
	# holds the restart drills (a checkpoint the daemon cannot resume —
	# another worker count, another manifest version, a cut-short vector
	# cursor — restarts the job from its spec to the serial verdict) and
	# the FS-seam test (every file under the data directory went through
	# Config.FS).  Then the live-daemon drill: start
	# checkd on an ephemeral port, probe it, run a job to its verdict
	# through the API, submit a second job asynchronously, SIGTERM the
	# daemon mid-run (graceful drain to checkpoints), restart it over the
	# same data directory with another -workers, and require the drained
	# job to finish with a verdict document served from the
	# content-addressed store.
	go test -race -count=1 -timeout 10m \
		-run 'TestTenantFairness|TestDuplicateSubmission|TestGracefulRestartResume|TestHardKillResume|TestEndToEndLifecycle|TestResumeOtherWorkersRestarts|TestStaleManifestRestarts|TestCorruptVectorCursorRestarts|TestFSSeamComplete|TestCheckSpillInterruptResume|TestLoopbackInterruptResume' \
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
	smoke 0 "$svcdir/distcheck" -ping "$addr"
	expect "ok"
	smoke 0 "$svcdir/distcheck" -submit "$addr" -tenant smoke -protocol counter-walk -n 2
	expect '"verdict": "safe"'
	jobid="$("$svcdir/distcheck" -submit "$addr" -tenant smoke -protocol counter-walk -n 3 -async)"
	kill -TERM "$checkd_pid"
	wait "$checkd_pid"
	"$svcdir/checkd" -data "$svcdir/data" -listen 127.0.0.1:0 -addr-file "$svcdir/addr2" \
		-max-active 1 -workers 2 &
	checkd_pid=$!
	for _ in $(seq 1 100); do [ -s "$svcdir/addr2" ] && break; sleep 0.1; done
	addr="http://$(cat "$svcdir/addr2")"
	smoke 0 "$svcdir/distcheck" -submit "$addr" -wait-job "$jobid"
	expect '"verdict": "safe"'
	kill -TERM "$checkd_pid"
	wait "$checkd_pid"
	rm -rf "$svcdir"
}

stage_service_chaos() {
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
	# CLI reports the timeout state and exits 1, the status expected here.
	smoke 1 "$lcdir/distcheck" -submit "$lcaddr" -tenant drill -protocol counter-walk -n 4 \
		-job-deadline 1
	expect "hit its deadline"
	# Cancel: a second slow job (distinct seed, distinct job id) is
	# cancelled mid-flight and must finish in the cancelled state.
	cjob="$("$lcdir/distcheck" -submit "$lcaddr" -tenant drill -protocol counter-walk -n 4 -seed 9 -async)"
	# Waiting on it reports the cancelled state and exits 1.
	smoke 0 "$lcdir/distcheck" -submit "$lcaddr" -cancel-job "$cjob"
	expect -E "cancelled|running"
	smoke 1 "$lcdir/distcheck" -submit "$lcaddr" -wait-job "$cjob"
	expect "was cancelled"
	smoke 0 "$lcdir/distcheck" -ping "$lcaddr"
	expect "ok"
	kill -TERM "$lc_pid"
	wait "$lc_pid"
	rm -rf "$lcdir"
}

stage_bench() {
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
	# Fifteen seconds of fuzzing the sharded engine's key table against a
	# map reference under a few-bit fingerprint (finds, inserts, grows,
	# resets and persist-mark walks); its seed corpus runs in the suite too.
	go test -run=NONE -fuzz=FuzzKeyTable -fuzztime=15s -timeout 5m ./internal/explore
	# The protocol-space search compiles every table into per-sweep scratch
	# buffers, one set per fan-out subtree, and runs both solo-prefilter
	# stages on a per-sweep scratch configuration; a focused race pass over
	# the parallel search, the Check hook and the prefilter's agreement-stage
	# differential (which ends in a Workers: 2 search) names a sweep that
	# shares them.  (BenchmarkTinySweep, the benchmark's tiny-sweep op
	# in-tree, ran once in the -bench=. pass above.)
	go test -race -count=1 -timeout 5m -run 'TestSearchParallelMatchesSerial|TestSearchWithCheckHook|TestAgreementFilterMatchesReference' ./internal/hierarchy/
	# The nested bench module's own tests (~2 s), which nothing above runs:
	# among them the verifySweep/expected.json checks that hold the
	# hierarchy census (36 864 / 36, 20 736 / 0) to theory.
	(cd bench && go test -short -timeout 5m ./...)
	# The repo's benchmark (BENCHMARK.json -> bench/, a nested module the
	# commands above never build): 1 warm-up + 2 ops of all six workloads,
	# non-zero exit on a wrong verdict or a failed op, and the timeout turns
	# a hung workload into a red gate here instead of in the pipeline.
	timeout 300 bash bench/run.sh --smoke
}

stages="gofmt vet build test experiments consensus linearizable race dist-race dist-loopback dist-chaos shard-race spill service service-chaos bench"
stage="arguments"
[ $# -gt 0 ] || set -- $stages
for s in "$@"; do
	case " $stages " in
	*" $s "*) ;;
	*)
		echo "check.sh: no stage named '$s'; the stages are: $stages" >&2
		exit 2
		;;
	esac
done
for s in "$@"; do
	"stage_$(echo "$s" | tr - _)"
done
stage="done"
echo "check.sh: all stages passed: $*"
