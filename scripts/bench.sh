#!/bin/sh
# Benchmark pipeline for the exploration engines: runs the
# BenchmarkExplore* suites in sim, valency, hierarchy, and universal at
# fixed -benchtime (so runs are comparable), parses the results into
# BENCH_pr3.json (ns/op, allocs/op, configs/sec, dedup ratio, retained
# key bytes per benchmark), and compares the optimized engines against
# the string-key baseline measured in the same run on the same machine:
# BenchmarkExploreParallel carries an engine dimension (baseline =
# LegacyKeys, compact = binary keys + copy-on-write stepping, symmetry =
# compact + identical-process canonicalization), so the acceptance check
# — >= 2x configs/s or >= 4x fewer allocs/op for some optimized engine
# at some worker count — never compares across machines or runs.
#
# A second stage runs BenchmarkExploreDist (internal/dist) and emits
# BENCH_pr4.json comparing a single-process run against a loopback
# cluster (coordinator + 4 TCP workers in one process) on the same job.
# On one machine the cluster measures pure protocol overhead — every
# frontier configuration rides the wire twice — so the acceptance check
# is configuration-count equality (both engines explored the identical
# space), not a speedup; the configs/s of each engine is recorded so a
# multi-machine run has a baseline to beat.
#
# A third stage runs BenchmarkRecoveryOverhead (internal/dist) and emits
# BENCH_pr5.json: the same loopback job over a clean wire versus behind
# the seeded network-chaos proxy, with recovery clocks tuned down so the
# chaos run measures reconnect/re-dispatch work rather than production
# timeouts.  The acceptance check is configuration-count equality across
# the two wires — chaos may slow the run, never change the verdict — and
# the slowdown ratio plus chaos-event and recovery counts are recorded
# so the cost of self-healing is tracked run over run.
#
# A fourth stage re-parses the stage-one raw output into BENCH_pr6.json:
# the multicore scaling record for the shard-owned engine (PR 6).  It
# tabulates configs/s at every worker count for the sharded engine
# (engine=symmetry/compact, which dispatch to explore.RunSharded at
# workers>1) against the legacy lock-striped engine (engine=striped,
# Options.LegacyStriped), plus machines/s for the hierarchy search.  The
# acceptance check is core-aware, because scaling is physically bounded
# by the cores actually present: on >=4 cores the sharded engine must
# reach >=2.5x configs/s at workers=4 vs workers=1 and the hierarchy
# search must no longer be flat (>=1.5x); on fewer cores — where
# workers=1 routes to the clone-free serial engine that any parallel
# engine can at best approach — the gate is instead that the sharded
# engine stays within tolerance of the striped engine it replaces
# (>=0.55x configs/s at the same worker count), i.e. the regression the
# sharding exists to fix on real cores is not reintroduced as a
# single-core penalty.  The core count is recorded in the artifact so a
# reader knows which criterion applied.
#
# A fifth stage runs BenchmarkExploreSpill (internal/valency) and emits
# BENCH_pr7.json: the same exhaustive job explored entirely in RAM
# versus through the disk-tiered engine with a hot tier far smaller
# than the space, so most of the visited set and the deep frontier live
# in spill files.  The acceptance check is configuration-count equality
# — moving the RAM/disk boundary may cost time, never coverage — and
# the slowdown ratio plus flush/compaction/lookup/frontier-spill counts
# are recorded as the price of never truncating under a memory budget.
#
# A sixth stage runs BenchmarkRetryOverhead (internal/service) and
# emits BENCH_pr10.json: the same job run through a healthy daemon
# versus one whose disk deterministically fails the first spill write
# of every job, forcing one classified transient failure + capped
# backoff + checkpoint-resumed re-execution per iteration.  The
# acceptance check is configuration-count equality between the clean
# and retry paths — a retry may cost time, never change the verdict —
# plus proof the retry path actually retried (retries/op >= 1); the
# retry-vs-clean overhead ratio is recorded as the price of the
# failure-recovery machinery.
#
# Usage: scripts/bench.sh [output.json] [dist-output.json] [recovery-output.json] [scaling-output.json] [spill-output.json] [retry-output.json]
#        (defaults: BENCH_pr3.json BENCH_pr4.json BENCH_pr5.json BENCH_pr6.json BENCH_pr7.json BENCH_pr10.json)
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_pr3.json}"
distout="${2:-BENCH_pr4.json}"
recout="${3:-BENCH_pr5.json}"
scaleout="${4:-BENCH_pr6.json}"
spillout="${5:-BENCH_pr7.json}"
retryout="${6:-BENCH_pr10.json}"
raw="$(mktemp)"
distraw="$(mktemp)"
recraw="$(mktemp)"
spillraw="$(mktemp)"
retryraw="$(mktemp)"
trap 'rm -f "$raw" "$distraw" "$recraw" "$spillraw" "$retryraw"' EXIT

cores="$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -1 )"

# Fixed per-package bench budgets: the exploration workloads are
# whole-space runs (one op = one exhaustive check), so 1x is already a
# deterministic, comparable measurement; the sim/universal micro-benches
# need iteration counts to rise above timer noise.
run_bench() {
	pkg="$1"
	benchtime="$2"
	echo "== $pkg (-benchtime=$benchtime)" >&2
	go test -run=NONE -bench='^BenchmarkExplore' -benchtime="$benchtime" -timeout 20m "$pkg" | tee -a "$raw" >&2
}

run_bench ./internal/sim 50000x
run_bench ./internal/valency 1x
run_bench ./internal/hierarchy 1x
run_bench ./internal/universal 2000x

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function jnum(v) { return (v == int(v)) ? sprintf("%.0f", v) : sprintf("%.6g", v) }
/^goos: /  { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /   { sub(/^cpu: /, ""); cpu = $0 }
/^pkg: /   { pkg = $2 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)      # strip the GOMAXPROCS suffix, if any
	iters = $2
	m = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $(i); unit = $(i + 1)
		if (m != "") m = m ", "
		m = m sprintf("\"%s\": %s", unit, jnum(val))
		metric[name, unit] = val
	}
	if (benches != "") benches = benches ",\n"
	benches = benches sprintf("    {\"name\": \"%s\", \"package\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}",
		name, pkg, iters, m)
	order[++nb] = name
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"},\n", goos, goarch, cpu
	printf "  \"benchmarks\": [\n%s\n  ],\n", benches
	# Acceptance: engine=baseline vs engine={compact,symmetry} on
	# BenchmarkExploreParallel, per worker count, same run.
	root = "BenchmarkExploreParallel/engine="
	pass = 0
	comps = ""
	for (b = 1; b <= nb; b++) {
		name = order[b]
		if (index(name, root "baseline/workers=") != 1) continue
		w = substr(name, length(root "baseline/workers=") + 1)
		base_cps = metric[name, "configs/s"]
		base_allocs = metric[name, "allocs/op"]
		for (e = 1; e <= 2; e++) {
			eng = (e == 1) ? "compact" : "symmetry"
			oname = root eng "/workers=" w
			if (!((oname, "configs/s") in metric)) continue
			cps_ratio = (base_cps > 0) ? metric[oname, "configs/s"] / base_cps : 0
			alloc_ratio = (metric[oname, "allocs/op"] > 0) ? base_allocs / metric[oname, "allocs/op"] : 0
			ok = (cps_ratio >= 2 || alloc_ratio >= 4) ? "true" : "false"
			if (ok == "true") pass = 1
			if (comps != "") comps = comps ",\n"
			comps = comps sprintf("      {\"engine\": \"%s\", \"workers\": %s, \"configs_per_sec_ratio\": %.3f, \"allocs_per_op_ratio\": %.3f, \"pass\": %s}",
				eng, w, cps_ratio, alloc_ratio, ok)
		}
	}
	printf "  \"acceptance\": {\n"
	printf "    \"benchmark\": \"BenchmarkExploreParallel\",\n"
	printf "    \"workload\": \"counter-walk n=3, mixed inputs, all schedules and coins\",\n"
	printf "    \"criterion\": \">=2x configs/s or >=4x fewer allocs/op vs engine=baseline, same run\",\n"
	printf "    \"comparisons\": [\n%s\n    ],\n", comps
	printf "    \"pass\": %s\n", (pass ? "true" : "false")
	printf "  }\n"
	printf "}\n"
}
' "$raw" > "$out"

echo "wrote $out"
if ! grep -q '"pass": true' "$out"; then
	echo "bench.sh: FAILED acceptance — no optimized engine reached 2x configs/s or 4x fewer allocs/op" >&2
	exit 1
fi
echo "bench.sh: acceptance passed"

# ---- dist stage: single-process vs loopback-sharded cluster ----
echo "== ./internal/dist (-benchtime=1x)" >&2
go test -run=NONE -bench='^BenchmarkExploreDist' -benchtime=1x -timeout 20m ./internal/dist | tee "$distraw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function jnum(v) { return (v == int(v)) ? sprintf("%.0f", v) : sprintf("%.6g", v) }
/^goos: /  { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /   { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	m = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $(i); unit = $(i + 1)
		if (m != "") m = m ", "
		m = m sprintf("\"%s\": %s", unit, jnum(val))
		metric[name, unit] = val
	}
	# Derived throughput: one op is the whole exhaustive run, so
	# configs/s = configs / (ns/op / 1e9), comparable across engines
	# measured in the same run on the same machine.
	if ((name, "configs") in metric && metric[name, "ns/op"] > 0) {
		cps = metric[name, "configs"] * 1e9 / metric[name, "ns/op"]
		m = m sprintf(", \"configs/s\": %s", jnum(cps))
		metric[name, "configs/s"] = cps
	}
	if (benches != "") benches = benches ",\n"
	benches = benches sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", name, iters, m)
	order[++nb] = name
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"},\n", goos, goarch, cpu
	printf "  \"benchmarks\": [\n%s\n  ],\n", benches
	root = "BenchmarkExploreDist/engine="
	single = root "single"; loop = root "loopback4"
	have = ((single, "configs") in metric) && ((loop, "configs") in metric)
	equal = have && (metric[single, "configs"] == metric[loop, "configs"])
	ratio = (have && metric[single, "configs/s"] > 0) ? metric[loop, "configs/s"] / metric[single, "configs/s"] : 0
	printf "  \"acceptance\": {\n"
	printf "    \"benchmark\": \"BenchmarkExploreDist\",\n"
	printf "    \"workload\": \"counter-walk n=3, inputs 0,1,1, all schedules and coins\",\n"
	printf "    \"criterion\": \"loopback cluster explores the identical configuration count as the single-process engine, same run\",\n"
	printf "    \"single_configs\": %s,\n", have ? jnum(metric[single, "configs"]) : "null"
	printf "    \"loopback4_configs\": %s,\n", have ? jnum(metric[loop, "configs"]) : "null"
	printf "    \"loopback4_vs_single_configs_per_sec_ratio\": %.3f,\n", ratio
	printf "    \"pass\": %s\n", equal ? "true" : "false"
	printf "  }\n"
	printf "}\n"
}
' "$distraw" > "$distout"

echo "wrote $distout"
if ! grep -q '"pass": true' "$distout"; then
	echo "bench.sh: FAILED dist acceptance — loopback cluster and single-process engine disagree on configuration count" >&2
	exit 1
fi
echo "bench.sh: dist acceptance passed"

# ---- recovery stage: clean wire vs seeded network chaos ----
echo "== ./internal/dist recovery (-benchtime=1x)" >&2
go test -run=NONE -bench='^BenchmarkRecoveryOverhead' -benchtime=1x -timeout 20m ./internal/dist | tee "$recraw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function jnum(v) { return (v == int(v)) ? sprintf("%.0f", v) : sprintf("%.6g", v) }
/^goos: /  { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /   { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	m = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $(i); unit = $(i + 1)
		if (m != "") m = m ", "
		m = m sprintf("\"%s\": %s", unit, jnum(val))
		metric[name, unit] = val
	}
	if (benches != "") benches = benches ",\n"
	benches = benches sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", name, iters, m)
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"},\n", goos, goarch, cpu
	printf "  \"benchmarks\": [\n%s\n  ],\n", benches
	root = "BenchmarkRecoveryOverhead/wire="
	clean = root "clean"; chaos = root "chaos"
	have = ((clean, "configs") in metric) && ((chaos, "configs") in metric)
	equal = have && (metric[clean, "configs"] == metric[chaos, "configs"])
	slowdown = (have && metric[clean, "ns/op"] > 0) ? metric[chaos, "ns/op"] / metric[clean, "ns/op"] : 0
	printf "  \"acceptance\": {\n"
	printf "    \"benchmark\": \"BenchmarkRecoveryOverhead\",\n"
	printf "    \"workload\": \"counter-walk n=3, inputs 0,1,1, loopback 4 workers, default chaos plan, fast recovery clocks\",\n"
	printf "    \"criterion\": \"chaos wire explores the identical configuration count as the clean wire, same run\",\n"
	printf "    \"clean_configs\": %s,\n", have ? jnum(metric[clean, "configs"]) : "null"
	printf "    \"chaos_configs\": %s,\n", have ? jnum(metric[chaos, "configs"]) : "null"
	printf "    \"chaos_events\": %s,\n", ((chaos, "chaos-events") in metric) ? jnum(metric[chaos, "chaos-events"]) : "null"
	printf "    \"recoveries\": %s,\n", ((chaos, "recoveries") in metric) ? jnum(metric[chaos, "recoveries"]) : "null"
	printf "    \"chaos_vs_clean_slowdown\": %.3f,\n", slowdown
	printf "    \"pass\": %s\n", equal ? "true" : "false"
	printf "  }\n"
	printf "}\n"
}
' "$recraw" > "$recout"

echo "wrote $recout"
if ! grep -q '"pass": true' "$recout"; then
	echo "bench.sh: FAILED recovery acceptance — chaos wire and clean wire disagree on configuration count" >&2
	exit 1
fi
echo "bench.sh: recovery acceptance passed"

# ---- scaling stage: shard-owned engine vs striped vs serial, per core count ----
# Re-parses the stage-one raw output (same run, same machine): the
# valency BenchmarkExploreParallel engine x workers grid and the
# hierarchy BenchmarkExploreParallel workers ladder.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v cores="$cores" '
function jnum(v) { return (v == int(v)) ? sprintf("%.0f", v) : sprintf("%.6g", v) }
/^goos: /  { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /   { sub(/^cpu: /, ""); cpu = $0 }
/^pkg: /   { pkg = $2 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i + 1 <= NF; i += 2) metric[name, $(i + 1)] = $(i)
	vroot = "BenchmarkExploreParallel/engine="
	if (pkg ~ /internal\/valency$/ && index(name, vroot) == 1) {
		rest = substr(name, length(vroot) + 1)
		split(rest, parts, "/workers=")
		eng = parts[1]; w = parts[2] + 0
		cps[eng, w] = metric[name, "configs/s"]
		if (!(eng in engseen)) { engseen[eng] = ++ne; engname[ne] = eng }
		if (!(w in wseen)) { wseen[w] = ++nw; wval[nw] = w }
	}
	hroot = "BenchmarkExploreParallel/workers="
	if (pkg ~ /internal\/hierarchy$/ && index(name, hroot) == 1) {
		w = substr(name, length(hroot) + 1) + 0
		mps[w] = metric[name, "machines/s"]
		if (!(w in hwseen)) { hwseen[w] = ++nhw; hwval[nhw] = w }
	}
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"cores\": %d},\n", goos, goarch, cpu, cores
	# Per-engine scaling table: configs/s per worker count plus the ratio
	# against the same engine at workers=1 (the serial reference).
	rows = ""
	for (e = 1; e <= ne; e++) {
		eng = engname[e]
		for (i = 1; i <= nw; i++) {
			w = wval[i]
			if (!((eng, w) in cps)) continue
			ratio = (cps[eng, 1] > 0) ? cps[eng, w] / cps[eng, 1] : 0
			if (rows != "") rows = rows ",\n"
			rows = rows sprintf("    {\"engine\": \"%s\", \"workers\": %d, \"configs_per_sec\": %s, \"vs_workers1\": %.3f}",
				eng, w, jnum(cps[eng, w]), ratio)
		}
	}
	printf "  \"exploration_scaling\": [\n%s\n  ],\n", rows
	hrows = ""
	for (i = 1; i <= nhw; i++) {
		w = hwval[i]
		ratio = (mps[1] > 0) ? mps[w] / mps[1] : 0
		if (hrows != "") hrows = hrows ",\n"
		hrows = hrows sprintf("    {\"workers\": %d, \"machines_per_sec\": %s, \"vs_workers1\": %.3f}",
			w, jnum(mps[w]), ratio)
	}
	printf "  \"hierarchy_scaling\": [\n%s\n  ],\n", hrows
	# Core-aware acceptance.
	multicore = (cores >= 4)
	pass = 1; checks = ""
	if (multicore) {
		ok1 = 0
		if ((("compact", 4) in cps) && cps["compact", 1] > 0 && cps["compact", 4] >= 2.5 * cps["compact", 1]) ok1 = 1
		if ((("symmetry", 4) in cps) && cps["symmetry", 1] > 0 && cps["symmetry", 4] >= 2.5 * cps["symmetry", 1]) ok1 = 1
		checks = sprintf("      {\"check\": \"sharded workers=4 >= 2.5x workers=1 (compact or symmetry)\", \"pass\": %s}", ok1 ? "true" : "false")
		ok2 = ((4 in mps) && mps[1] > 0 && mps[4] >= 1.5 * mps[1]) ? 1 : 0
		checks = checks sprintf(",\n      {\"check\": \"hierarchy workers=4 >= 1.5x workers=1 (no longer flat)\", \"pass\": %s}", ok2 ? "true" : "false")
		pass = ok1 && ok2
	} else {
		nchk = 0
		for (i = 1; i <= nw; i++) {
			w = wval[i]
			if (w == 1 || !(("symmetry", w) in cps) || !(("striped", w) in cps) || cps["striped", w] <= 0) continue
			r = cps["symmetry", w] / cps["striped", w]
			ok = (r >= 0.55) ? 1 : 0
			if (!ok) pass = 0
			if (checks != "") checks = checks ",\n"
			checks = checks sprintf("      {\"check\": \"sharded >= 0.55x striped at workers=%d (single-core tolerance)\", \"ratio\": %.3f, \"pass\": %s}",
				w, r, ok ? "true" : "false")
			nchk++
		}
		if ((4 in mps) && mps[1] > 0) {
			r = mps[4] / mps[1]
			ok = (r >= 0.7) ? 1 : 0
			if (!ok) pass = 0
			if (checks != "") checks = checks ",\n"
			checks = checks sprintf("      {\"check\": \"hierarchy workers=4 >= 0.7x workers=1 (no starved-core regression)\", \"ratio\": %.3f, \"pass\": %s}",
				r, ok ? "true" : "false")
			nchk++
		}
		if (nchk == 0) pass = 0
	}
	printf "  \"acceptance\": {\n"
	printf "    \"benchmark\": \"BenchmarkExploreParallel (valency engine grid + hierarchy search)\",\n"
	printf "    \"cores\": %d,\n", cores
	crit = ">=4 cores: sharded engine >=2.5x configs/s at workers=4 vs workers=1, hierarchy search >=1.5x"
	if (!multicore) crit = "<4 cores: scaling unmeasurable (workers=1 is the clone-free serial engine); sharded must stay within 0.55x of the striped engine it replaces, hierarchy within 0.7x of serial"
	printf "    \"criterion\": \"%s\",\n", crit
	printf "    \"checks\": [\n%s\n    ],\n", checks
	printf "    \"pass\": %s\n", (pass ? "true" : "false")
	printf "  }\n"
	printf "}\n"
}
' "$raw" > "$scaleout"

echo "wrote $scaleout"
if ! grep -q '"pass": true' "$scaleout"; then
	echo "bench.sh: FAILED scaling acceptance — see $scaleout" >&2
	exit 1
fi
echo "bench.sh: scaling acceptance passed"

# ---- spill stage: all-RAM vs disk-tiered exploration of the same job ----
echo "== ./internal/valency spill (-benchtime=1x)" >&2
go test -run=NONE -bench='^BenchmarkExploreSpill' -benchtime=1x -timeout 20m ./internal/valency | tee "$spillraw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function jnum(v) { return (v == int(v)) ? sprintf("%.0f", v) : sprintf("%.6g", v) }
/^goos: /  { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /   { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	m = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $(i); unit = $(i + 1)
		if (m != "") m = m ", "
		m = m sprintf("\"%s\": %s", unit, jnum(val))
		metric[name, unit] = val
	}
	if (benches != "") benches = benches ",\n"
	benches = benches sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", name, iters, m)
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"},\n", goos, goarch, cpu
	printf "  \"benchmarks\": [\n%s\n  ],\n", benches
	root = "BenchmarkExploreSpill/tier="
	ram = root "ram"; spill = root "spill"
	have = ((ram, "configs") in metric) && ((spill, "configs") in metric)
	equal = have && (metric[ram, "configs"] == metric[spill, "configs"])
	slowdown = (have && metric[spill, "configs/s"] > 0) ? metric[ram, "configs/s"] / metric[spill, "configs/s"] : 0
	engaged = have && (metric[spill, "flushes"] > 0)
	printf "  \"acceptance\": {\n"
	printf "    \"benchmark\": \"BenchmarkExploreSpill\",\n"
	printf "    \"workload\": \"counter-walk n=3, inputs 0,1,1, all schedules and coins, workers=2, 64 KiB hot tier\",\n"
	printf "    \"criterion\": \"the disk-tiered run explores the identical configuration count as the all-RAM run and actually spills, same run\",\n"
	printf "    \"ram_configs\": %s,\n", have ? jnum(metric[ram, "configs"]) : "null"
	printf "    \"spill_configs\": %s,\n", have ? jnum(metric[spill, "configs"]) : "null"
	printf "    \"spill_flushes\": %s,\n", have ? jnum(metric[spill, "flushes"]) : "null"
	printf "    \"spill_compactions\": %s,\n", have ? jnum(metric[spill, "compactions"]) : "null"
	printf "    \"spill_tier_lookups\": %s,\n", have ? jnum(metric[spill, "tier-lookups"]) : "null"
	printf "    \"spill_frontier_spilled\": %s,\n", have ? jnum(metric[spill, "frontier-spilled"]) : "null"
	printf "    \"spill_vs_ram_slowdown\": %.3f,\n", slowdown
	printf "    \"pass\": %s\n", (equal && engaged) ? "true" : "false"
	printf "  }\n"
	printf "}\n"
}
' "$spillraw" > "$spillout"

echo "wrote $spillout"
if ! grep -q '"pass": true' "$spillout"; then
	echo "bench.sh: FAILED spill acceptance — disk-tiered and all-RAM runs disagree on configuration count, or the tier never engaged" >&2
	exit 1
fi
echo "bench.sh: spill acceptance passed"

# ---- retry stage: healthy daemon vs forced transient failure + retry ----
echo "== ./internal/service retry (-benchtime=3x)" >&2
go test -run=NONE -bench='^BenchmarkRetryOverhead' -benchtime=3x -timeout 20m ./internal/service | tee "$retryraw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function jnum(v) { return (v == int(v)) ? sprintf("%.0f", v) : sprintf("%.6g", v) }
/^goos: /  { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /   { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	m = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $(i); unit = $(i + 1)
		if (m != "") m = m ", "
		m = m sprintf("\"%s\": %s", unit, jnum(val))
		metric[name, unit] = val
	}
	if (benches != "") benches = benches ",\n"
	benches = benches sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", name, iters, m)
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"},\n", goos, goarch, cpu
	printf "  \"benchmarks\": [\n%s\n  ],\n", benches
	root = "BenchmarkRetryOverhead/path="
	clean = root "clean"; retry = root "retry"
	have = ((clean, "configs") in metric) && ((retry, "configs") in metric)
	equal = have && (metric[clean, "configs"] == metric[retry, "configs"])
	retried = have && (metric[retry, "retries/op"] >= 1)
	overhead = (have && metric[clean, "ns/op"] > 0) ? metric[retry, "ns/op"] / metric[clean, "ns/op"] : 0
	printf "  \"acceptance\": {\n"
	printf "    \"benchmark\": \"BenchmarkRetryOverhead\",\n"
	printf "    \"workload\": \"counter-walk n=2, mem-budget 4096 (forced eviction); retry path fails the first spill write of every job, exhausting the engine IO retry and forcing one classified service-level retry\",\n"
	printf "    \"criterion\": \"the retried job explores the identical configuration count as the clean run, same run, and the retry path actually retried (retries/op >= 1); the retry overhead ratio is recorded\",\n"
	printf "    \"clean_configs\": %s,\n", have ? jnum(metric[clean, "configs"]) : "null"
	printf "    \"retry_configs\": %s,\n", have ? jnum(metric[retry, "configs"]) : "null"
	printf "    \"retries_per_op\": %s,\n", have ? jnum(metric[retry, "retries/op"]) : "null"
	printf "    \"retry_vs_clean_overhead\": %.3f,\n", overhead
	printf "    \"pass\": %s\n", (equal && retried) ? "true" : "false"
	printf "  }\n"
	printf "}\n"
}
' "$retryraw" > "$retryout"

echo "wrote $retryout"
if ! grep -q '"pass": true' "$retryout"; then
	echo "bench.sh: FAILED retry acceptance — the retried job and the clean run disagree on configuration count, or no retry happened" >&2
	exit 1
fi
echo "bench.sh: retry acceptance passed"
