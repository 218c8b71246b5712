package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs every workload for 1 warm-up + 2 operations, untraced,
// through the same code path as a measured run, and checks the result
// line carries exactly the declared end-to-end metrics, none of them 0.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		res, err := runOne(w, options{seed: 1, seconds: 1, smoke: true}, root, loadGolden)
		if err != nil {
			t.Fatal(err)
		}
		if res.exitCode() != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, wrong %d: %v", w.name, res.Attempted, res.Failed, res.Wrong, res.Notes)
		}
		checkResultLine(t, res, endToEndSpecs, true)
	}
}

// The traced path: per-layer metrics, ladder and trace file, on one
// direct-spill, one service and one cluster workload.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three traced workloads")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spill-evict", "svc-small", "dist-loopback"} {
		res, err := runOne(workloadByName(name), options{seed: 2, seconds: 1, trace: 1, smoke: true}, root, loadGolden)
		if err != nil {
			t.Fatal(err)
		}
		if res.exitCode() != 0 {
			t.Errorf("%s: failed %d, wrong %d: %v", name, res.Failed, res.Wrong, res.Notes)
		}
		checkResultLine(t, res, perLayerSpecs, false)
		for _, m := range []string{"valency.serial.check_s", "valency.spill_evict.check_s", "service.alone.verdict_s", "dist.loopback.check_s", "sim.step_ns", "frame.write_file_atomic_s"} {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
			}
		}
		frameOps := res.Metrics["frame.syncs_per_job"].Value
		if name == "dist-loopback" && frameOps != 0 {
			t.Errorf("dist-loopback without a checkpoint path counted %v syncs per job", frameOps)
		}
		if name != "dist-loopback" && frameOps == 0 {
			t.Errorf("%s counted no syncs", name)
		}
		data, err := os.ReadFile(filepath.Join(root, "bench", "out", name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || len(tf.Ladder) != len(rungNames) || tf.Summary["job"].Count == 0 {
			t.Errorf("%s: trace file has %d spans, %d rungs, %d job spans", name, len(tf.Spans), len(tf.Ladder), tf.Summary["job"].Count)
		}
	}
}

// checkResultLine re-parses what a run prints last and checks it has
// the contract's shape and exactly the declared metrics.
func checkResultLine(t *testing.T, res *result, specs []metricSpec, nonZero bool) {
	t.Helper()
	var out bytes.Buffer
	res.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", res.Workload, err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("%s: result line keys = %v", res.Workload, sortedKeys(line))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("%s: metric %s = %+v (present %t), want unit %s", res.Workload, s.name, m, ok, s.unit)
		}
		if nonZero && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, s.name, m.Value)
		}
	}
}

// A wrong verdict must fail the command: with one golden entry
// corrupted, the run that meets it reports correct=false and exits
// non-zero.
func TestWrongVerdictExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func() (*golden, error) {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		e := g.Sweeps["sticky-bit/2"]
		e.Solvers++ // theory says 36
		g.Sweeps["sticky-bit/2"] = e
		return g, nil
	}
	res, err := runOne(workloadByName("tiny-sweep"), options{seed: 1, seconds: 1, smoke: true}, root, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wrong == 0 || res.exitCode() == 0 {
		t.Fatalf("corrupted golden entry went unnoticed: wrong %d, exit %d", res.Wrong, res.exitCode())
	}
	var out bytes.Buffer
	res.print(&out)
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not say correct=false:\n%s", out.String())
	}
}

// verifyDoc is the other half of the same promise: each field of a
// verdict document that disagrees with the golden entry is reported.
func TestVerifyDoc(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	doc := func(verdict string, complete bool, configs int) []byte {
		d, _ := json.Marshal(map[string]any{"verdict": verdict, "complete": complete, "configs": configs, "livelock": false})
		return d
	}
	spec := mixedSpec("cas", 5)
	if msg := g.verifyDoc(&spec, doc("safe", true, 105)); msg != "" {
		t.Errorf("matching document rejected: %s", msg)
	}
	for _, bad := range [][]byte{doc("violation", true, 105), doc("safe", false, 105), doc("safe", true, 104), []byte("{")} {
		if msg := g.verifyDoc(&spec, bad); msg == "" {
			t.Errorf("document %s accepted", bad)
		}
	}
	naive := mixedSpec("register-naive-2", 2)
	if msg := g.verifyDoc(&naive, doc("violation", false, 19)); !strings.Contains(msg, "missing violation") {
		t.Errorf("violation-less document for a violating job: %q", msg)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
