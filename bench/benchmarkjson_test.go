package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json restates what the program declares; this keeps the two
// in step and inside the limits the acceptance driver enforces.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got []benchMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, s := range want {
			m := got[i]
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %s/%s/%s", kind, i, m, s.name, s.unit, s.better)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q (unit %q) breaks the naming rules or repeats", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	check("end-to-end", bf.EndToEnd, endToEndSpecs)
	check("per-layer", bf.PerLayer, perLayerSpecs)
	var setup, largest float64
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setup, largest)
	}

	// Exactly the contract's keys, and a run length inside its range.
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if raw[k] == nil {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has keys %v, want exactly six", sortedKeys(raw))
	}
}
