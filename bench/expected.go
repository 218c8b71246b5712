package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"randsync/internal/dist"
	"randsync/internal/hierarchy"
	"randsync/internal/service"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

//go:embed expected.json
var expectedJSON []byte

// expectedJob is one job's known answer.
type expectedJob struct {
	Verdict   string `json:"verdict"`
	Complete  bool   `json:"complete"`
	Livelock  bool   `json:"livelock"`
	Configs   int    `json:"configs"`
	Violation string `json:"violation,omitempty"`
}

type expectedSweep struct {
	Enumerated int `json:"enumerated"`
	Solvers    int `json:"solvers"`
}

// golden is bench/expected.json: the reference every verdict is checked
// against.  It never comes from the engine under test at run time.
type golden struct {
	Note   string                   `json:"note"`
	Jobs   map[string]expectedJob   `json:"jobs"`
	Sweeps map[string]expectedSweep `json:"sweeps"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(expectedJSON, &g); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &g, nil
}

// jobKey names a job in the golden file; every benchmark job uses the
// default mixed input vector (process i proposes i mod 2), so protocol
// and process count identify it.
func jobKey(spec *service.JobSpec) string {
	return fmt.Sprintf("%s/%d", spec.Protocol, spec.N)
}

// verifyDoc checks one verdict document against the golden entry of
// its job and returns the first difference ("" when it matches).  A
// violation must also carry a schedule that replays, from the initial
// configuration, to a configuration exhibiting the violation.
func (g *golden) verifyDoc(spec *service.JobSpec, doc []byte) string {
	want, ok := g.Jobs[jobKey(spec)]
	if !ok {
		return "no golden entry for " + jobKey(spec)
	}
	var got valency.JSONReport
	if err := json.Unmarshal(doc, &got); err != nil {
		return "undecodable verdict document: " + err.Error()
	}
	switch {
	case got.Verdict != want.Verdict:
		return fmt.Sprintf("verdict %q, want %q", got.Verdict, want.Verdict)
	case got.Complete != want.Complete:
		return fmt.Sprintf("complete %t, want %t", got.Complete, want.Complete)
	case got.Configs != want.Configs:
		return fmt.Sprintf("configs %d, want %d", got.Configs, want.Configs)
	case got.Livelock != want.Livelock:
		return fmt.Sprintf("livelock %t, want %t", got.Livelock, want.Livelock)
	}
	if want.Violation == "" {
		if got.Violation != nil {
			return "unexpected violation " + got.Violation.Kind
		}
		return ""
	}
	if got.Violation == nil {
		return "missing violation, want " + want.Violation
	}
	if got.Violation.Kind != want.Violation {
		return fmt.Sprintf("violation kind %q, want %q", got.Violation.Kind, want.Violation)
	}
	return replayViolation(spec, got.Violation)
}

// replayViolation re-executes a counterexample's schedule on a fresh
// simulator configuration and checks the violation is really there.
func replayViolation(spec *service.JobSpec, v *valency.JSONViolation) string {
	proto, err := dist.Resolve(spec.ProtoSpec())
	if err != nil {
		return err.Error()
	}
	c := sim.NewConfig(proto, spec.Inputs)
	if err := c.ReplaySchedule(v.Schedule); err != nil {
		return "schedule does not replay: " + err.Error()
	}
	if v.Kind == valency.Consistency.String() && len(c.Decisions()) < 2 {
		return "replayed schedule shows no disagreement"
	}
	return ""
}

// verifySweep checks one hierarchy search against theory.
func (g *golden) verifySweep(key string, res *hierarchy.Result) string {
	want, ok := g.Sweeps[key]
	if !ok {
		return "no golden entry for sweep " + key
	}
	switch {
	case res.Enumerated != want.Enumerated:
		return fmt.Sprintf("%s: enumerated %d, want %d", key, res.Enumerated, want.Enumerated)
	case res.Solvers != want.Solvers:
		return fmt.Sprintf("%s: solvers %d, want %d", key, res.Solvers, want.Solvers)
	case (res.Example != nil) != (want.Solvers > 0):
		return key + ": example machine does not match the solver count"
	}
	return ""
}
