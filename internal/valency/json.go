package valency

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"randsync/internal/sim"
)

// ReportSchemaVersion is the schemaVersion stamped into every emitted
// JSONReport.  Documents written before the field existed decode with 0
// and are implicitly version 1; version 2 added the field itself.  The
// verdict fields are append-only — decoders must tolerate unknown
// fields so version-N documents stay readable by version-M code in
// either direction (the artifact store keeps documents indefinitely).
const ReportSchemaVersion = 2

// JSONReport is the machine-readable verdict shape shared by the command
// line tools (`modelcheck -json`, `separation -json`, `distcheck -json`)
// and the service's stored artifacts (`checkd`).  It is a projection of
// Report: verdict fields first, then telemetry, then enough reproduction
// context to re-run the exact check.
type JSONReport struct {
	// SchemaVersion identifies this document's schema
	// (ReportSchemaVersion); 0 on documents that predate the field.
	SchemaVersion int `json:"schemaVersion"`

	// Verdict is "safe", "violation" or "incomplete".  A violation
	// dominates incompleteness: a found counterexample is a definitive
	// verdict even under a truncated exploration.
	Verdict  string `json:"verdict"`
	Complete bool   `json:"complete"`
	Configs  int    `json:"configs"`
	Livelock bool   `json:"livelock"`
	// Decisions is the sorted set of decided values over the exploration.
	Decisions []int64 `json:"decisions"`

	Violation *JSONViolation `json:"violation,omitempty"`

	Stats *Stats `json:"stats,omitempty"`

	// Recovery hoists Stats.Recovery to the document top level: the
	// self-healing audit trail of a distributed run (reconnects,
	// re-queued batches, checkpoint resumes, chaos events fired).
	Recovery *RecoveryStats `json:"recovery,omitempty"`

	// Repro carries the tool-specific invocation context (protocol name,
	// n, flags, seed) that reproduces this verdict; the tools fill it.
	Repro map[string]any `json:"repro,omitempty"`
}

// JSONViolation is the wire form of a counterexample.
type JSONViolation struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Steps  int    `json:"steps"`
	// Trace is the rendered execution, one line per step.
	Trace []string `json:"trace"`
	// Schedule is the hex-free compact choice sequence (base64 via
	// encoding/json []byte rules) that replays the counterexample from
	// the initial configuration.
	Schedule []byte `json:"schedule,omitempty"`
}

// JSON projects a Report into its machine-readable form.  repro is
// attached verbatim as the reproduction context.
func (r *Report) JSON(repro map[string]any) *JSONReport {
	j := &JSONReport{
		SchemaVersion: ReportSchemaVersion,
		Verdict:       "safe",
		Complete:      r.Complete,
		Configs:       r.Configs,
		Livelock:      r.Livelock,
		Stats:         r.Stats,
		Repro:         repro,
	}
	if r.Stats != nil {
		j.Recovery = r.Stats.Recovery
	}
	if !r.Complete {
		j.Verdict = "incomplete"
	}
	for v := range r.Decisions {
		j.Decisions = append(j.Decisions, v)
	}
	sort.Slice(j.Decisions, func(a, b int) bool { return j.Decisions[a] < j.Decisions[b] })
	if v := r.Violation; v != nil {
		j.Verdict = "violation"
		jv := &JSONViolation{
			Kind:     v.Kind.String(),
			Detail:   v.Detail,
			Steps:    len(v.Trace),
			Schedule: v.Trace.Schedule(),
		}
		for _, e := range v.Trace {
			jv.Trace = append(jv.Trace, renderEvent(e))
		}
		j.Violation = jv
	}
	return j
}

// Encode renders the report as indented JSON.
func (j *JSONReport) Encode() ([]byte, error) {
	return json.MarshalIndent(j, "", "  ")
}

// renderEvent formats one execution step the way the tools print traces.
func renderEvent(e sim.Event) string {
	return e.String()
}

// PrintVerdict writes the verdict lines the text-mode CLIs print.
func (r *Report) PrintVerdict(w io.Writer) {
	switch {
	case r.Violation != nil:
		fmt.Fprintf(w, "VIOLATION (%v): %s\n", r.Violation.Kind, r.Violation.Detail)
		fmt.Fprintf(w, "inputs %v, trace of %d steps:\n", r.Inputs, len(r.Violation.Trace))
		fmt.Fprintln(w, r.Violation.Trace)
	case r.Complete:
		fmt.Fprintf(w, "SAFE: %d configurations explored exhaustively, no violation.\n", r.Configs)
	default:
		fmt.Fprintf(w, "no violation within budget (%d configurations explored; incomplete).\n", r.Configs)
	}
	if r.Livelock {
		fmt.Fprintln(w, "note: adversarial non-termination possible (expected for randomized protocols).")
	}
}
