package service

import (
	"errors"
	"fmt"
	"strings"

	"randsync/internal/frame"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// Engine names for JobSpec.Engine.
const (
	// EngineLocal runs the job on the in-process disk-tiered sharded
	// engine (valency.CheckSpill) — checkpointable and resumable.
	EngineLocal = "local"
	// EngineDist runs the job on an in-process loopback instance of the
	// coordinator/worker cluster (dist.Loopback) — the same engine a
	// real distcheck cluster runs, checkpointed by the coordinator.
	EngineDist = "dist"
)

// JobSpec is the wire form of one verification job: the protocol
// coordinates (internal/zoo names, the namespace every tool shares)
// plus the engine choice and tuning knobs.  The zero values of the
// optional fields mean "default".
type JobSpec struct {
	// Tenant is the submitting tenant's name; the scheduler round-robins
	// across tenants so no one tenant can starve the others.  Required.
	Tenant string `json:"tenant"`

	// Protocol is an internal/zoo registry name ("cas", "counter-walk",
	// "flood-mixed", "machine:<type>:<freeStates>:<id>", ...).  Required.
	Protocol string `json:"protocol"`
	// N, R, Rounds, Seed parameterize the protocol exactly as zoo.Spec
	// does; N defaults to 2.
	N      int    `json:"n,omitempty"`
	R      int    `json:"r,omitempty"`
	Rounds int64  `json:"rounds,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`

	// Inputs is the input vector to check; empty with AllInputs unset
	// means the default mixed vector (process i proposes i mod 2).
	Inputs []int64 `json:"inputs,omitempty"`
	// AllInputs sweeps every binary input vector over N processes.
	AllInputs bool `json:"allInputs,omitempty"`

	// Engine is EngineLocal (default) or EngineDist.
	Engine string `json:"engine,omitempty"`

	// Budget caps visited configurations (0 = engine default).
	Budget int `json:"budget,omitempty"`
	// MemBudget, for the local engine, bounds resident exploration state
	// before spilling to disk (0 = never spill; the run still
	// checkpoints).
	MemBudget int64 `json:"memBudget,omitempty"`
	// NoSymmetry disables symmetry reduction.
	NoSymmetry bool `json:"noSymmetry,omitempty"`
	// Crash lets the listed processes crash mid-step (t-resilience).
	Crash []int `json:"crash,omitempty"`

	// DeadlineSeconds bounds the job's wall-clock lifetime from
	// submission (0 = no deadline).  An expired job lands in the timeout
	// terminal state with its engine checkpoint retained.  Deliberately
	// excluded from ID() — the deadline changes when the job is allowed
	// to stop, not what work it does, so resubmitting with a new
	// deadline dedups onto (or, after timeout, resumes) the same job.
	DeadlineSeconds int `json:"deadlineSeconds,omitempty"`
}

// normalize fills defaults in place.
func (j *JobSpec) normalize() {
	j.Tenant = strings.TrimSpace(j.Tenant)
	if j.N == 0 {
		j.N = 2
	}
	if j.Engine == "" {
		j.Engine = EngineLocal
	}
}

// Validate normalizes the spec and reports the first problem; the
// HTTP layer forwards the message verbatim as a 400.  The registry
// bounds-checks the protocol coordinates before anything is sized by N.
func (j *JobSpec) Validate() error {
	j.normalize()
	if j.Tenant == "" {
		return errors.New("tenant is required")
	}
	if strings.ContainsAny(j.Tenant, " \t\n/") {
		return fmt.Errorf("tenant %q must not contain spaces or '/'", j.Tenant)
	}
	if j.Protocol == "" {
		return errors.New("protocol is required")
	}
	if _, err := zoo.Resolve(j.ProtoSpec()); err != nil {
		return err
	}
	if !j.AllInputs && len(j.Inputs) == 0 {
		// The tools' default vector: a mixed proposal so consensus
		// protocols exercise both outcomes.
		j.Inputs = make([]int64, j.N)
		for i := range j.Inputs {
			j.Inputs[i] = int64(i % 2)
		}
	}
	if j.AllInputs && len(j.Inputs) > 0 {
		return errors.New("allInputs and inputs are mutually exclusive")
	}
	if !j.AllInputs && len(j.Inputs) != j.N {
		return fmt.Errorf("got %d inputs for n=%d processes", len(j.Inputs), j.N)
	}
	switch j.Engine {
	case EngineLocal, EngineDist:
	default:
		return fmt.Errorf("engine %q: want %q or %q", j.Engine, EngineLocal, EngineDist)
	}
	if j.Budget < 0 {
		return errors.New("budget must be >= 0")
	}
	if j.MemBudget < 0 {
		return errors.New("memBudget must be >= 0")
	}
	if j.DeadlineSeconds < 0 {
		return errors.New("deadlineSeconds must be >= 0")
	}
	if len(j.Crash) > j.N {
		return fmt.Errorf("%d crash processes for n=%d", len(j.Crash), j.N)
	}
	for _, p := range j.Crash {
		if p < 0 || p >= j.N {
			return fmt.Errorf("crash process %d out of range [0,%d)", p, j.N)
		}
	}
	return nil
}

// ProtoSpec projects the job's protocol coordinates into the
// registry's wire form.
func (j *JobSpec) ProtoSpec() zoo.Spec {
	return zoo.Spec{Name: j.Protocol, N: j.N, R: j.R, Rounds: j.Rounds, Seed: j.Seed}
}

// ID is the job's content hash: the FNV-1a 64 fingerprint of the
// canonical spec string, as sixteen hex digits.  It covers everything
// that changes what work runs or who owns it — tenant, protocol
// coordinates, inputs, engine, budgets — so a tenant resubmitting the
// same job dedups onto the running one, while a different tenant's
// identical workload stays a separate job (whose verdict document still
// dedups in the artifact store).
func (j *JobSpec) ID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant=%s|proto=%s|n=%d|r=%d|rounds=%d|seed=%d|",
		j.Tenant, j.Protocol, j.N, j.R, j.Rounds, j.Seed)
	fmt.Fprintf(&b, "inputs=%v|all=%t|engine=%s|budget=%d|mem=%d|nosym=%t|crash=%v",
		j.Inputs, j.AllInputs, j.Engine, j.Budget, j.MemBudget, j.NoSymmetry, j.Crash)
	return fmt.Sprintf("%016x", frame.Fingerprint([]byte(b.String())))
}

// Repro is the reproduction context stamped into the verdict document.
// It names the logical check only — protocol coordinates, inputs,
// budget, crash set — and deliberately excludes tenant, engine and
// tuning knobs, so the same logical job produces byte-identical
// documents (and therefore one shared artifact) no matter who submitted
// it or which engine ran it.
func (j *JobSpec) Repro() map[string]any {
	repro := map[string]any{
		"tool":     "checkd",
		"protocol": j.Protocol,
		"n":        j.N,
	}
	if j.R != 0 {
		repro["r"] = j.R
	}
	if j.Rounds != 0 {
		repro["rounds"] = j.Rounds
	}
	if j.Seed != 0 {
		repro["seed"] = j.Seed
	}
	if j.AllInputs {
		repro["allInputs"] = true
	} else {
		repro["inputs"] = j.Inputs
	}
	if j.Budget > 0 {
		repro["budget"] = j.Budget
	}
	if j.NoSymmetry {
		repro["noSymmetry"] = true
	}
	if len(j.Crash) > 0 {
		repro["crash"] = j.Crash
	}
	return repro
}

// VerdictDocument renders a report as the canonical artifact bytes: the
// JSONReport projection with engine telemetry stripped, so serial,
// spill and distributed runs of the same logical job emit identical
// documents.
func VerdictDocument(rep *valency.Report, spec *JobSpec) ([]byte, error) {
	j := rep.JSON(spec.Repro())
	j.Stats = nil
	j.Recovery = nil
	return j.Encode()
}
