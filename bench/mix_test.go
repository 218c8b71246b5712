package main

import (
	"reflect"
	"testing"
)

// The job sequence is a function of the seed alone.
func TestGenMixDeterministic(t *testing.T) {
	a := genMix(7, 400, tinyZoo(), true)
	b := genMix(7, 400, tinyZoo(), true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different job sequences")
	}
	if c := genMix(8, 400, tinyZoo(), true); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same job sequence")
	}
}

func TestGenMixShape(t *testing.T) {
	const perClient = 2000
	seqs := genMix(3, perClient, tinyZoo(), true)
	if len(seqs) != tenants {
		t.Fatalf("%d sequences, want %d", len(seqs), tenants)
	}
	ids := make(map[string]bool)
	kinds := make(map[opKind]int)
	for tn, seq := range seqs {
		if len(seq) != perClient {
			t.Fatalf("tenant %d has %d ops, want %d", tn, len(seq), perClient)
		}
		own := make(map[string]bool) // job ids this tenant has submitted so far
		for i, op := range seq {
			if op.spec.Tenant != tenantName(tn) {
				t.Fatalf("tenant %d op %d submitted as %q", tn, i, op.spec.Tenant)
			}
			if err := op.spec.Validate(); err != nil {
				t.Fatalf("tenant %d op %d: %v", tn, i, err)
			}
			id := op.spec.ID()
			kinds[op.kind]++
			switch op.kind {
			case opFresh:
				if ids[id] {
					t.Fatalf("fresh op %d of tenant %d reuses job id %s", i, tn, id)
				}
			case opResubmit:
				if !own[id] {
					t.Fatalf("resubmit %d of tenant %d names a spec the tenant never submitted", i, tn)
				}
			case opCross:
				other := op.spec
				other.Tenant = tenantName(1 - tn)
				if found := findSpec(seqs[1-tn][:i+1], other.ID()); !found {
					t.Fatalf("cross op %d of tenant %d names no earlier spec of the other tenant", i, tn)
				}
			}
			ids[id], own[id] = true, true
		}
	}
	total := float64(tenants * perClient)
	for kind, want := range map[opKind]float64{opFresh: 0.70, opResubmit: 0.15, opCross: 0.15} {
		if share := float64(kinds[kind]) / total; share < want-0.03 || share > want+0.03 {
			t.Errorf("kind %d share = %.3f, want about %.2f", kind, share, want)
		}
	}
}

func findSpec(seq []svcOp, id string) bool {
	for _, op := range seq {
		if op.spec.ID() == id {
			return true
		}
	}
	return false
}

func TestGenMixUnmixedIsAllFresh(t *testing.T) {
	for _, seq := range genMix(1, 50, tinyZoo()[:1], false) {
		for i, op := range seq {
			if op.kind != opFresh {
				t.Fatalf("op %d is kind %d in an unmixed sequence", i, op.kind)
			}
		}
	}
}
