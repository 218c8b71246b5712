package dist

import (
	"testing"

	"randsync/internal/hierarchy"
	"randsync/internal/object"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// TestHierarchyClusterCheck wires the hierarchy search to the cluster:
// Options.Check ships sampled candidate machines to a loopback cluster
// by wire coordinate (zoo.MachineSpec) and asserts cluster and local model
// checks agree machine-for-machine; the overall search result must
// match the stock local search exactly.
func TestHierarchyClusterCheck(t *testing.T) {
	typ := object.TestAndSetType{}
	base, err := hierarchy.Search(typ, 2)
	if err != nil {
		t.Fatal(err)
	}

	vopts := valency.Options{MaxConfigs: 1 << 12}
	sampled := 0
	res, err := hierarchy.SearchWith(typ, 2, hierarchy.Options{
		Check: func(m hierarchy.Machine) bool {
			local := valency.CheckAllInputs(m, 2, vopts)
			localOK := local.Violation == nil && local.Complete && !local.Livelock
			if sampled < 8 { // sample the cluster path; local is the oracle
				sampled++
				rep, err := Loopback(2, Job{Spec: zoo.MachineSpec(m, 2), AllInputs: true},
					Options{Valency: vopts})
				if err != nil {
					t.Fatalf("machine #%d: %v", m.ID(), err)
				}
				clusterOK := rep.Violation == nil && rep.Complete && !rep.Livelock
				if clusterOK != localOK {
					t.Errorf("machine #%d: cluster says solves=%v, local says %v",
						m.ID(), clusterOK, localOK)
				}
			}
			return localOK
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sampled == 0 {
		t.Fatal("no prefilter survivor was sampled for the cluster path")
	}
	if res.Enumerated != base.Enumerated || res.Solvers != base.Solvers {
		t.Errorf("cluster-backed search diverged: %+v vs %+v", res, base)
	}
}
