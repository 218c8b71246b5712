package main

import (
	"bytes"
	"testing"

	"randsync/internal/dist"
	"randsync/internal/frame"
	"randsync/internal/valency"
)

// The counting filesystem and the modelled disk under it must be
// invisible to the program: a CheckSpill on them returns the same
// verdict document and configuration count as one on the real disk,
// while the wrapper sees the disk traffic.
func TestCountFSIsTransparent(t *testing.T) {
	spec := mixedSpec("counter-walk", 2)
	proto, err := dist.Resolve(spec.ProtoSpec())
	if err != nil {
		t.Fatal(err)
	}
	check := func(fsys frame.FS) (*valency.Report, []byte) {
		rep, err := valency.CheckSpill(proto, spec.Inputs, valency.Options{
			Workers: engineWorkers, MemBudget: 4 << 10, SpillDir: t.TempDir(), SpillFS: fsys,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Stats = nil // telemetry (timings) legitimately differs between runs
		doc, err := rep.JSON(spec.Repro()).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return rep, doc
	}
	rec := newRecorder()
	cfs := newCountFS(newMemDisk(), rec, directJobOf)
	plain, plainDoc := check(nil)
	wrapped, wrappedDoc := check(cfs)
	if plain.Configs != wrapped.Configs || !bytes.Equal(plainDoc, wrappedDoc) {
		t.Fatalf("wrapped run differs: %d configs vs %d\n%s\n%s", wrapped.Configs, plain.Configs, wrappedDoc, plainDoc)
	}
	c := cfs.snapshot()
	if c.Creates == 0 || c.Syncs == 0 || c.Renames == 0 || c.BytesWritten == 0 || c.BytesRead == 0 {
		t.Errorf("a 4 KiB hot set must spill, but the wrapper counted %+v", c)
	}
	if c.SyncTime <= 0 || c.WriteTime <= 0 || c.ReadTime <= 0 {
		t.Errorf("untimed disk calls: %+v", c)
	}
	names := summarize(rec.spans)
	for _, want := range []string{"frame.create", "frame.write", "frame.sync", "frame.rename", "frame.read"} {
		if names[want].Count == 0 {
			t.Errorf("no %s span recorded", want)
		}
	}
	if d := cfs.snapshot().sub(c); d.ops() != 0 || d.BytesRead != 0 {
		t.Errorf("snapshot difference of an idle wrapper = %+v", d)
	}
}

// ram-large is the workload that must never touch the filesystem seam:
// one of its operations, with the wrapper installed, counts nothing.
func TestRAMLargeDoesNoFileIO(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 463852 configurations")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	cfs := newCountFS(frame.OS{}, nil, directJobOf)
	e, err := workloadByName("ram-large").newEnv(&runCtx{seed: 1, golden: g, dir: t.TempDir(), perClient: 1, fsys: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if res := e.op(0, 0); res.fail != "" || res.wrong != "" {
		t.Fatalf("op failed: %q %q", res.fail, res.wrong)
	}
	if c := cfs.snapshot(); c.ops() != 0 || c.BytesRead != 0 || c.BytesWritten != 0 {
		t.Errorf("ram-large touched the filesystem: %+v", c)
	}
}

func TestJobOf(t *testing.T) {
	for path, want := range map[string]string{
		"/x/data/jobs/00ab12/spill/run-1": "00ab12",
		"/x/data/jobs/00ab12/job.rec.tmp": "00ab12",
		"/x/data/artifacts/ff.art":        "",
	} {
		if got := svcJobOf(path); got != want {
			t.Errorf("svcJobOf(%q) = %q, want %q", path, got, want)
		}
	}
	if got := directJobOf("/x/env-1/op-12/shard-0/run-3"); got != "op-12" {
		t.Errorf("directJobOf = %q", got)
	}
}
