package main

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// Self time is a span minus the union of its children: overlapping
// children (two engine workers) must not be subtracted twice, and a
// child that outlives its parent only counts up to the parent's end.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "check", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "read", Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 2, Name: "read", Start: 30 * ms, End: 50 * ms}, // overlaps span 3
		{ID: 5, Parent: 2, Name: "sync", Start: 80 * ms, End: 95 * ms}, // outlives its parent
		{ID: 6, Parent: 1, Name: "json", Start: 90 * ms, End: 100 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 10 * ms, // 100 − (80 + 10)
		2: 40 * ms, // 80 − (30 union + 10 clipped)
		3: 20 * ms,
		5: 15 * ms,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if r := sum["read"]; r.Count != 2 || r.TotalS != 0.04 {
		t.Errorf("summary of read = %+v", r)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.start("x", 0, "j")
	r.end(id)
	r.add("y", 0, "j", time.Now(), time.Now())
	r.setScope("j", 1)
	r.addScoped("z", "j", time.Now(), time.Now())
	if id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}

func TestRecorderScopes(t *testing.T) {
	r := newRecorder()
	job := r.start("job", 0, "j1")
	r.setScope("j1", job)
	now := time.Now()
	r.addScoped("frame.sync", "j1", now, now.Add(ms))
	r.addScoped("frame.sync", "other", now, now.Add(ms))
	r.setScope("j1", 0)
	r.addScoped("frame.sync", "j1", now, now.Add(ms))
	r.end(job)
	if got := []int{r.spans[1].Parent, r.spans[2].Parent, r.spans[3].Parent}; got[0] != job || got[1] != 0 || got[2] != 0 {
		t.Errorf("scoped parents = %v, want [%d 0 0]", got, job)
	}
	if r.spans[0].End < r.spans[0].Start || r.spans[0].End == 0 {
		t.Errorf("job span not closed: %+v", r.spans[0])
	}
}

func TestUnattributedShare(t *testing.T) {
	if got := unattributedShare(10, 2, 3, 4); !near(got, 0.1) {
		t.Errorf("unattributedShare = %v, want 0.1", got)
	}
	if got := unattributedShare(0, 1); got != 0 {
		t.Errorf("unattributedShare of an empty whole = %v", got)
	}
}
