package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary.  Spans of one job
// share Job; Parent is the ID of the span that caused this one (0 for a
// root).  Start and End are offsets from the recorder's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    string        `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.  A nil recorder is
// tracing switched off: every method is a no-op, so the untraced run
// executes no recording code beyond a nil check.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// scope maps a job key to the span new layer-internal spans (the
	// filesystem wrapper's) hang under.
	scope map[string]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), scope: make(map[string]int)}
}

// start opens a span and returns its ID (0 when tracing is off).
func (r *recorder) start(name string, parent int, job string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose endpoints were stamped by the caller.
func (r *recorder) add(name string, parent int, job string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

// setScope names the span that job's layer-internal spans attach to;
// parent 0 removes the scope.
func (r *recorder) setScope(job string, parent int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent == 0 {
		delete(r.scope, job)
	} else {
		r.scope[job] = parent
	}
}

// addScoped records a span under job's current scope span (a root span
// when the job has none, e.g. daemon housekeeping between jobs).
func (r *recorder) addScoped(name, job string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.scope[job], Job: job, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children.  Children may overlap each
// other (two engine workers inside one check), so coverage is the union
// of their intervals clipped to the parent, not the sum.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		at := s.Start // everything before at is already accounted for
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanSummary aggregates spans by name: how many, their total duration
// and their total self time.
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := make(map[string]spanSummary)
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.TotalS += s.dur().Seconds()
		a.SelfS += self[s.ID].Seconds()
		out[s.Name] = a
	}
	return out
}

// unattributedShare is 1 − Σ named parts ÷ whole: the share of an
// end-to-end interval no named span accounts for.
func unattributedShare(whole float64, parts ...float64) float64 {
	if whole == 0 {
		return 0
	}
	var sum float64
	for _, p := range parts {
		sum += p
	}
	return 1 - sum/whole
}
