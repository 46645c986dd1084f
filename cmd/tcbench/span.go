package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one unit of
// work share Ref (workload/run/segment for machines, job/cell for
// services, grid/shard/attempt for the fleet); Parent is the index of
// the span that caused this one, -1 for roots.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Ref    string `json:"ref"`
	// StartNS and EndNS count nanoseconds from the tracer's origin.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory until the run ends. A
// nil tracer records nothing, so the untraced pass runs the same code
// with no tracing cost beyond a nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent int, name, ref string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, StartNS: now, EndNS: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (the
// timestamps of a server or fleet event stream).
func (t *tracer) add(parent int, name, ref string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Ref: ref,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// setEnd moves a recorded span's end to an observed instant.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNS = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// selfTimes derives each span name's self time: its spans' durations
// minus the part of each interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS))
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi]: overlapping children (parallel cells) are not counted twice.
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	cursor := lo
	for _, k := range kids {
		start, end := max(k.StartNS, cursor), min(k.EndNS, hi)
		if end > start {
			total += end - start
			cursor = end
		}
	}
	return total
}

// write stores the spans, and each span name's self time in
// milliseconds, as one JSON document.
func (t *tracer) write(path string) error {
	self := make(map[string]float64)
	for name, d := range t.selfTimes() {
		self[name] = float64(d.Nanoseconds()) / 1e6
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{self, t.spans})
}
