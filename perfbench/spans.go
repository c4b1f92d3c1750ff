package main

import (
	"fmt"
	"time"
)

// span is one timed call the benchmark made into the simulator. Times are
// host offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: a root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for one traced repetition. A nil tracer
// records nothing, which is how the untraced repetitions run.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.origin), End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// sums totals span durations by name, in seconds.
func (t *tracer) sums() map[string]float64 {
	m := map[string]float64{}
	for _, s := range t.spans {
		m[s.Name] += s.dur().Seconds()
	}
	return m
}

// checkNesting verifies that every span is closed and that the spans under
// each parent add up to no more than the parent, so per-cell times never
// exceed their exhibit and exhibits never exceed the timed run.
func (t *tracer) checkNesting() error {
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %q (%d) was not closed", s.Name, s.ID)
		}
		children[s.Parent] += s.dur()
	}
	for _, s := range t.spans {
		if children[s.ID] > s.dur() {
			return fmt.Errorf("spans under %q (%d) add up to %v, more than its %v", s.Name, s.ID, children[s.ID], s.dur())
		}
	}
	return nil
}
