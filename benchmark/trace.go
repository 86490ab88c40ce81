package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one job
// share its Job index (-1 for calls outside any job); Parent is the span
// that caused this one (0 = none). Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	tr     *tracer
	id     int64
	parent int64
	job    int
	name   string
	start  time.Time
}

func (t *tracer) begin(name string, parent int64, job int) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{tr: t, id: t.nextID.Add(1), parent: parent, job: job, name: name, start: time.Now()}
}

func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	end := time.Now()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.spans = append(s.tr.spans, span{
		ID: s.id, Parent: s.parent, Job: s.job, Name: s.name,
		Start: s.start.Sub(s.tr.t0).Nanoseconds(), End: end.Sub(s.tr.t0).Nanoseconds(),
	})
}

// durationsMs returns the durations of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
