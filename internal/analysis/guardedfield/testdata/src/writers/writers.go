// Package writers exercises the written-only-by rule: the named writer
// may assign the field, every other function's assignments, increments
// and address-taking are flagged, and literals, reads and the allow hatch
// are not.
package writers

import "sync"

type job struct {
	mu    sync.Mutex
	state string // guarded by mu; written only by apply
	runs  int    // written only by apply
	label string // guarded by mu
}

// apply is the one writer: plain writes and increments pass.
func (j *job) apply(to string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = to
	j.runs++
	j.label = to // not restricted: any function holding mu may write it
}

// newJob initializes the field in a composite literal: not a write.
func newJob() *job {
	return &job{state: "queued"}
}

func (j *job) status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) bypass() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = "running" // want `job\.state is written only by apply`
}

func bump(j *job) {
	j.runs++    // want `job\.runs is written only by apply`
	j.runs += 2 // want `job\.runs is written only by apply`
}

func leak(j *job) *string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &j.state // want `job\.state is written only by apply`
}

// applyLocked shares the writer's prefix but not its name.
func (j *job) applyLocked() {
	j.state = "done" // want `job\.state is written only by apply`
}

// closures inside another function are not the writer either.
func deferred(j *job) func() {
	return func() {
		j.mu.Lock()
		j.state, j.label = "failed", "x" // want `job\.state is written only by apply`
		j.mu.Unlock()
	}
}

func allowed(j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	//lint:allow guardedfield fixture for the escape hatch
	j.state = "canceled"
}
