package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// wantLifecycle is the transition table as DESIGN.md §7 states it.
var wantLifecycle = map[State]map[event]State{
	stateUnsubmitted: {evSubmit: StateQueued},
	StateQueued:      {evStart: StateRunning, evDone: StateDone, evFail: StateFailed, evCancel: StateCanceled},
	StateRunning:     {evRequeue: StateQueued, evDone: StateDone, evFail: StateFailed, evCancel: StateCanceled},
}

var allStates = []State{stateUnsubmitted, StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// journalTap collects the records a store appends from now on.
type journalTap struct {
	mu   sync.Mutex
	recs []store.Record
}

func tapJournal(st *store.Store) *journalTap {
	tap := &journalTap{}
	st.SetObserver(func(r store.Record) {
		tap.mu.Lock()
		tap.recs = append(tap.recs, r)
		tap.mu.Unlock()
	})
	return tap
}

// of returns the kinds appended for one job, in order.
func (tap *journalTap) of(id string) []store.Kind {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	var kinds []store.Kind
	for _, r := range tap.recs {
		if r.ID == id {
			kinds = append(kinds, r.Kind)
		}
	}
	return kinds
}

// stamps is the part of a job a transition writes besides its state.
func (j *Job) stamps() [3]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return [3]any{j.started, j.finished, j.result}
}

func eventTypes(evs []Event) []EventType {
	out := make([]EventType, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

func sameSeq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// jobIn builds an unregistered job of s and drives it to state from
// through the table.
func jobIn(t *testing.T, s *Service, id string, from State) *Job {
	t.Helper()
	j := s.newJob(context.Background(), JobSpec{Matrix: randSym(8, 3), Dim: 1}.withDefaults(), 8, BackendEmulated, 0, "")
	j.id = id
	var path []change
	switch from {
	case StateRunning:
		path = []change{{ev: evStart}}
	case StateDone:
		path = []change{{ev: evStart}, {ev: evDone, res: &Result{Values: []float64{1}}}}
	case StateFailed:
		path = []change{{ev: evStart}, {ev: evFail, err: errors.New("boom")}}
	case StateCanceled:
		path = []change{{ev: evCancel, err: errors.New("user")}}
	}
	for _, c := range path {
		if !j.apply(c) {
			t.Fatalf("%s: driving to %s: %v refused", id, from, c.ev)
		}
	}
	if got := j.State(); got != from {
		t.Fatalf("%s: driven to %s, want %s", id, got, from)
	}
	return j
}

// TestLifecycleTable walks every (state, event) pair. The table must say
// what DESIGN.md says; on a live job a legal pair moves it to the table's
// state with that transition's journal records, events and counters, and
// an illegal one leaves the job, the journal and its event history as they
// were.
func TestLifecycleTable(t *testing.T) {
	for _, from := range allStates {
		for ev := event(0); ev < eventCount; ev++ {
			to, ok := next(from, ev)
			want, wantOK := wantLifecycle[from][ev]
			if ok != wantOK || to != want {
				t.Errorf("next(%s, %d) = %s, %v; want %s, %v", from, ev, to, ok, want, wantOK)
			}
		}
	}

	st := openStore(t, t.TempDir())
	defer st.Close()
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()
	tap := tapJournal(st)
	payload := map[event]change{
		evSubmit:  {ev: evSubmit},
		evStart:   {ev: evStart},
		evRequeue: {ev: evRequeue},
		evDone:    {ev: evDone, res: &Result{Values: []float64{2}}},
		evFail:    {ev: evFail, err: errors.New("solve failed")},
		evCancel:  {ev: evCancel, err: errors.New("canceled")},
	}
	n := 0
	for _, from := range allStates[1:] { // a live job is born queued
		for ev := event(0); ev < eventCount; ev++ {
			n++
			id := "job-" + itoa(n)
			j := jobIn(t, s, id, from)
			journal0, events0, m0 := len(tap.of(id)), len(j.Events()), s.Metrics()
			stamps0 := j.stamps()
			applied := j.apply(payload[ev])
			to, legal := next(from, ev)
			newKinds := tap.of(id)[journal0:]
			newEvents := eventTypes(j.Events()[events0:])
			m := s.Metrics()
			if applied != legal {
				t.Errorf("%s + %d: applied=%v, table says %v", from, ev, applied, legal)
				continue
			}
			if !legal {
				if j.State() != from || j.stamps() != stamps0 || len(newKinds) != 0 || len(newEvents) != 0 ||
					m.Completed+m.Failed+m.Canceled != m0.Completed+m0.Failed+m0.Canceled {
					t.Errorf("%s + %d refused but changed the job: state %s, journal %v, events %v", from, ev, j.State(), newKinds, newEvents)
				}
				continue
			}
			if j.State() != to {
				t.Errorf("%s + %d: state %s, want %s", from, ev, j.State(), to)
			}
			var wantKinds []store.Kind
			var wantEvents []EventType
			switch to {
			case StateRunning:
				wantKinds, wantEvents = []store.Kind{store.KindStarted}, []EventType{EventStarted}
			case StateQueued:
				wantEvents = []EventType{EventQueued}
			default:
				wantKinds, wantEvents = []store.Kind{store.KindFinished}, []EventType{terminalEvents[to]}
				select {
				case <-j.done:
				default:
					t.Errorf("%s + %d: done not closed", from, ev)
				}
				counted := map[State]int64{
					StateDone:     m.Completed - m0.Completed,
					StateFailed:   m.Failed - m0.Failed,
					StateCanceled: m.Canceled - m0.Canceled,
				}
				if counted[to] != 1 {
					t.Errorf("%s + %d: %s counter moved by %d, want 1", from, ev, to, counted[to])
				}
			}
			if !sameSeq(newKinds, wantKinds) || !sameSeq(newEvents, wantEvents) {
				t.Errorf("%s + %d: journal %v, events %v; want %v, %v", from, ev, newKinds, newEvents, wantKinds, wantEvents)
			}
		}
	}
}

// TestLifecycleReplay runs every record kind against every replayed
// position: foldRecords moves a job exactly as the table does and skips
// what it refuses, except that a started record for a running job (a loan
// handed back and started again) is absorbed.
func TestLifecycleReplay(t *testing.T) {
	spec := JobSpec{Matrix: randSym(8, 5), Dim: 1}.withDefaults()
	blob, err := encodeSpecBlob(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub := store.Record{Kind: store.KindSubmitted, ID: "job-1", Backend: BackendEmulated, Spec: blob}
	start := store.Record{Kind: store.KindStarted, ID: "job-1"}
	fin := func(st State) store.Record {
		return store.Record{Kind: store.KindFinished, ID: "job-1", State: string(st), Err: "x"}
	}
	prefix := map[State][]store.Record{
		stateUnsubmitted: nil,
		StateQueued:      {sub},
		StateRunning:     {sub, start},
		StateDone:        {sub, start, fin(StateDone)},
		StateFailed:      {sub, fin(StateFailed)},
		StateCanceled:    {sub, fin(StateCanceled)},
	}
	records := map[event]store.Record{
		evSubmit: sub, evStart: start,
		evDone: fin(StateDone), evFail: fin(StateFailed), evCancel: fin(StateCanceled),
	}
	for _, from := range allStates {
		for ev, rec := range records {
			byID, _ := foldRecords(append(append([]store.Record(nil), prefix[from]...), rec))
			got := stateUnsubmitted
			if r := byID["job-1"]; r != nil {
				got = r.pos
			}
			want, legal := next(from, ev)
			if !legal || from == StateRunning && ev == evStart {
				want = from
			}
			if got != want {
				t.Errorf("replaying a %s record on a %s job: %s, want %s", rec.Kind, from, got, want)
			}
		}
	}
}

// TestLifecycleLoneLaneJobJournalsOneStart: a lane-routed job that finds
// no mates is rerouted to a solo backend and starts there, once.
func TestLifecycleLoneLaneJobJournalsOneStart(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	cfg := laneConfig(8)
	cfg.Store = st
	s := New(cfg)
	defer s.Close()
	tap := tapJournal(st)
	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 61), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []store.Kind{store.KindSubmitted, store.KindStarted, store.KindFinished}
	if got := tap.of(j.ID()); !sameSeq(got, want) {
		t.Fatalf("lone lane job journaled %v, want %v", got, want)
	}
}

// TestLifecycleCacheHitJournalsNoStart: a durable cache hit goes straight
// from queued to done — solo or lane-routed, it journals only its terminal
// record — yet still reports a started → done event pair.
func TestLifecycleCacheHitJournalsNoStart(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		st := openStore(t, t.TempDir())
		cfg := Config{Workers: 1, Store: st}
		if lanes {
			cfg = laneConfig(8)
			cfg.Store = st
		}
		s := New(cfg)
		tap := tapJournal(st)
		spec := JobSpec{Matrix: randSym(16, 62), Dim: 1}
		var hit *Job
		for i := 0; i < 2; i++ {
			j, err := s.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			hit = j
		}
		if !hit.Status().CacheHit {
			t.Fatalf("lanes=%v: second submission was not a cache hit", lanes)
		}
		if got, want := tap.of(hit.ID()), []store.Kind{store.KindSubmitted, store.KindFinished}; !sameSeq(got, want) {
			t.Errorf("lanes=%v: cache hit journaled %v, want %v", lanes, got, want)
		}
		want := []EventType{EventQueued, EventStarted, EventDone}
		if got := eventTypes(hit.Events()); !sameSeq(got, want) {
			t.Errorf("lanes=%v: cache hit events %v, want %v", lanes, got, want)
		}
		s.Close()
		st.Close()
	}
}

// TestLifecycleStartRefusedOnCanceled pins the loan race at the transition
// level: once a job is canceled (a Close draining a loan), a late start is
// refused, and it neither journals, publishes nor moves the job back to
// running.
func TestLifecycleStartRefusedOnCanceled(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()
	tap := tapJournal(st)
	j := jobIn(t, s, "job-1", StateQueued)
	if !j.abort(ErrShutdown) {
		t.Fatal("cancel of a queued job refused")
	}
	events := len(j.Events())
	if j.apply(change{ev: evStart}) {
		t.Fatal("start applied to a canceled job")
	}
	if j.State() != StateCanceled || len(j.Events()) != events || len(tap.of("job-1")) != 0 {
		t.Fatalf("refused start left state %s, events %v, journal %v", j.State(), eventTypes(j.Events()), tap.of("job-1"))
	}
}

// TestLifecycleCloseDropsLoans: Close settles every outstanding loan as a
// shutdown cancel; the loan never reads running again, its late
// settlements are refused, and a closed service lends nothing.
func TestLifecycleCloseDropsLoans(t *testing.T) {
	s := New(Config{Workers: 1})
	blocker, err := s.Submit(context.Background(), stuckSpec(63))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, blocker, StateRunning)
	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 64), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	lent := s.LendQueued(1, time.Minute)
	if len(lent) != 1 || lent[0].ID != j.ID() || j.State() != StateRunning {
		t.Fatalf("lent %v, job %s", lent, j.State())
	}
	s.Close()
	if j.State() != StateCanceled {
		t.Fatalf("loan reads %s after Close, want canceled", j.State())
	}
	if s.CompleteLent(j.ID(), &Result{}, "") || s.ReturnLent(j.ID()) || j.State() != StateCanceled {
		t.Fatalf("late settlement accepted; job reads %s", j.State())
	}
	if got := s.LendQueued(1, time.Minute); got != nil {
		t.Fatalf("closed service lent %v", got)
	}
	evs := eventTypes(j.Events())
	if evs[len(evs)-1] != EventCanceled {
		t.Fatalf("loan events %v do not end canceled", evs)
	}
}
