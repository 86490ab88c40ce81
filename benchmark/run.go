package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/client"
	"repro/internal/matrix"
)

const (
	// jobTimeout bounds one job from submission to its terminal event; a
	// job past it counts as a lost terminal event.
	jobTimeout = 60 * time.Second
	// slowEventDelay is how long a slow subscriber dawdles on every event.
	slowEventDelay = 2 * time.Millisecond
	// sampleEvery is the service-metrics sampling period of traced runs.
	sampleEvery = 100 * time.Millisecond
	// setupReps is how many times a run boots the system; setup_s is the
	// median.
	setupReps = 15
)

// job is one submission of a workload's input sequence.
type job struct {
	idx  int
	spec client.Spec
	// n and mseed name the matrix: matrix.RandomSymmetric(n, seeded by
	// mseed). explicit jobs ship it as a MatrixSpec, the others as a
	// RandomSpec the service expands itself.
	n        int
	mseed    int64
	explicit bool
	// hot is the serve-small hot problem the job repeats, or -1.
	hot int
	// slow marks an open-loop job whose subscriber reads slowly; its
	// latency is not timed.
	slow bool
	// gap is the open-loop time since the previous arrival.
	gap time.Duration
	// traceA and frob2 are trace(A) and ‖A‖²_F of an explicit matrix, taken
	// when it is generated.
	traceA, frob2 float64
}

func randomMatrix(n int, seed int64) *matrix.Dense {
	return matrix.RandomSymmetric(n, rand.New(rand.NewSource(seed)))
}

// matrixStats returns trace(A) and ‖A‖²_F.
func matrixStats(a *matrix.Dense) (tr, frob2 float64) {
	for i := 0; i < a.Rows; i++ {
		tr += a.At(i, i)
	}
	for _, v := range a.Data {
		frob2 += v * v
	}
	return tr, frob2
}

// materialize generates an explicit job's matrix into its spec.
func (j *job) materialize() {
	if !j.explicit || j.spec.Matrix != nil {
		return
	}
	a := randomMatrix(j.n, j.mseed)
	j.traceA, j.frob2 = matrixStats(a)
	j.spec.Matrix = &client.MatrixSpec{N: j.n, Data: a.Data}
}

// session is one booted system under test.
type session struct {
	c   client.Client
	srv *server // the jacobitool serve child of remote-durable, else nil
}

func (s *session) close() error {
	err := s.c.Close()
	if s.srv != nil {
		err = errors.Join(err, s.srv.stop(), os.RemoveAll(s.srv.dataDir))
	}
	return err
}

// cpuMs is the CPU time of every process the session runs in.
func (s *session) cpuMs() float64 {
	total := selfCPUms()
	if s.srv != nil {
		if c, err := pidCPUms(s.srv.pid()); err == nil {
			total += c
		}
	}
	return total
}

// peakRSSmb is the peak resident set of this process plus the server's.
func (s *session) peakRSSmb() float64 {
	total, _ := peakRSSmb("self")
	if s.srv != nil {
		if r, err := peakRSSmb(fmt.Sprint(s.srv.pid())); err == nil {
			total += r
		}
	}
	return total
}

func (s *session) dataBytes() int64 {
	if s.srv == nil {
		return 0
	}
	return dirBytes(s.srv.dataDir)
}

// workload is one traffic mix.
type workload struct {
	name string
	// tailPct is the percentile reported as job_tail_ms and ack_tail_ms:
	// the highest one with at least ten samples beyond it in a default run.
	tailPct float64
	// job returns the i-th job of the input sequence of a seed. It depends
	// on nothing else, so one seed always yields one sequence.
	job func(seed int64, i int) *job
	// warmup returns the jobs each set-up runs before the window opens.
	warmup func(seed int64) []*job
	// open boots the system under test.
	open func(e *env) (*session, error)
	// drive loads the session for dur.
	drive func(e *env, s *session, dur time.Duration) *phase
}

// phase is one measured window.
type phase struct {
	all   []*outcome // every job attempted
	timed []*outcome // the jobs job_*_ms and ack_*_ms are taken over
	// thruJobs completed in thruTime give jobs_per_s.
	thruJobs int
	thruTime time.Duration
	late     []float64 // open-loop generator lateness, ms

	cpuMs, rssMB          float64
	m0, m1                *client.Metrics
	queueMax, inflightMax int
	durable               bool // the session journals to disk
	dataBytes             int64
}

// env is the state of one benchmark run.
type env struct {
	o        options
	w        *workload
	tr       *tracer // nil while untraced
	serveBin string

	mu         sync.Mutex
	next       int // index of the next job of the input sequence
	sessions   int // sessions opened, for data directory names
	probes     int // traced remote-durable submit probes sent
	probeFails int
}

// nextJob takes the next job of the sequence and generates its matrix.
func (e *env) nextJob() *job {
	e.mu.Lock()
	i := e.next
	e.next++
	e.mu.Unlock()
	j := e.w.job(e.o.seed, i)
	j.materialize()
	return j
}

// runWorkload boots the system setupReps times, measures the last boot,
// and checks every result. A traced run then measures a second boot for
// two thirds of the time with spans on, runs the isolated layer calls, and
// reports per-layer metrics; its first third, untraced, is the reference
// trace.overhead_frac compares against.
func runWorkload(o options, w *workload, log io.Writer) (*report, error) {
	e := &env{o: o, w: w}
	if w.name == "remote-durable" {
		e.serveBin = filepath.Join(o.work, "bin", "jacobitool")
		if err := buildServe(o.root, e.serveBin); err != nil {
			return nil, err
		}
	}
	dur := time.Duration(o.seconds * o.scale * float64(time.Second))
	traced := o.trace == 1

	var setups []float64
	var s *session
	for k := 0; k < setupReps; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = e.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	udur := dur
	if traced {
		udur = dur / 3
	}
	pu, err := e.measure(s, udur)
	if err != nil {
		return nil, err
	}
	phases := []*phase{pu}
	var pt *phase
	var mc *micro
	if traced {
		e.tr = newTracer()
		s2, err := e.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if pt, err = e.measure(s2, dur-udur); err != nil {
			return nil, err
		}
		phases = append(phases, pt)
		if mc, err = e.microcalls(); err != nil {
			return nil, err
		}
		path := filepath.Join(o.work, "trace", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := e.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "benchmark: %s: %d spans written to %s\n", w.name, e.tr.count(), path)
	}

	var outs []*outcome
	for _, ph := range phases {
		outs = append(outs, ph.all...)
	}
	e.check(outs, log)
	rep := &report{Attempted: len(outs) + e.probes, Failed: e.probeFails}
	for _, out := range outs {
		if out.err != nil {
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0
	rep.endToEnd = e.endToEndMetrics(setups, pu)
	rep.Metrics = rep.endToEnd
	if traced {
		rep.Metrics = e.layerMetrics(pu, pt, mc)
	}
	return rep, nil
}

// setup boots the system and runs the workload's warm-up jobs, which are
// outside the input sequence, to their terminal events, so the measured
// window starts warm.
func (e *env) setup() (*session, error) {
	s, err := e.w.open(e)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var hs []client.JobHandle
	for _, j := range e.w.warmup(e.o.seed) {
		j.materialize()
		h, err := s.c.Submit(ctx, j.spec)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		if _, err := h.Wait(ctx); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return s, nil
}

// measure drives a session for dur, takes its CPU, memory and service
// counters around the window, and closes it.
func (e *env) measure(s *session, dur time.Duration) (*phase, error) {
	ctx := context.Background()
	runtime.GC()
	m0, err := s.c.Metrics(ctx)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("metrics: %w", err)
	}
	data0, cpu0 := s.dataBytes(), s.cpuMs()
	var stopSampling func() (int, int)
	if e.tr != nil {
		stopSampling = e.sample(s)
	}
	ph := e.w.drive(e, s, dur)
	ph.cpuMs = s.cpuMs() - cpu0
	if stopSampling != nil {
		ph.queueMax, ph.inflightMax = stopSampling()
	}
	ph.durable, ph.dataBytes = s.srv != nil, s.dataBytes()-data0
	ph.rssMB = s.peakRSSmb()
	ph.m0 = m0
	ph.m1, err = s.c.Metrics(ctx)
	if err = errors.Join(err, s.close()); err != nil {
		return nil, err
	}
	return ph, nil
}

// sample polls the service's metrics every sampleEvery until the returned
// stop function is called; stop returns the largest queue depth and
// in-flight count seen.
func (e *env) sample(s *session) (stop func() (queueMax, inflightMax int)) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var q, f int
	go func() {
		defer close(done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			sp := e.tr.begin("service.metrics", 0, -1)
			m, err := s.c.Metrics(ctx)
			sp.end()
			if err == nil {
				q, f = max(q, m.QueueDepth), max(f, m.InFlight)
			}
		}
	}()
	return func() (int, int) {
		cancel()
		<-done
		return q, f
	}
}

// outcome is what happened to one job.
type outcome struct {
	j    *job
	root spanRef
	// due is when the job was due to be sent: the open-loop arrival time,
	// or the submit time of a closed loop.
	due    time.Time
	lateMs float64
	ackMs  float64
	acked  bool // Submit accepted the job
	// h is the job's handle until follow is done with it: it pins the
	// service's whole job record, and a run keeps tens of thousands of
	// outcomes for the checks.
	h client.JobHandle
	// err is set when the job was refused, failed, lost its terminal event
	// or returned a wrong result.
	err   error
	term  *client.Event
	recv  time.Time
	latMs float64 // due → terminal event received
	timed bool    // latMs counts: a fast subscriber saw the terminal event
	// gapsMs are the service-clock gaps between consecutive started/sweep
	// events; dropped counts events the stream dropped.
	gapsMs   []float64
	dropped  int
	res      *client.Result
	resultMs float64
	st       *client.Status // traced runs only
	reqBytes int            // traced runs only
}

// submit sends a job, timing the call; due is its open-loop arrival time,
// or zero for a closed loop.
func (e *env) submit(s *session, j *job, due time.Time) *outcome {
	o := &outcome{j: j, root: e.tr.begin("job", 0, j.idx)}
	if e.tr != nil {
		sp := e.tr.begin("client.encode", o.root.id, j.idx)
		data, err := json.Marshal(j.spec)
		sp.end()
		if err == nil {
			o.reqBytes = len(data)
		}
	}
	sp := e.tr.begin("client.submit", o.root.id, j.idx)
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	o.due, o.lateMs = due, ms(t0.Sub(due))
	o.h, o.err = s.c.Submit(context.Background(), j.spec)
	o.ackMs, o.acked = ms(time.Since(t0)), o.err == nil
	sp.end()
	// The payload is no longer needed (its trace and norm were kept).
	j.spec.Matrix = nil
	if o.err != nil {
		o.err = fmt.Errorf("job %d refused: %w", j.idx, o.err)
		o.root.end()
	}
	return o
}

// follow reads a submitted job's events to the terminal one, then fetches
// the result (and, traced, the status). A slow subscriber dawdles on every
// event and is not timed.
func (e *env) follow(o *outcome, slow bool) {
	defer o.root.end()
	defer func() { o.h = nil }()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	sp := e.tr.begin("client.events", o.root.id, o.j.idx)
	events, err := o.h.Events(ctx)
	if err != nil {
		sp.end()
		o.err = fmt.Errorf("job %d events: %w", o.j.idx, err)
		return
	}
	var prev time.Time
	for ev := range events {
		if slow {
			time.Sleep(slowEventDelay)
		}
		o.dropped += ev.Dropped
		switch {
		case ev.Type == client.EventStarted:
			prev = ev.Time
		case ev.Type == client.EventSweep:
			if !prev.IsZero() {
				o.gapsMs = append(o.gapsMs, ms(ev.Time.Sub(prev)))
			}
			prev = ev.Time
		case ev.Type.Terminal():
			o.recv = time.Now()
			o.term = &ev
		}
	}
	sp.end()
	if o.term == nil {
		o.err = fmt.Errorf("job %d: no terminal event within %v", o.j.idx, jobTimeout)
		return
	}
	o.latMs, o.timed = ms(o.recv.Sub(o.due)), !slow
	if o.term.Type != client.EventDone {
		o.err = fmt.Errorf("job %d ended %s: %s", o.j.idx, o.term.Type, o.term.Error)
		return
	}
	sp = e.tr.begin("client.result", o.root.id, o.j.idx)
	t0 := time.Now()
	o.res, err = o.h.Result(ctx)
	o.resultMs = ms(time.Since(t0))
	sp.end()
	if err != nil {
		o.err = fmt.Errorf("job %d result: %w", o.j.idx, err)
		return
	}
	if e.tr != nil {
		sp := e.tr.begin("service.status", o.root.id, o.j.idx)
		o.st, _ = o.h.Status(ctx)
		sp.end()
	}
}

// closedLoop runs clients goroutines that each send the next job of the
// sequence and follow it to its end, until dur has passed. after, if set,
// runs in the client goroutine after each job. It returns the outcomes and
// the time from the start to the last terminal event.
func (e *env) closedLoop(s *session, clients int, dur time.Duration, after func(*outcome)) ([]*outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	var (
		mu   sync.Mutex
		outs []*outcome
		last = start
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := e.submit(s, e.nextJob(), time.Time{})
				if o.err == nil {
					e.follow(o, false)
				}
				if after != nil {
					after(o)
				}
				mu.Lock()
				outs = append(outs, o)
				if o.recv.After(last) {
					last = o.recv
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, last.Sub(start)
}

// openLoop sends the sequence on its absolute arrival schedule — each job
// is due at start + the sum of the gaps so far, whatever became of earlier
// jobs — until dur has passed, and waits for every job to end. Latency
// counts from the due time, so a stalled generator shows as latency;
// lateness (send time − due time) is returned too.
func (e *env) openLoop(s *session, dur time.Duration) (outs []*outcome, lateMs []float64) {
	start := time.Now()
	end := start.Add(dur)
	due := start
	var wg sync.WaitGroup
	for {
		j := e.nextJob()
		if due = due.Add(j.gap); !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := e.submit(s, j, due)
		outs = append(outs, o)
		lateMs = append(lateMs, o.lateMs)
		if o.err == nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.follow(o, j.slow)
			}()
		}
	}
	wg.Wait()
	return outs, lateMs
}
