package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/client"
)

// Seed streams: each kind of input draws from its own stream of the run
// seed, so adding draws to one never shifts another.
const (
	streamSolveLarge = iota + 1
	streamServeSmall
	streamHot
	streamRemote
	streamGrid
	streamWarm
	streamMicro
)

// mix derives the i-th value of a seed stream (splitmix64 finalizer).
func mix(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

const (
	// anchorSeed seeds the first solve-large matrix of every run; its
	// eigenvalues from jacobi.SolveTwoSided are committed in
	// testdata/anchor-n512.json, since that solve takes seconds at n=512.
	anchorN    = 512
	anchorSeed = 512

	// serve-small: open-loop arrival rate of phase A, share of the window
	// phase A gets, and the closed-loop concurrency of phase B.
	smallRate        = 300.0
	smallOpenShare   = 0.7
	smallOutstanding = 64
	smallLaneWidth   = 8
	smallHotProblems = 16

	// remote-durable: concurrent HTTP clients, and one payload-free submit
	// probe per probeEvery jobs in traced runs.
	remoteClients = 2
	probeEvery    = 10

	// paper-grid: cells per pass and the one matrix size.
	gridCells = 128
	gridN     = 256
)

// smallSizes are serve-small's two matrix sizes. They are small so that the
// service path — admission, queueing, lane gathering, the cache and event
// fan-out — sets the latency, not the lane solves: queued behind longer
// solves, latency swings twice as much as the shared host's CPU speed
// (README.md).
var smallSizes = [2]int{16, 24}

var gridOrderings = [...]string{"br", "pbr", "d4", "minalpha"}

var workloads = []*workload{
	{
		name:    "solve-large",
		tailPct: 80,
		job:     solveLargeJob,
		warmup:  oneSweepWarmup(solveLargeJob),
		open:    openLocal(client.LocalConfig{}),
		drive:   closedDrive(1),
	},
	{
		name:    "serve-small",
		tailPct: 99,
		job:     serveSmallJob,
		warmup:  serveSmallWarmup,
		open:    openLocal(client.LocalConfig{LaneWidth: smallLaneWidth}),
		drive: func(e *env, s *session, dur time.Duration) *phase {
			openDur := time.Duration(float64(dur) * smallOpenShare)
			open, late := e.openLoop(s, openDur)
			closed, elapsed := e.closedLoop(s, smallOutstanding, dur-openDur, nil)
			return &phase{all: append(open, closed...), timed: open, late: late,
				thruJobs: countDone(closed), thruTime: elapsed}
		},
	},
	{
		name:    "remote-durable",
		tailPct: 95,
		job:     remoteDurableJob,
		warmup:  oneSweepWarmup(remoteDurableJob),
		open:    openRemote,
		drive:   closedDrive(remoteClients),
	},
	{
		name:    "paper-grid",
		tailPct: 98,
		job:     paperGridJob,
		warmup:  paperGridWarmup,
		open:    openLocal(client.LocalConfig{}),
		drive:   closedDrive(1),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func countDone(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if o.res != nil {
			n++
		}
	}
	return n
}

func openLocal(cfg client.LocalConfig) func(*env) (*session, error) {
	return func(*env) (*session, error) {
		c, err := client.NewLocal(cfg)
		if err != nil {
			return nil, err
		}
		return &session{c: c}, nil
	}
}

// openRemote boots a durable jacobitool serve child on a fresh data
// directory and connects to it with at most remoteClients connections (one
// more in traced runs, for the metrics sampler).
func openRemote(e *env) (*session, error) {
	e.mu.Lock()
	e.sessions++
	dir := filepath.Join(e.o.work, "run", fmt.Sprintf("%s-%d-%d", e.w.name, os.Getpid(), e.sessions))
	e.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, err
	}
	srv, err := startServer(e.serveBin, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	conns := remoteClients
	if e.tr != nil {
		conns++
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	c, err := client.NewHTTPClient(srv.base, hc)
	if err != nil {
		srv.stop()
		os.RemoveAll(dir)
		return nil, err
	}
	return &session{c: c, srv: srv}, nil
}

// closedDrive is the drive of a closed loop of clients; each gets the
// next job of the sequence when its last one ended.
func closedDrive(clients int) func(*env, *session, time.Duration) *phase {
	return func(e *env, s *session, dur time.Duration) *phase {
		outs, elapsed := e.closedLoop(s, clients, dur, e.probe(s))
		return &phase{all: outs, timed: outs, thruJobs: countDone(outs), thruTime: elapsed}
	}
}

// probe returns, for traced runs against a server, the per-job hook that
// sends one payload-free cost-only RandomSpec job every probeEvery jobs and
// times its submit round trip.
func (e *env) probe(s *session) func(*outcome) {
	if e.tr == nil || s.srv == nil {
		return nil
	}
	return func(o *outcome) {
		if o.j.idx%probeEvery != 0 {
			return
		}
		spec := client.Spec{Label: "probe", Random: &client.RandomSpec{N: 8, Seed: int64(o.j.idx)}, Dim: 2, CostOnly: true}
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		sp := e.tr.begin("httpapi.submit_probe", 0, -1)
		_, err := s.c.Submit(ctx, spec)
		sp.end()
		e.mu.Lock()
		defer e.mu.Unlock()
		e.probes++
		if err != nil {
			e.probeFails++
			fmt.Fprintf(os.Stderr, "benchmark: submit probe: %v\n", err)
		}
	}
}

func solveLargeJob(seed int64, i int) *job {
	ms := mix(seed, streamSolveLarge, i)
	if i == 0 {
		ms = anchorSeed
	}
	return &job{idx: i, n: anchorN, mseed: ms, explicit: true, hot: -1,
		spec: client.Spec{Label: "solve-large", Dim: 3, Ordering: "pbr"}}
}

func remoteDurableJob(seed int64, i int) *job {
	return &job{idx: i, n: 256, mseed: mix(seed, streamRemote, i), explicit: true, hot: -1,
		spec: client.Spec{Label: "remote-durable", Dim: 3, Ordering: "pbr"}}
}

// oneSweepWarmup warms a closed-loop workload with its sequence's first
// shape on a matrix of its own, for one fixed sweep: the schedule is built
// and the kernels paged in.
func oneSweepWarmup(jobAt func(int64, int) *job) func(int64) []*job {
	return func(seed int64) []*job {
		j := jobAt(seed, 0)
		j.idx, j.mseed = -1, mix(seed, streamWarm, 0)
		if j.spec.Random != nil {
			j.spec.Random = &client.RandomSpec{N: j.n, Seed: j.mseed}
		}
		j.spec.FixedSweeps, j.spec.Trace = 1, false
		return []*job{j}
	}
}

// paperGridWarmup warms paper-grid with its first cell on the analytic
// backend. That builds the same schedule and runs the same reference
// kernels as the emulated cell, without the emulated machine's node
// goroutines: their hand-offs made set-up time swing about twice as much as
// the host's speed when other tenants contend for its cores.
func paperGridWarmup(seed int64) []*job {
	js := oneSweepWarmup(paperGridJob)(seed)
	js[0].spec.Backend = "analytic"
	return js
}

// serveSmallWarmup fills one lane of each serve-small shape, so the lane
// path, not only the solo one, is warm.
func serveSmallWarmup(seed int64) []*job {
	var js []*job
	for k := 0; k < 2*smallLaneWidth; k++ {
		n, ms := smallSizes[k/smallLaneWidth], mix(seed, streamWarm, k)
		js = append(js, &job{idx: -1, n: n, mseed: ms, hot: -1,
			spec: client.Spec{Label: "warm-up", Random: &client.RandomSpec{N: n, Seed: ms}, Dim: 2}})
	}
	return js
}

// serveSmallJob draws one serve-small job: a repeat of one of the hot
// problems (a cache hit once it ran), or a fresh n=16 or n=24 problem;
// spread over four tenants and three priorities; one in ten read by a slow
// subscriber; Poisson arrivals at smallRate.
func serveSmallJob(seed int64, i int) *job {
	r := rand.New(rand.NewSource(mix(seed, streamServeSmall, i)))
	j := &job{idx: i, hot: -1}
	if r.Float64() < 0.2 {
		j.hot = r.Intn(smallHotProblems)
		j.n = smallSizes[j.hot%2]
		j.mseed = mix(seed, streamHot, j.hot)
	} else {
		j.n = smallSizes[r.Intn(2)]
		j.mseed = r.Int63()
	}
	j.slow = r.Float64() < 0.1
	j.gap = time.Duration(r.ExpFloat64() / smallRate * float64(time.Second))
	j.spec = client.Spec{
		Label:    "serve-small",
		Random:   &client.RandomSpec{N: j.n, Seed: j.mseed},
		Dim:      2,
		Tenant:   fmt.Sprintf("tenant-%d", r.Intn(4)),
		Priority: [...]int{-1, 0, 0, 0, 0, 0, 0, 0, 1, 1}[r.Intn(10)],
	}
	return j
}

// paperGridJob is cell i%128 of pass i/128. The cell's bits pick, from the
// lowest: backend (emulated, analytic), pipelining, one-port, ordering (two
// bits) and dimension d-2 (two bits). Every 4th cell — emulated and
// unpipelined — asks for the communication trace. A pass shares one seed.
func paperGridJob(seed int64, i int) *job {
	pass, cell := i/gridCells, i%gridCells
	ms := mix(seed, streamGrid, pass)
	return &job{idx: i, n: gridN, mseed: ms, hot: -1, spec: client.Spec{
		Label:       "paper-grid",
		Random:      &client.RandomSpec{N: gridN, Seed: ms},
		Backend:     [2]string{"emulated", "analytic"}[cell&1],
		Pipelined:   cell>>1&1 == 1,
		OnePort:     cell>>2&1 == 1,
		Ordering:    gridOrderings[cell>>3&3],
		Dim:         2 + cell>>5&3,
		FixedSweeps: 1,
		Trace:       cell%4 == 0,
	}}
}
