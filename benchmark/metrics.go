package main

import (
	"math"

	"repro/internal/costmodel"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units with each metric's direction and bound.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"ack_p50_ms", "ms"},
	{"ack_tail_ms", "ms"},
	{"success_frac", "frac"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MiB"},
	{"modeled_makespan_units", "units"},
}

var perLayer = []metricDef{
	{"kernel.ns_per_pair.fused", "ns"},
	{"kernel.ns_per_pair.lane", "ns"},
	{"kernel.ns_per_pair.solve", "ns"},
	{"kernel.gflops_computed", "GFLOP/s"},
	{"kernel.bytes_per_pair_computed", "B"},
	{"kernel.allocs_per_op", "count"},
	{"engine.solve_ms.p50", "ms"},
	{"engine.sweeps_per_job", "count"},
	{"engine.sweep_ms.p50", "ms"},
	{"engine.sweep_ms.p99", "ms"},
	{"engine.speedup_1core", "x"},
	{"service.lane_fill_ratio", "frac"},
	{"service.lanes_dispatched", "count"},
	{"service.cache_hit_ratio", "frac"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p99", "ms"},
	{"service.run_ms.p50", "ms"},
	{"service.run_ms.p99", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.inflight_max", "count"},
	{"service.refused", "count"},
	{"client.terminal_lag_ms.p50", "ms"},
	{"client.terminal_lag_ms.p99", "ms"},
	{"client.events_dropped", "count"},
	{"client.request_bytes", "B"},
	{"client.encode_ms.p50", "ms"},
	{"client.result_ms.p50", "ms"},
	{"gen.late_ms.p99", "ms"},
	{"httpapi.submit_rtt_ms.p50", "ms"},
	{"store.append_ms.p50", "ms"},
	{"store.fsyncs_per_job", "count"},
	{"store.save_ckpt_ms.p50", "ms"},
	{"store.ckpt_bytes_per_job", "B"},
	{"store.journal_bytes_per_job", "B"},
	{"machine.wall_ms_per_sweep", "ms"},
	{"machine.messages_per_sweep", "count"},
	{"machine.elements_per_sweep", "count"},
	{"costmodel.drift_max", "frac"},
	{"ordering.schedule_builds", "count"},
	{"ordering.schedule_hits", "count"},
	{"ordering.build_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// metricSet fills a report's metrics, taking each unit from the tables.
type metricSet map[string]metricValue

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: unlisted metric " + name)
}

// endToEndMetrics are what a user of the system sees in the untraced
// window: set-up time, throughput, job and submit latency, the share of
// jobs that succeeded, CPU per job, memory, and the modeled makespan.
func (e *env) endToEndMetrics(setups []float64, ph *phase) map[string]metricValue {
	var ack []float64
	for _, o := range ph.timed {
		if o.acked {
			ack = append(ack, o.ackMs)
		}
	}
	lat := ph.latencies()
	done, failed := 0, 0
	for _, o := range ph.all {
		switch {
		case o.err != nil:
			failed++
		case o.res != nil:
			done++
		}
	}
	m := metricSet{}
	set := func(name string, v float64) { m.set(endToEnd, name, v) }
	set("setup_s", median(setups))
	set("jobs_per_s", float64(ph.thruJobs)/max(ph.thruTime.Seconds(), 1e-9))
	set("job_p50_ms", median(lat))
	set("job_tail_ms", percentile(lat, e.w.tailPct))
	set("ack_p50_ms", median(ack))
	set("ack_tail_ms", percentile(ack, e.w.tailPct))
	set("success_frac", 1-float64(failed)/float64(max(len(ph.all), 1)))
	set("cpu_ms_per_job", ph.cpuMs/float64(max(done, 1)))
	set("peak_rss_mb", ph.rssMB)
	set("modeled_makespan_units", modeledMakespan(ph.all))
	return m
}

// latencies are the job latencies of the phase's timed, successful jobs.
func (ph *phase) latencies() []float64 {
	var lat []float64
	for _, o := range ph.timed {
		if o.timed && o.err == nil {
			lat = append(lat, o.latMs)
		}
	}
	return lat
}

// modeledMakespan is the mean modeled makespan per completed job. A
// paper-grid cell reports its own, from the virtual clock; the average is
// over whole passes, which all hold the same cells, so it does not depend
// on where the window cut the last pass. Other jobs run on unclocked
// backends: theirs is the paper's cost of the sweeps they ran,
// costmodel.BaselineSweepCost × sweeps.
func modeledMakespan(outs []*outcome) float64 {
	perPass := map[int]int{}
	for _, o := range outs {
		if o.res != nil && o.j.spec.FixedSweeps > 0 {
			perPass[o.j.idx/gridCells]++
		}
	}
	var vals, whole []float64
	for _, o := range outs {
		if o.err != nil || o.res == nil {
			continue
		}
		r := o.res
		if o.j.spec.FixedSweeps == 0 {
			p := costmodel.Params{M: float64(o.j.n), Ts: 1000, Tw: 100}
			vals = append(vals, costmodel.BaselineSweepCost(o.j.spec.Dim, p)*float64(r.Sweeps))
			continue
		}
		vals = append(vals, r.Makespan)
		if perPass[o.j.idx/gridCells] == gridCells {
			whole = append(whole, r.Makespan)
		}
	}
	if len(whole) > 0 {
		return mean(whole)
	}
	return mean(vals)
}

// gridPairs pairs each paper-grid cell's emulated and analytic runs.
func gridPairs(outs []*outcome) [][2]*outcome {
	byCell := map[[2]int]*[2]*outcome{}
	var pairs [][2]*outcome
	for _, o := range outs {
		if o.err != nil || o.res == nil || o.j.spec.FixedSweeps == 0 {
			continue
		}
		cell := o.j.idx % gridCells
		k := [2]int{o.j.idx / gridCells, cell >> 1}
		p := byCell[k]
		if p == nil {
			p = &[2]*outcome{}
			byCell[k] = p
		}
		p[cell&1] = o
		if p[0] != nil && p[1] != nil {
			pairs = append(pairs, *p)
		}
	}
	return pairs
}

// layerMetrics are the per-layer numbers of the traced window pt, from
// public results, statuses, events and metrics, the spans around each call,
// and the isolated calls mc. pu, the untraced window of the same run, is
// the reference for trace.overhead_frac.
func (e *env) layerMetrics(pu, pt *phase, mc *micro) map[string]metricValue {
	var (
		solveMs, nsPair, gflops, bytesPair, sweeps []float64
		gaps, waits, runs, lags, reqBytes          []float64
		emuWall, emuMsgs, emuElems                 []float64
		dropped                                    int
	)
	for _, o := range pt.all {
		if o.reqBytes > 0 {
			reqBytes = append(reqBytes, float64(o.reqBytes))
		}
		if o.timed {
			lags = append(lags, ms(o.recv.Sub(o.term.Time)))
			gaps = append(gaps, o.gapsMs...)
		}
		dropped += o.dropped
		if o.err != nil || o.res == nil {
			continue
		}
		if o.st != nil {
			waits, runs = append(waits, o.st.WaitMs), append(runs, o.st.RunMs)
		}
		r := o.res
		if o.term.CacheHit || r.Sweeps == 0 || r.WallMs <= 0 {
			continue
		}
		// Computed from sizes: each pair examined takes one n-long dot
		// product (the norms are carried) and reads two columns; each
		// rotation updates two working and two factor columns in place.
		n := float64(o.j.n)
		pairs := float64(r.Sweeps) * n * (n - 1) / 2
		rot := float64(r.Rotations)
		solveMs = append(solveMs, r.WallMs)
		sweeps = append(sweeps, float64(r.Sweeps))
		nsPair = append(nsPair, r.WallMs*1e6/pairs)
		gflops = append(gflops, (pairs*2*n+rot*12*n)/(r.WallMs*1e6))
		bytesPair = append(bytesPair, (pairs*16*n+rot*48*n)/pairs)
		if r.Backend == "emulated" {
			s := float64(r.Sweeps)
			emuWall = append(emuWall, r.WallMs/s)
			emuMsgs = append(emuMsgs, float64(r.Messages)/s)
			emuElems = append(emuElems, float64(r.Elements)/s)
		}
	}
	drift := 0.0
	for _, p := range gridPairs(pt.all) {
		drift = max(drift, math.Abs(p[0].res.Makespan/p[1].res.Makespan-1))
	}
	d0, d1 := pt.m0, pt.m1
	completed := float64(d1.Completed - d0.Completed)
	refused := (d1.QuotaRejected + d1.RateLimited + d1.QueueFullRejected + d1.ShedJobs) -
		(d0.QuotaRejected + d0.RateLimited + d0.QueueFullRejected + d0.ShedJobs)
	var fsyncs, ckptBytes, journalBytes float64
	if pt.durable {
		// Computed: three fsync'd journal appends per job (submitted,
		// started, finished), and per sweep checkpoint one file and one
		// directory fsync; the writer may skip a checkpoint superseded
		// before it was written, so these are upper bounds.
		fsyncs = 3 + 2*mean(sweeps)
		ckptBytes = mean(sweeps) * mc.ckptBytes
		journalBytes = float64(pt.dataBytes) / float64(max(countDone(pt.all), 1))
	}

	m := metricSet{}
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	set("kernel.ns_per_pair.fused", mc.fusedNsPerPair)
	set("kernel.ns_per_pair.lane", mc.laneNsPerPair)
	set("kernel.ns_per_pair.solve", median(nsPair))
	set("kernel.gflops_computed", median(gflops))
	set("kernel.bytes_per_pair_computed", median(bytesPair))
	set("kernel.allocs_per_op", mc.allocsPerOp)
	set("engine.solve_ms.p50", median(solveMs))
	set("engine.sweeps_per_job", mean(sweeps))
	set("engine.sweep_ms.p50", median(gaps))
	set("engine.sweep_ms.p99", percentile(gaps, 99))
	set("engine.speedup_1core", mc.speedup1Core)
	set("service.lane_fill_ratio", d1.LaneFillRatio)
	set("service.lanes_dispatched", float64(d1.LanesDispatched-d0.LanesDispatched))
	set("service.cache_hit_ratio", float64(d1.CacheHits-d0.CacheHits)/max(completed, 1))
	set("service.queue_wait_ms.p50", median(waits))
	set("service.queue_wait_ms.p99", percentile(waits, 99))
	set("service.run_ms.p50", median(runs))
	set("service.run_ms.p99", percentile(runs, 99))
	set("service.queue_depth_max", float64(pt.queueMax))
	set("service.inflight_max", float64(pt.inflightMax))
	set("service.refused", float64(refused))
	set("client.terminal_lag_ms.p50", median(lags))
	set("client.terminal_lag_ms.p99", percentile(lags, 99))
	set("client.events_dropped", float64(dropped))
	set("client.request_bytes", mean(reqBytes))
	set("client.encode_ms.p50", median(e.tr.durationsMs("client.encode")))
	set("client.result_ms.p50", median(e.tr.durationsMs("client.result")))
	set("gen.late_ms.p99", percentile(pt.late, 99))
	set("httpapi.submit_rtt_ms.p50", median(e.tr.durationsMs("httpapi.submit_probe")))
	set("store.append_ms.p50", median(e.tr.durationsMs("store.append")))
	set("store.fsyncs_per_job", fsyncs)
	set("store.save_ckpt_ms.p50", median(e.tr.durationsMs("store.save_checkpoint")))
	set("store.ckpt_bytes_per_job", ckptBytes)
	set("store.journal_bytes_per_job", journalBytes)
	set("machine.wall_ms_per_sweep", median(emuWall))
	set("machine.messages_per_sweep", mean(emuMsgs))
	set("machine.elements_per_sweep", mean(emuElems))
	set("costmodel.drift_max", drift)
	set("ordering.schedule_builds", float64(d1.ScheduleBuilds-d0.ScheduleBuilds))
	set("ordering.schedule_hits", float64(d1.ScheduleHits-d0.ScheduleHits))
	set("ordering.build_ms", median(e.tr.durationsMs("ordering.build_sweeps")))
	set("trace.overhead_frac", median(pt.latencies())/max(median(pu.latencies()), 1e-9)-1)
	set("trace.spans", float64(e.tr.count()))
	return m
}
