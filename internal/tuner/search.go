package tuner

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
	"repro/internal/sequence"
)

// Params carries the timing-model parameters the analytic oracle and the
// cost models are evaluated under (the paper's Figure 2 uses Ts=1000,
// Tw=100, which are the defaults).
type Params struct {
	Ts float64
	Tw float64
}

func (p Params) withDefaults() Params {
	if p.Ts == 0 {
		p.Ts = 1000
	}
	if p.Tw == 0 {
		p.Tw = 100
	}
	return p
}

// Options bound and seed one search.
type Options struct {
	// Baseline is the CLI name of the baseline ordering candidates must
	// beat; default "pbr", the service's default ordering.
	Baseline string
	// Random is the number of transform-derived candidate families to
	// generate beyond the four paper families; default 6.
	Random int
	// Seed drives candidate generation and the scoring matrix; default 1.
	// Searches are deterministic for a given (shape, params, options).
	Seed int64
	// MaxCandidates caps how many candidates are scored (the baseline is
	// always scored and does not count); 0 means no cap.
	MaxCandidates int
	// Deadline, when non-zero, stops scoring further candidates once
	// passed; the best schedule found so far wins.
	Deadline time.Time
	// ModelTol is the relative tolerance for validating pipelined analytic
	// makespans against costmodel.PipelinedSweepCost; default 0.05. The
	// unpipelined baseline must match costmodel.BaselineSweepCost to 1e-9.
	ModelTol float64
}

func (o Options) withDefaults() Options {
	if o.Baseline == "" {
		o.Baseline = "pbr"
	}
	if o.Random == 0 {
		o.Random = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ModelTol == 0 {
		o.ModelTol = 0.05
	}
	return o
}

// Scored is one candidate's outcome, kept in the report for diagnosis.
type Scored struct {
	Name      string  `json:"name"`
	Canonical string  `json:"canonical,omitempty"`
	Pipelined bool    `json:"pipelined"`
	Makespan  float64 `json:"makespan"`
	// Model is the closed-form cost-model makespan; ModelRelErr the
	// relative disagreement between oracle and model.
	Model       float64 `json:"model"`
	ModelRelErr float64 `json:"model_rel_err"`
	// Rejected explains why an illegal or model-divergent candidate was
	// excluded from winner selection; empty for accepted candidates.
	Rejected string `json:"rejected,omitempty"`
}

// Report is the full outcome of one shape's search.
type Report struct {
	Shape    Shape   `json:"shape"`
	Baseline string  `json:"baseline"`
	Ts       float64 `json:"ts"`
	Tw       float64 `json:"tw"`
	// BaselineMakespan is the analytic one-sweep makespan of the baseline
	// ordering, unpipelined — the paper's CC-cube reference cost.
	BaselineMakespan float64 `json:"baseline_makespan"`
	// Winner is the best legal validated schedule (gain 0 when nothing
	// beat the baseline; never nil on success).
	Winner *Schedule `json:"winner"`
	Scored []Scored  `json:"scored"`
	// Generated counts candidates produced; Tried counts candidates
	// actually scored before a budget cut them off.
	Generated int           `json:"generated"`
	Tried     int           `json:"tried"`
	Elapsed   time.Duration `json:"elapsed_ns"`
}

// candidate is one execution plan under evaluation.
type candidate struct {
	name      string
	canonical string
	fam       ordering.Family
	pipelined bool
}

// Search runs the auto-tuner for one shape: generate candidates, legality-
// check each (every sweep must cover all column pairs exactly once), score
// by analytic-backend makespan, validate against the cost model, and return
// the best schedule. The baseline ordering is always candidate zero, so the
// winner's makespan never exceeds the baseline's.
//
// Search exploits a structural fact of the model (DESIGN.md notes 7-8):
// without pipelining every ordering costs the same (2^(d+1)-1)·(Ts+S·Tw)
// sweep, so the search space that matters — and the one the paper's central
// comparison spans — is ordering family × pipelining plan. All non-baseline
// candidates are therefore scored under pipelining with the cost-model
// optimal degree per phase.
func Search(shape Shape, p Params, opt Options) (*Report, error) {
	start := time.Now()
	shape = shape.normalize()
	if err := shape.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	opt = opt.withDefaults()
	if _, err := ordering.FamilyByName(opt.Baseline); err != nil {
		return nil, err
	}

	rep := &Report{Shape: shape, Baseline: opt.Baseline, Ts: p.Ts, Tw: p.Tw}
	rng := rand.New(rand.NewSource(opt.Seed))
	// One scoring matrix shared by every candidate: the analytic clock does
	// not depend on values, but running the real solve keeps the oracle
	// honest (it executes the exact sweep schedule it prices).
	a := matrix.RandomSymmetric(shape.N, rng)
	mp := costmodel.Params{M: float64(shape.N), Ts: p.Ts, Tw: p.Tw, Ports: shape.Ports}

	// Candidate zero: the baseline ordering, unpipelined.
	baseFam, _ := ordering.FamilyByName(opt.Baseline)
	baseSpan, err := score(a, shape, p, baseFam, false)
	if err != nil {
		return nil, fmt.Errorf("tuner: score baseline %s: %w", opt.Baseline, err)
	}
	baseModel := costmodel.BaselineSweepCost(shape.Dim, mp)
	// The closed-form model assumes N divides evenly into the 2^(d+1)
	// blocks; uneven shapes carry larger worst-case payloads, so they only
	// have to agree within ModelTol. Even shapes must match exactly.
	baseTol := opt.ModelTol
	if shape.N%(2<<uint(shape.Dim)) == 0 {
		baseTol = 1e-9
	}
	if relErr(baseSpan, baseModel) > baseTol {
		return nil, fmt.Errorf("tuner: analytic baseline makespan %g diverges from cost model %g", baseSpan, baseModel)
	}
	rep.BaselineMakespan = baseSpan
	rep.Scored = append(rep.Scored, Scored{Name: baseFam.Name(), Canonical: opt.Baseline, Makespan: baseSpan, Model: baseModel})

	best := &Schedule{
		Shape:            shape,
		FamilyName:       baseFam.Name(),
		Canonical:        opt.Baseline,
		BaselineMakespan: baseSpan,
		TunedMakespan:    baseSpan,
	}

	cands := generate(shape, opt, rng)
	rep.Generated = len(cands)
	for _, c := range cands {
		if opt.MaxCandidates > 0 && rep.Tried >= opt.MaxCandidates {
			break
		}
		if !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) {
			break
		}
		rep.Tried++
		sc := Scored{Name: c.name, Canonical: c.canonical, Pipelined: c.pipelined}
		// Legality first: a candidate that is not a legal Jacobi ordering
		// never reaches the oracle. Two sweeps cover the schedule's
		// sweep-to-sweep rotation.
		if err := ordering.VerifySweepColumns(shape.N, shape.Dim, c.fam, 2); err != nil {
			sc.Rejected = fmt.Sprintf("illegal ordering: %v", err)
			rep.Scored = append(rep.Scored, sc)
			continue
		}
		span, err := score(a, shape, p, c.fam, c.pipelined)
		if err != nil {
			sc.Rejected = fmt.Sprintf("score: %v", err)
			rep.Scored = append(rep.Scored, sc)
			continue
		}
		sc.Makespan = span
		// Validate the oracle against the closed-form model.
		if c.pipelined {
			cost, err := costmodel.PipelinedSweepCost(shape.Dim, c.fam, mp)
			if err != nil {
				sc.Rejected = fmt.Sprintf("cost model: %v", err)
				rep.Scored = append(rep.Scored, sc)
				continue
			}
			sc.Model = cost.Total
		} else {
			sc.Model = costmodel.BaselineSweepCost(shape.Dim, mp)
		}
		sc.ModelRelErr = relErr(span, sc.Model)
		if sc.ModelRelErr > opt.ModelTol {
			sc.Rejected = fmt.Sprintf("analytic makespan %g diverges from cost model %g (rel %.3g > %.3g)", span, sc.Model, sc.ModelRelErr, opt.ModelTol)
			rep.Scored = append(rep.Scored, sc)
			continue
		}
		rep.Scored = append(rep.Scored, sc)
		if span < best.TunedMakespan {
			best = &Schedule{
				Shape:            shape,
				FamilyName:       c.fam.Name(),
				Canonical:        c.canonical,
				Pipelined:        c.pipelined,
				BaselineMakespan: baseSpan,
				TunedMakespan:    span,
			}
			if c.canonical == "" {
				best.Phases = serializePhases(c.fam, shape.Dim)
			}
		}
	}
	best.Candidates = rep.Tried + 1
	rep.Winner = best
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// generate builds the candidate list: the four paper families plus
// transform-derived families seeded by internal/sequence, all pipelined.
func generate(shape Shape, opt Options, rng *rand.Rand) []candidate {
	var cands []candidate
	for _, cli := range []string{"br", "pbr", "d4", "minalpha"} {
		fam, err := ordering.FamilyByName(cli)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{name: fam.Name(), canonical: cli, fam: fam, pipelined: true})
	}
	if shape.Dim > sequence.MaxRandomDim {
		return cands
	}
	// Per-phase candidate pools; candidate i takes the i-th entry of each
	// pool (modulo pool size), composing a full family from transforms.
	pools := make(map[int][]sequence.Seq, shape.Dim)
	for e := 1; e <= shape.Dim; e++ {
		pools[e] = sequence.TransformCandidates(e, opt.Random, rng)
	}
	for i := 0; i < opt.Random; i++ {
		phases := make(map[int]sequence.Seq, shape.Dim)
		for e := 1; e <= shape.Dim; e++ {
			if pool := pools[e]; len(pool) > 0 {
				phases[e] = pool[i%len(pool)]
			}
		}
		name := fmt.Sprintf("tuned-t%d", i)
		fam, err := ordering.CustomFamily(name, phases)
		if err != nil {
			continue // impossible: TransformCandidates validates
		}
		cands = append(cands, candidate{name: name, fam: fam, pipelined: true})
	}
	return cands
}

// score runs one fixed-sweep solve of the scoring matrix on the analytic
// backend and returns the modeled makespan.
func score(a *matrix.Dense, shape Shape, p Params, fam ordering.Family, pipelined bool) (float64, error) {
	prob, err := engine.NewProblem(a, shape.Dim, nil)
	if err != nil {
		return 0, err
	}
	ports := machine.PortModel(shape.Ports)
	prob.Family = fam
	prob.FixedSweeps = 1
	prob.Pipelined = pipelined
	prob.PipelineTs, prob.PipelineTw, prob.PipelinePorts = p.Ts, p.Tw, int(ports)
	_, stats, err := prob.Run(&engine.Analytic{Ports: ports, Ts: p.Ts, Tw: p.Tw})
	if err != nil {
		return 0, err
	}
	return stats.Makespan, nil
}

// serializePhases captures a family's phases 1..d in portable text form.
func serializePhases(fam ordering.Family, d int) map[int]string {
	return ordering.SerializeFamily(fam, d)
}

// relErr returns |a-b| relative to the larger magnitude (0 when both are 0).
func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
