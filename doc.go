// Package repro is a production-quality Go reproduction of
//
//	"Jacobi Orderings for Multi-Port Hypercubes"
//	Dolors Royo, Antonio González, Miguel Valero-García
//	IPPS 1998, Universitat Politècnica de Catalunya
//
// The paper proposes two Jacobi orderings — permuted-BR and degree-4 — that
// let the one-sided Jacobi eigensolver exploit the multi-port capability of
// hypercube multicomputers through communication pipelining. This module
// implements the orderings, every substrate they depend on (hypercube
// topology, link-sequence analysis, sweep schedules, a channel-based
// multi-port hypercube emulator, the communication-pipelining transformation
// and its cost models, and the one-sided Jacobi method itself), and a
// benchmark harness that regenerates every table and figure of the paper's
// evaluation section.
//
// Entry points:
//
//   - client/: the public facade — one Client interface over local and
//     remote solves (client.Local runs an in-process pool, client.HTTP
//     speaks /api/v2 to a `jacobitool serve` instance), with job handles
//     exposing Wait/Cancel/Status/Result and a typed progress-event
//     stream (queued → started → per-sweep convergence → terminal)
//   - internal/engine: the one solve API — engine.NewProblem (or
//     NewSVDProblem) builds a Problem from a matrix, Run/RunContext/
//     RunCentral or BatchedBackend.RunLane executes it on a backend
//     (engine.NewBackend resolves emulated, multicore or analytic), and
//     Outcome.Eigen/Outcome.SVD extracts the sorted factors; the CLI and
//     the examples call it directly because client.Result carries no
//     eigenvectors
//   - internal/ordering: the paper's ordering families, sweep schedules,
//     sequence reports (AnalyzeSequence, Table1) and VerifyOrdering;
//     internal/costmodel (Figure2Panel) and internal/jacobi (the reference
//     solvers and RunTable2) drive the other experiments
//   - internal/service: the concurrent batch-solve service (priority job
//     queue, per-job backend auto-selection, a byte-budgeted fingerprint
//     result cache, per-job event fan-out, a batched solve lane that
//     gathers small same-shape jobs and solves up to eight of them in
//     SIMD lockstep inside one kernel invocation — DESIGN.md §11 — and
//     multi-tenant admission control: per-tenant queue quotas,
//     token-bucket rate limits and priority-aware load shedding, with
//     per-outcome latency histograms — DESIGN.md §12); internal/httpapi
//     mounts it as /api/v2 plus a Prometheus text-format GET /metrics
//     and GET /healthz
//   - internal/store: the durable job store behind `serve -data` — an
//     fsync'd CRC-framed journal plus per-job sweep-boundary engine
//     checkpoints, so a restarted server recovers finished results,
//     re-enqueues queued jobs and resumes in-flight solves bit-identically
//     (DESIGN.md §10)
//   - internal/cluster: the sharded multi-node layer behind `serve
//     -node-id/-cluster` — static membership, consistent-hash routing
//     on idempotency key, work stealing between peers, and
//     journal-shipping replication so a SIGKILL'd node loses no
//     terminal events: a ring successor adopts the dead node's shipped
//     journal, resumes its in-flight jobs from replicated checkpoints
//     and dedups resubmits against what it had already accepted
//     (DESIGN.md §13); client.NewHTTPMulti gives the client side
//     multi-endpoint failover
//   - internal/tuner: the ordering auto-tuner behind `jacobitool tune`
//     — per job shape (n, d, topology, ports) it searches the paper's
//     ordering families plus transform-derived candidates, scores each
//     by analytic-backend makespan, legality-checks every sweep and
//     validates against the cost models, then reports the winner; an
//     offline research tool whose results change nothing the service
//     runs (DESIGN.md §14)
//   - internal/analysis: jacobilint, a go/analysis suite that
//     mechanically enforces the repo's invariants — guarded-by mutex
//     discipline, errors.Is/%w sentinel hygiene, bounded decode-time
//     allocations, //jacobi:noalloc kernels, and deterministic
//     map-iteration in ordering/tuner code — with a mandatory-reason
//     //lint:allow escape hatch; cmd/jacobilint runs standalone or as
//     `go vet -vettool` and CI's lint job gates on it (DESIGN.md §15)
//   - cmd/jacobitool: command-line access to everything, including
//     `jacobitool serve` (the service over HTTP), `submit`/`watch`
//     (one-shot client runs, local or -remote, with live event
//     streaming), `batch` (solve a JSON manifest concurrently; -check
//     verifies every job against a sequential single-solve run) and
//     `loadgen` (an open-loop Poisson load driver emitting a JSON
//     latency report for the CI p99 SLO gate)
//   - examples/: runnable walkthroughs (quickstart, orderinglab,
//     eigensolve, commcost, pipelinelab, svdlab, clientlab)
//   - bench_test.go: one benchmark per paper table/figure plus ablations
//
// See DESIGN.md for the system inventory and the paper-to-code
// interpretation notes, and EXPERIMENTS.md for paper-vs-measured results.
package repro
