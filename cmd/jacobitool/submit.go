package main

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/client"
)

// newClient builds the one Client the CLI's consumer commands run on: the
// in-process pool when remote is empty, the HTTP v2 client against a
// `jacobitool serve` instance otherwise. Everything downstream of this
// call is transport-agnostic — the point of the client package. A
// comma-separated remote lists the endpoints of a serve cluster: the
// client fails over between them and keys every submission so retries
// cannot double-execute.
func newClient(remote string, cfg client.LocalConfig) (client.Client, error) {
	if remote == "" {
		return client.NewLocal(cfg)
	}
	return client.NewHTTPMulti(splitRemotes(remote))
}

// splitRemotes turns "-remote url1,url2" into the endpoint list.
func splitRemotes(remote string) []string {
	var urls []string
	for _, u := range strings.Split(remote, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// cmdSubmit submits one eigensolve through the client API — to a remote
// server with -remote, or to an in-process pool without it — optionally
// streaming the job's progress events and waiting for the result.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	remote := fs.String("remote", "", "server base URL (e.g. http://127.0.0.1:8473); empty = solve in-process")
	n := fs.Int("n", 64, "matrix size")
	seed := fs.Int64("seed", 1, "random-matrix seed")
	d := fs.Int("d", 2, "hypercube dimension")
	ord := fs.String("o", "", "ordering: br, pbr, d4, minalpha (empty = server default)")
	backend := fs.String("backend", "", "execution backend: auto, emulated, multicore, analytic")
	pipelined := fs.Bool("pipelined", false, "apply communication pipelining")
	q := fs.Int("q", 0, "pipelining degree (0 = cost-model optimum)")
	tol := fs.Float64("tol", 0, "convergence tolerance (0 = default)")
	sweeps := fs.Int("sweeps", 0, "max sweeps (0 = default)")
	oneport := fs.Bool("oneport", false, "one-port machine configuration")
	label := fs.String("label", "", "job label")
	key := fs.String("key", "", "idempotency key (a reused key returns the existing job)")
	watch := fs.Bool("watch", false, "stream the job's progress events")
	wait := fs.Bool("wait", false, "wait for the result (implied without -remote and by -watch)")
	idOnly := fs.Bool("idonly", false, "print only the job ID (scripting)")
	workers := fs.Int("workers", 0, "in-process solve-pool size (local mode)")
	threshold := fs.Int("threshold", 0, "local backend auto-selection threshold (0 = 64, negative = never multicore)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := newClient(*remote, client.LocalConfig{Workers: *workers, MulticoreThreshold: *threshold})
	if err != nil {
		return err
	}
	defer c.Close()

	spec := client.Spec{
		Label:          *label,
		Random:         &client.RandomSpec{N: *n, Seed: *seed},
		Dim:            *d,
		Ordering:       *ord,
		Backend:        *backend,
		Pipelined:      *pipelined,
		PipelineQ:      *q,
		Tol:            *tol,
		MaxSweeps:      *sweeps,
		OnePort:        *oneport,
		IdempotencyKey: *key,
	}
	ctx := context.Background()
	h, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if *idOnly {
		fmt.Println(h.ID())
	} else {
		st, err := h.Status(ctx)
		if err != nil {
			return err
		}
		reused := ""
		if st.Reused {
			reused = " (reused via idempotency key)"
		}
		fmt.Printf("submitted %s: n=%d d=%d ordering=%s backend=%s%s\n", st.ID, st.N, st.Dim, st.Ordering, st.Backend, reused)
	}
	// A local pool dies with the process, so a local submit always sees
	// the solve through; remote submissions return immediately unless
	// asked to follow.
	follow := *wait || *watch || *remote == ""
	if !follow {
		return nil
	}
	if *watch && !*idOnly {
		events, err := h.Events(ctx)
		if err != nil {
			return err
		}
		if _, err := streamEventLines(events); err != nil {
			return err
		}
	}
	res, err := h.Wait(ctx)
	if err != nil {
		return err
	}
	// -idonly keeps stdout to the one ID line (scripting contract), even
	// when the local pool forces a wait for the solve.
	if !*idOnly {
		printResult(h.ID(), res)
	}
	return nil
}

// cmdWatch streams an existing job's progress events from a remote server
// until its terminal event, failing when the stream ends without one.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	remote := fs.String("remote", "", "server base URL, or a comma-separated cluster endpoint list (required)")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: jacobitool watch -remote URL <job-id>")
	}
	c, err := client.NewHTTPMulti(splitRemotes(*remote))
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	return watchJob(ctx, c, fs.Arg(0))
}

// watchJob attaches to one remote job's event stream.
func watchJob(ctx context.Context, c *client.HTTP, id string) error {
	h := c.Handle(id)
	events, err := h.Events(ctx)
	if err != nil {
		return err
	}
	terminal, err := streamEventLines(events)
	if err != nil {
		return err
	}
	if terminal == nil {
		return fmt.Errorf("event stream for %s ended without a terminal event", id)
	}
	if terminal.Type != client.EventDone {
		// The terminal event was printed; the exit code must still tell a
		// script the job did not finish cleanly.
		return fmt.Errorf("job %s ended %s: %s", id, terminal.Type, terminalCause(terminal))
	}
	res, err := h.Result(ctx)
	if err != nil {
		return err
	}
	printResult(id, res)
	return nil
}

// terminalCause names a terminal event's cause for error messages.
func terminalCause(ev *client.Event) string {
	if ev.Error != "" {
		return ev.Error
	}
	return string(ev.Type)
}

// streamEventLines prints each event as one line and returns the terminal
// event, if the stream delivered one.
func streamEventLines(events <-chan client.Event) (*client.Event, error) {
	var terminal *client.Event
	for ev := range events {
		switch ev.Type {
		case client.EventSweep:
			fmt.Printf("%-8s #%-3d sweep=%d max_rel=%.3e off_norm=%.3e rotations=%d\n",
				ev.Type, ev.Seq, ev.Sweep.Sweep, ev.Sweep.MaxRel, ev.Sweep.OffNorm, ev.Sweep.Rotations)
		default:
			line := fmt.Sprintf("%-8s #%-3d state=%s", ev.Type, ev.Seq, ev.State)
			if ev.CacheHit {
				line += " cache=hit"
			}
			if ev.Error != "" {
				line += " error=" + ev.Error
			}
			fmt.Println(line)
		}
		if ev.Dropped > 0 {
			fmt.Printf("         (%d event(s) dropped before #%d — slow consumer)\n", ev.Dropped, ev.Seq)
		}
		if ev.Type.Terminal() {
			ev := ev
			terminal = &ev
		}
	}
	return terminal, nil
}

// printResult summarizes a finished job.
func printResult(id string, res *client.Result) {
	fmt.Printf("%s: %d eigenvalues, %d sweeps, converged=%v, backend=%s, makespan=%.0f, wall=%.1fms\n",
		id, len(res.Values), res.Sweeps, res.Converged, res.Backend, res.Makespan, res.WallMs)
}
