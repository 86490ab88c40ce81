// Command benchmark measures the batch-solve system end to end and layer by
// layer. It drives the system only through its public entry points —
// client.Local, client.HTTP and a `jacobitool serve` child process — and, in
// a traced run, calls store, kernel, ordering and costmodel directly for
// isolated per-layer timings. Every result is checked; a wrong one fails the
// run.
//
// From the repository root (run.sh builds the binary, then runs it):
//
//	bash benchmark/run.sh -w solve-large -seed 1 [-seconds 25] [-trace 1]
//	bash benchmark/run.sh -w all -runs 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics ({name: {value, unit}}): the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one. README.md describes the workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	runs     int
	root     string
	work     string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "w", "", "workload: solve-large, serve-small, remote-durable, paper-grid or all")
	fs.StringVar(&o.workload, "workload", "", "same as -w")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run, printing the per-layer metrics and writing the spans to <work>/trace/<workload>-seed<seed>.json")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies -seconds")
	fs.IntVar(&o.runs, "runs", 1, "N > 1: run seeds seed..seed+N-1, one process each, and print each metric's median and spread")
	fs.StringVar(&o.root, "root", "", "repository root (default: . or .., whichever holds go.mod and benchmark/go.mod)")
	fs.StringVar(&o.work, "work", "", "directory for the jacobitool build, data directories and span files (default <root>/.bench_build)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.workload != "all" && workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, workloadNames())
	}
	if o.seconds <= 0 || o.scale <= 0 || o.runs < 1 || (o.trace != 0 && o.trace != 1) {
		return o, errors.New("need -seconds > 0, -scale > 0, -runs >= 1 and -trace 0 or 1")
	}
	if o.root == "" {
		for _, dir := range []string{".", ".."} {
			if isRepoRoot(dir) {
				o.root = dir
				break
			}
		}
	}
	if o.root == "" || !isRepoRoot(o.root) {
		return o, errors.New("cannot find the repository root (go.mod beside benchmark/go.mod); pass -root")
	}
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return o, err
	}
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build")
	}
	return o, nil
}

func isRepoRoot(dir string) bool {
	for _, f := range []string{"go.mod", filepath.Join("benchmark", "go.mod")} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			return false
		}
	}
	return true
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	if o.runs > 1 || o.workload == "all" {
		return runMany(o, stdout, stderr)
	}
	w := workloadByName(o.workload)
	rep, err := runWorkload(o, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printReport(stdout, w.name, rep, o.trace == 1)
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the result line of one run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// endToEnd are the end-to-end metrics, which a traced run computes for
	// its untraced window but does not print.
	endToEnd map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, name string, rep *report, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s: %s metrics, %d attempted, %d failed, correct=%v\n", name, kind, rep.Attempted, rep.Failed, rep.Correct)
	for _, d := range metricDefs(traced) {
		v := rep.Metrics[d.name]
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.name, v.Value, v.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		// Only a NaN or an infinity can get here; metrics never hold either.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

// runMany runs every requested (workload, seed) pair in its own process, so
// each workload's memory and CPU figures are its own, and summarizes each
// metric over the seeds: median, quartiles (as Python's
// statistics.quantiles computes them), the interquartile range and the
// full range as shares of the median. The last line is the same summary as
// JSON.
func runMany(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	type summary struct {
		Median    float64 `json:"median"`
		Q1        float64 `json:"q1"`
		Q3        float64 `json:"q3"`
		IQRFrac   float64 `json:"iqr_frac"`
		RangeFrac float64 `json:"range_frac"`
		Unit      string  `json:"unit"`
	}
	out := map[string]map[string]summary{}
	code := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < o.runs; i++ {
			seed := o.seed + int64(i)
			args := []string{"-w", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
				"-trace", strconv.Itoa(o.trace), "-root", o.root, "-work", o.work}
			cmd := exec.Command(self, args...)
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", name, seed, err)
				code = 1
				continue
			}
			var rep report
			if err := json.Unmarshal(lastLine(buf.Bytes()), &rep); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: bad result line: %v\n", name, seed, err)
				code = 1
				continue
			}
			for k, v := range rep.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		out[name] = map[string]summary{}
		fmt.Fprintf(stdout, "%s over %d seeds from %d:\n", name, o.runs, o.seed)
		fmt.Fprintf(stdout, "  %-32s %14s %14s %14s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
		for _, d := range metricDefs(o.trace == 1) {
			vs := values[d.name]
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			lo, hi := minMax(vs)
			s := summary{Median: med, Q1: q1, Q3: q3, IQRFrac: share(q3-q1, med), RangeFrac: share(hi-lo, med), Unit: d.unit}
			out[name][d.name] = s
			fmt.Fprintf(stdout, "  %-32s %14.6g %14.6g %14.6g %9.4f %9.4f %s\n", d.name, med, q1, q3, s.IQRFrac, s.RangeFrac, d.unit)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// share is part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return math.Abs(part / whole)
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
