package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/tuner"
)

// cmdTune runs the ordering auto-tuner over a manifest of job shapes, an
// offline research tool: it reports each shape's winner and changes
// nothing a server runs. Shapes come from -shapes ("n:d[:p]" entries)
// and/or a -manifest JSON file; each shape's search scores the paper's
// ordering families plus transform-derived candidates against the analytic
// backend, validates the scores against the closed-form cost model, and
// keeps the legal schedule with the smallest one-sweep makespan (the
// unpipelined baseline is always candidate zero, so a winner never loses
// to it).
func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	shapes := fs.String("shapes", "", "comma-separated job shapes as n:d[:p] (e.g. 512:3,256:2:1)")
	manifest := fs.String("manifest", "", `JSON shape manifest: [{"n":512,"dim":3,"ports":0}, ...]`)
	budget := fs.Duration("budget", 0, "wall-clock budget for the whole run (0 = none); shapes already searched keep their winners")
	candidates := fs.Int("candidates", 0, "max candidates scored per shape beyond the baseline (0 = no cap)")
	random := fs.Int("random", 0, "transform-derived candidate families per shape (0 = tuner default)")
	seed := fs.Int64("seed", 0, "candidate-generation seed (0 = tuner default; searches are deterministic per seed)")
	ts := fs.Float64("ts", 0, "link startup time in machine units (0 = 1000, the paper's Ts)")
	tw := fs.Float64("tw", 0, "per-element transfer time in machine units (0 = 100, the paper's Tw)")
	baseline := fs.String("baseline", "", "baseline ordering candidates must beat (default pbr)")
	asJSON := fs.Bool("json", false, "emit the full search reports as JSON instead of the summary table")
	out := fs.String("out", "", "write the JSON reports to this path instead of stdout (implies -json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	list, err := tuneShapes(*shapes, *manifest)
	if err != nil {
		return err
	}
	if len(list) == 0 {
		return fmt.Errorf("no shapes: pass -shapes n:d[:p],... and/or -manifest FILE")
	}

	opt := tuner.Options{
		Baseline:      *baseline,
		Random:        *random,
		Seed:          *seed,
		MaxCandidates: *candidates,
	}
	if *budget > 0 {
		opt.Deadline = time.Now().Add(*budget)
	}
	params := tuner.Params{Ts: *ts, Tw: *tw}

	reports := make([]*tuner.Report, 0, len(list))
	for _, sh := range list {
		rep, err := tuner.Search(sh, params, opt)
		if err != nil {
			return fmt.Errorf("shape %s: %w", sh.Key(), err)
		}
		reports = append(reports, rep)
	}

	if *out != "" || *asJSON {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("jacobitool tune: wrote %s\n", *out)
		} else {
			os.Stdout.Write(data)
		}
		return nil
	}

	fmt.Printf("%-22s %-14s %4s %14s %14s %7s %6s\n",
		"shape", "winner", "pipe", "baseline", "tuned", "gain%", "tried")
	for _, rep := range reports {
		w := rep.Winner
		pipe := "no"
		if w.Pipelined {
			pipe = "yes"
		}
		gain := 0.0
		if w.BaselineMakespan > 0 {
			gain = 100 * (w.BaselineMakespan - w.TunedMakespan) / w.BaselineMakespan
		}
		fmt.Printf("%-22s %-14s %4s %14.0f %14.0f %6.1f%% %6d\n",
			rep.Shape.Key(), w.FamilyName, pipe,
			w.BaselineMakespan, w.TunedMakespan, gain, rep.Tried)
	}
	return nil
}

// tuneShapes merges the -shapes list and the -manifest file into one shape
// set, in the order given (a duplicate shape is searched again).
func tuneShapes(spec, manifestPath string) ([]tuner.Shape, error) {
	var list []tuner.Shape
	if spec != "" {
		for _, part := range strings.Split(spec, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			sh, err := parseShape(part)
			if err != nil {
				return nil, err
			}
			list = append(list, sh)
		}
	}
	if manifestPath != "" {
		data, err := os.ReadFile(manifestPath)
		if err != nil {
			return nil, err
		}
		var entries []struct {
			N     int    `json:"n"`
			Dim   int    `json:"dim"`
			Ports int    `json:"ports"`
			Topo  string `json:"topology"`
		}
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", manifestPath, err)
		}
		for _, e := range entries {
			list = append(list, tuner.Shape{N: e.N, Dim: e.Dim, Ports: e.Ports, Topology: e.Topo})
		}
	}
	return list, nil
}

// parseShape parses one "n:d[:p]" shape spec.
func parseShape(s string) (tuner.Shape, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return tuner.Shape{}, fmt.Errorf("shape %q: want n:d or n:d:p", s)
	}
	nums := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return tuner.Shape{}, fmt.Errorf("shape %q: %w", s, err)
		}
		nums[i] = v
	}
	sh := tuner.Shape{N: nums[0], Dim: nums[1]}
	if len(nums) == 3 {
		sh.Ports = nums[2]
	}
	return sh, nil
}
