package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildSelf compiles the jacobitool binary into a temp dir and returns its
// path. Exit-code semantics are part of the CLI contract (scripts and the
// conformance suites branch on them), so they are pinned against the real
// binary rather than unit-tested through main.
func buildSelf(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "jacobitool")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !strings.Contains(err.Error(), "exit status") {
		t.Fatalf("running binary: %v", err)
	}
	ee = err.(*exec.ExitError)
	return ee.ExitCode()
}

func TestExitCodes(t *testing.T) {
	bin := buildSelf(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	cases := []struct {
		name string
		args []string
		want int
		// out, when set, must appear in the combined output.
		out string
	}{
		{"no args is a usage error", nil, 2, ""},
		{"unknown command is a usage error", []string{"frobnicate"}, 2, ""},
		{"bad flag is a usage error surfaced as runtime", []string{"verify", "-nosuchflag"}, 1, ""},
		{"runtime error", []string{"watch"}, 1, ""}, // missing -remote and job id
		{"help succeeds", []string{"help"}, 0, ""},
		{"verify succeeds", []string{"verify", "-d", "2", "-sweeps", "1"}, 0, ""},
		{"solve emulated succeeds", []string{"solve", "-m", "16", "-d", "2", "-backend", "emulated"}, 0, ""},
		{"solve multicore succeeds", []string{"solve", "-m", "16", "-d", "2", "-backend", "multicore"}, 0, ""},
		{"solve analytic succeeds", []string{"solve", "-m", "16", "-d", "2", "-backend", "analytic"}, 0, ""},
		{"solve pipelined succeeds", []string{"solve", "-m", "16", "-d", "2", "-pipelined"}, 0, ""},
		{"solve unknown backend is a runtime error", []string{"solve", "-m", "16", "-backend", "lane"}, 1, ""},
		{"simulate succeeds", []string{"simulate", "-m", "16", "-d", "2", "-sweeps", "1"}, 0, ""},
		{"balance succeeds", []string{"balance", "-d", "2", "-m", "16"}, 0, ""},
		{"svd succeeds", []string{"svd", "-rows", "12", "-cols", "6", "-d", "1"}, 0, ""},
		{"sequences succeeds", []string{"sequences", "-e", "3"}, 0, ""},
		{"table1 succeeds", []string{"table1", "-from", "3", "-to", "5"}, 0, ""},
		{"figure2 succeeds", []string{"figure2", "-m", "10", "-maxd", "4"}, 0, ""},
		{"tune succeeds", []string{"tune", "-shapes", "48:2"}, 0, "hypercube/n48/d2/p0"},
		{"tune json names a winner", []string{"tune", "-shapes", "48:2", "-json"}, 0, `"winner"`},
		// tune is offline: it has no data dir to write winners into, and
		// serve has no tuned plans to turn off. Both flags are unknown, and
		// serve fails before it binds a listener.
		{"tune -data is unknown", []string{"tune", "-shapes", "48:2", "-data", dataDir}, 1, "flag provided but not defined: -data"},
		{"serve -no-tuned is unknown", []string{"serve", "-no-tuned"}, 1, "flag provided but not defined: -no-tuned"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A serve that wrongly started would never exit on its own.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, c.args...).CombinedOutput()
			if got := exitCode(t, err); got != c.want {
				t.Errorf("jacobitool %v: exit %d, want %d\noutput:\n%s", c.args, got, c.want, out)
			}
			if !strings.Contains(string(out), c.out) {
				t.Errorf("jacobitool %v: output lacks %q:\n%s", c.args, c.out, out)
			}
		})
	}
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Errorf("tune -data created %s (stat err %v)", dataDir, err)
	}
}
