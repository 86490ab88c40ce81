package guardedfield_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/guardedfield"
)

func TestGuardedField(t *testing.T) {
	atest.Run(t, "testdata", guardedfield.Analyzer, "guarded")
}

func TestWrittenOnlyBy(t *testing.T) {
	atest.Run(t, "testdata", guardedfield.Analyzer, "writers")
}
