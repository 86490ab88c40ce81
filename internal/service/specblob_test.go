package service

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/matrix"
)

func TestSpecBlobRoundTrip(t *testing.T) {
	spec := JobSpec{Matrix: randSym(32, 3), Dim: 2, Ordering: "d4", Tol: 1e-9, Priority: 2, Label: "x", Tenant: "t"}
	blob, err := encodeSpecBlob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.Is(blob) {
		t.Fatal("spec blob is not a frame")
	}
	got, err := decodeSpecBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip: %+v, want %+v", got, spec)
	}
	legacy, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeSpecBlob(legacy); err != nil || !reflect.DeepEqual(got, spec) {
		t.Fatalf("legacy JSON blob: %+v, %v", got, err)
	}
	if len(blob) >= len(legacy)/2 {
		t.Fatalf("framed blob is %d bytes, JSON %d", len(blob), len(legacy))
	}
}

func TestSpecBlobRejects(t *testing.T) {
	hdr := func(m *matrix.Dense) []byte {
		b, err := json.Marshal(JobSpec{Matrix: m, Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	corrupt, _ := encodeSpecBlob(JobSpec{Matrix: randSym(4, 1), Dim: 1})
	corrupt[len(corrupt)-10] ^= 1
	for name, blob := range map[string][]byte{
		"values without a matrix": frame.Encode(hdr(nil), []float64{1}),
		"shape/count mismatch":    frame.Encode(hdr(&matrix.Dense{Rows: 2, Cols: 2}), []float64{1, 2, 3}),
		"negative shape":          frame.Encode(hdr(&matrix.Dense{Rows: -1, Cols: -1}), []float64{1}),
		"data in the header":      frame.Encode(hdr(&matrix.Dense{Rows: 1, Cols: 1, Data: []float64{1}}), []float64{1}),
		"bad CRC":                 corrupt,
		"bad JSON":                []byte(`{"Matrix":`),
	} {
		if _, err := decodeSpecBlob(blob); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
