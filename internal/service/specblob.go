package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/frame"
	"repro/internal/matrix"
)

// The KindSubmitted spec blob of the journal is an internal/frame frame:
// the header is the JobSpec's JSON with Matrix reduced to Rows/Cols, and
// the frame's values are the matrix entries. Journals written before the
// frame existed hold the whole JobSpec as JSON; decodeSpecBlob reads both,
// and compaction's slim specs of terminal jobs (no matrix) stay JSON.

// encodeSpecBlob encodes a job spec as a KindSubmitted blob.
func encodeSpecBlob(spec JobSpec) ([]byte, error) {
	var data []float64
	if spec.Matrix != nil {
		data = spec.Matrix.Data
		spec.Matrix = &matrix.Dense{Rows: spec.Matrix.Rows, Cols: spec.Matrix.Cols}
	}
	hdr, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return frame.Encode(hdr, data), nil
}

// decodeSpecBlob decodes a KindSubmitted blob, framed or legacy JSON.
func decodeSpecBlob(b []byte) (JobSpec, error) {
	var spec JobSpec
	if !frame.Is(b) {
		err := json.Unmarshal(b, &spec)
		return spec, err
	}
	hdr, data, err := frame.Decode(b)
	if err != nil {
		return JobSpec{}, err
	}
	if err := json.Unmarshal(hdr, &spec); err != nil {
		return JobSpec{}, err
	}
	m := spec.Matrix
	switch {
	case m == nil && len(data) != 0:
		return JobSpec{}, fmt.Errorf("spec frame carries %d values but no matrix", len(data))
	case m == nil:
	case len(m.Data) != 0 || m.Rows < 0 || m.Cols < 0 || m.Rows > frame.MaxCount || m.Cols > frame.MaxCount || m.Rows*m.Cols != len(data):
		return JobSpec{}, fmt.Errorf("spec frame: %dx%d matrix header with %d values", m.Rows, m.Cols, len(data))
	default:
		m.Data = data
	}
	return spec, nil
}
