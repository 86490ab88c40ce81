package client

import (
	"encoding/json"
	"fmt"

	"repro/internal/frame"
)

// encodeFrame encodes a spec with an explicit matrix as a submission
// frame (Content-Type frame.ContentType): the header is the Spec's JSON
// with matrix.n set and no matrix.data, the frame's values are the matrix
// entries.
func encodeFrame(spec Spec) ([]byte, error) {
	data := spec.Matrix.Data
	if len(data) > frame.MaxCount {
		return nil, errf(CodeInvalidSpec, "matrix", "matrix has %d values, more than the %d a spec may carry", len(data), frame.MaxCount)
	}
	spec.Matrix = &MatrixSpec{N: spec.Matrix.N}
	hdr, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	return frame.Encode(hdr, data), nil
}

// DecodeFrame parses a submission frame back into the Spec it was encoded
// from. A malformed frame or header is a CodeBadRequest *Error; a header
// without a matrix, or with matrix data of its own, is CodeInvalidSpec.
// The rest of the spec's checks are ServiceSpec's.
func DecodeFrame(b []byte) (Spec, error) {
	hdr, data, err := frame.Decode(b)
	if err != nil {
		return Spec{}, errf(CodeBadRequest, "", "decode request: %v", err)
	}
	var spec Spec
	if err := json.Unmarshal(hdr, &spec); err != nil {
		return Spec{}, errf(CodeBadRequest, "", "decode request header: %v", err)
	}
	switch {
	case spec.Matrix == nil:
		return Spec{}, errf(CodeInvalidSpec, "matrix", "frame header has no matrix")
	case len(spec.Matrix.Data) != 0:
		return Spec{}, errf(CodeInvalidSpec, "matrix", "frame header carries matrix data; the values belong in the frame")
	}
	spec.Matrix.Data = data
	return spec, nil
}
