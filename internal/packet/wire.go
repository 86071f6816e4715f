package packet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bufqos/internal/units"
)

// flowSpecWire is FlowSpec's JSON form. The fields ride the units wire
// encodings ("48Mbit/s", "100KB"), so one (σ, ρ, peak) contract is
// spelled identically in topology files, qosd request bodies, and
// daemon snapshots.
type flowSpecWire struct {
	Peak   units.Rate  `json:"peak,omitempty"`
	Token  units.Rate  `json:"token"`
	Bucket units.Bytes `json:"bucket"`
}

// MarshalJSON encodes the contract as
// {"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}; a zero peak
// (unbounded) is omitted. The encoder is hand-assembled because specs
// are the hot field of the qosd control plane — batch joins marshal
// and parse thousands of them per second.
func (s FlowSpec) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, '{')
	if s.PeakRate != 0 {
		b, err := s.PeakRate.MarshalJSON()
		if err != nil {
			return nil, err
		}
		buf = append(append(append(buf, `"peak":`...), b...), ',')
	}
	b, err := s.TokenRate.MarshalJSON()
	if err != nil {
		return nil, err
	}
	buf = append(append(append(buf, `"token":`...), b...), ',')
	if b, err = s.BucketSize.MarshalJSON(); err != nil {
		return nil, err
	}
	buf = append(append(append(buf, `"bucket":`...), b...), '}')
	return buf, nil
}

// UnmarshalJSON decodes the wire form. Unknown fields are rejected so
// misspelled contracts fail loudly; semantic validation stays with
// Validate, which callers run after decoding. A hand-rolled scanner
// handles the common shape; anything it cannot prove well-formed
// (escapes, nesting, unknown keys) is retried through the strict
// reflection decoder, which also produces the precise error.
func (s *FlowSpec) UnmarshalJSON(data []byte) error {
	if w, ok := parseWireFast(data); ok {
		s.PeakRate = w.Peak
		s.TokenRate = w.Token
		s.BucketSize = w.Bucket
		return nil
	}
	var w flowSpecWire
	if err := strictUnmarshal(data, &w); err != nil {
		return fmt.Errorf("flow spec: %w", err)
	}
	s.PeakRate = w.Peak
	s.TokenRate = w.Token
	s.BucketSize = w.Bucket
	return nil
}

// parseWireFast scans the flat {"key":value,...} shape directly,
// reporting ok=false whenever the input is anything but that exact
// shape — the slow path then owns the verdict. Escapes and control
// bytes inside strings are left to the slow path too; bare values must
// be JSON numbers, which the units decoders check.
func parseWireFast(data []byte) (flowSpecWire, bool) {
	var w flowSpecWire
	i, n := 0, len(data)
	skip := func() {
		for i < n && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
			i++
		}
	}
	skip()
	if i+4 <= n && string(data[i:i+4]) == "null" {
		i += 4
		skip()
		return w, i == n
	}
	if i >= n || data[i] != '{' {
		return w, false
	}
	i++
	skip()
	if i < n && data[i] == '}' {
		i++
		skip()
		return w, i == n
	}
	for {
		skip()
		if i >= n || data[i] != '"' {
			return w, false
		}
		j := i + 1
		for j < n && data[j] != '"' {
			if data[j] == '\\' || data[j] < ' ' {
				return w, false
			}
			j++
		}
		if j >= n {
			return w, false
		}
		key := data[i+1 : j]
		i = j + 1
		skip()
		if i >= n || data[i] != ':' {
			return w, false
		}
		i++
		skip()
		start := i
		if i < n && data[i] == '"' {
			i++
			for i < n && data[i] != '"' {
				if data[i] == '\\' || data[i] < ' ' {
					return w, false
				}
				i++
			}
			if i >= n {
				return w, false
			}
			i++
		} else {
			for i < n && data[i] != ',' && data[i] != '}' && data[i] > ' ' {
				i++
			}
		}
		tok := data[start:i]
		var err error
		switch string(key) {
		case "peak":
			err = w.Peak.UnmarshalJSON(tok)
		case "token":
			err = w.Token.UnmarshalJSON(tok)
		case "bucket":
			err = w.Bucket.UnmarshalJSON(tok)
		default:
			return w, false
		}
		if err != nil {
			return w, false
		}
		skip()
		if i < n && data[i] == ',' {
			i++
			continue
		}
		if i < n && data[i] == '}' {
			i++
			break
		}
		return w, false
	}
	skip()
	return w, i == n
}

// strictUnmarshal is json.Unmarshal with DisallowUnknownFields: one
// JSON value, optionally surrounded by whitespace, and nothing else.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.Trim(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("trailing data after the flow spec: %.20q", rest)
	}
	return nil
}
