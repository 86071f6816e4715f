package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file gives the unit types a human-readable JSON wire form —
// "48Mbit/s", "100KB", "5ms" — shared by the topology loader and the
// qosd control-plane API, so a (σ, ρ) contract means the same bytes in
// a scenario file, a join request, and a daemon snapshot.
//
// Marshalling always picks the largest unit that represents the value
// exactly (falling back to the base unit, which always does), so every
// value round-trips bit-for-bit. Unmarshalling additionally accepts a
// bare JSON number in the base unit (bits/s, bytes, seconds). Every
// decoded value is finite: NaN, ±Inf and results that overflow float64
// fail to parse, as do sizes outside the int64 byte range.

// jsonScaled renders v as value/scale + suffix when that division is
// exact under round-trip, or "" when it is not.
func jsonScaled(v, scale float64, suffix string) string {
	s := v / scale
	if s*scale != v {
		return ""
	}
	return strconv.FormatFloat(s, 'g', -1, 64) + suffix
}

// unquote strips the quotes of a JSON string literal, reporting whether
// data was one. encoding/json hands UnmarshalJSON the raw token, so a
// plain strings.Trim suffices — escapes never appear in unit strings.
func unquote(data []byte) (string, bool) {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1], true
	}
	return s, false
}

// parseFinite parses a decimal number and multiplies it by scale,
// rejecting NaN and ±Inf results (strconv accepts their spellings, and
// scaling can overflow to Inf).
func parseFinite(s string, scale float64) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	v *= scale
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}

// parseBare parses an unquoted JSON number. strconv.ParseFloat also
// accepts forms JSON forbids ("+1", ".5", "0x1p3", "Inf"), so the
// literal is checked against the JSON number grammar first.
func parseBare(data []byte) (float64, error) {
	if !jsonNumber(data) {
		return 0, fmt.Errorf("%s is not a JSON number", data)
	}
	return parseFinite(string(data), 1)
}

// jsonNumber reports whether b matches the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func jsonNumber(b []byte) bool {
	i, n := 0, len(b)
	digits := func() bool {
		start := i
		for i < n && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < n && b[i] == '-' {
		i++
	}
	switch {
	case i < n && b[i] == '0':
		i++
	case !digits():
		return false
	}
	if i < n && b[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < n && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < n && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == n
}

// parseSuffixed splits a "<number><suffix>" form against a suffix→scale
// table, longest suffix first (the caller orders the table).
func parseSuffixed(s string, suffixes []struct {
	suf   string
	scale float64
}) (float64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	for _, e := range suffixes {
		if rest, ok := strings.CutSuffix(t, e.suf); ok {
			v, err := parseFinite(strings.TrimSpace(rest), e.scale)
			if err != nil {
				return 0, fmt.Errorf("units: bad value in %q: %w", s, err)
			}
			return v, nil
		}
	}
	v, err := parseFinite(t, 1)
	if err != nil {
		return 0, fmt.Errorf("units: %q has no recognized unit suffix", s)
	}
	return v, nil
}

// MarshalJSON encodes the rate as a suffixed string, e.g. "48Mbit/s".
func (r Rate) MarshalJSON() ([]byte, error) {
	v := float64(r)
	for _, e := range []struct {
		scale float64
		suf   string
	}{{1e9, "Gbit/s"}, {1e6, "Mbit/s"}, {1e3, "Kbit/s"}} {
		if v >= e.scale || v <= -e.scale {
			if s := jsonScaled(v, e.scale, e.suf); s != "" {
				return []byte(`"` + s + `"`), nil
			}
		}
	}
	return []byte(`"` + strconv.FormatFloat(v, 'g', -1, 64) + `bit/s"`), nil
}

var rateSuffixes = []struct {
	suf   string
	scale float64
}{
	{"gbit/s", 1e9}, {"gb/s", 1e9}, {"gbps", 1e9},
	{"mbit/s", 1e6}, {"mb/s", 1e6}, {"mbps", 1e6},
	{"kbit/s", 1e3}, {"kb/s", 1e3}, {"kbps", 1e3},
	{"bit/s", 1}, {"b/s", 1}, {"bps", 1},
}

// UnmarshalJSON accepts "48Mbit/s" (also Mb/s, mbps, Kbit/s, Gbit/s,
// bit/s forms) or a bare number in bits/s.
func (r *Rate) UnmarshalJSON(data []byte) error {
	s, quoted := unquote(data)
	if !quoted {
		v, err := parseBare(data)
		if err != nil {
			return fmt.Errorf("units: rate %w", err)
		}
		*r = Rate(v)
		return nil
	}
	v, err := parseSuffixed(s, rateSuffixes)
	if err != nil {
		return fmt.Errorf("units: rate %w", err)
	}
	*r = Rate(v)
	return nil
}

// MarshalJSON encodes the size as a suffixed string, e.g. "100KB"
// (decimal units, matching the paper's convention).
func (b Bytes) MarshalJSON() ([]byte, error) {
	v := int64(b)
	switch {
	case v%1e9 == 0 && v != 0:
		return []byte(fmt.Sprintf(`"%dGB"`, v/1e9)), nil
	case v%1e6 == 0 && v != 0:
		return []byte(fmt.Sprintf(`"%dMB"`, v/1e6)), nil
	case v%1e3 == 0 && v != 0:
		return []byte(fmt.Sprintf(`"%dKB"`, v/1e3)), nil
	default:
		return []byte(fmt.Sprintf(`"%dB"`, v)), nil
	}
}

var bytesSuffixes = []struct {
	suf   string
	scale float64
}{
	{"gb", 1e9}, {"mb", 1e6}, {"kb", 1e3}, {"b", 1},
}

// UnmarshalJSON accepts "100KB", "1.5MB", "512B" (decimal units) or a
// bare number in bytes. Fractional results truncate to whole bytes,
// matching KiloBytes/MegaBytes; sizes outside the int64 range fail.
func (b *Bytes) UnmarshalJSON(data []byte) error {
	var v float64
	var err error
	if s, quoted := unquote(data); quoted {
		v, err = parseSuffixed(s, bytesSuffixes)
	} else {
		v, err = parseBare(data)
	}
	if err != nil {
		return fmt.Errorf("units: size %w", err)
	}
	// int64 holds [-2⁶³, 2⁶³); both bounds are exact float64s.
	if v < -(1<<63) || v >= 1<<63 {
		return fmt.Errorf("units: size %s overflows int64 bytes", data)
	}
	*b = Bytes(v)
	return nil
}

// MarshalJSON encodes the span as a suffixed string, e.g. "5ms".
func (t Time) MarshalJSON() ([]byte, error) {
	v := float64(t)
	abs := v
	if abs < 0 {
		abs = -abs
	}
	if v != 0 && abs < 1 {
		for _, e := range []struct {
			scale float64
			suf   string
		}{{1e-3, "ms"}, {1e-6, "us"}, {1e-9, "ns"}} {
			if abs >= e.scale {
				if s := jsonScaled(v, e.scale, e.suf); s != "" {
					return []byte(`"` + s + `"`), nil
				}
			}
		}
	}
	return []byte(`"` + strconv.FormatFloat(v, 'g', -1, 64) + `s"`), nil
}

var timeSuffixes = []struct {
	suf   string
	scale float64
}{
	{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1},
}

// UnmarshalJSON accepts "5ms", "250us", "1.5s", "80ns" or a bare number
// in seconds.
func (t *Time) UnmarshalJSON(data []byte) error {
	s, quoted := unquote(data)
	if !quoted {
		v, err := parseBare(data)
		if err != nil {
			return fmt.Errorf("units: time %w", err)
		}
		*t = Time(v)
		return nil
	}
	v, err := parseSuffixed(s, timeSuffixes)
	if err != nil {
		return fmt.Errorf("units: time %w", err)
	}
	*t = Time(v)
	return nil
}
