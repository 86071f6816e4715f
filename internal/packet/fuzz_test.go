package packet

import (
	"math"
	"testing"
)

// FuzzFlowSpecUnmarshalJSON hardens the flow-spec wire decoder, which
// qosd feeds raw request bytes. The hand-rolled scanner may decline any
// input, but whatever it accepts the strict reflection decoder must
// accept with the same value, so UnmarshalJSON's verdict never depends
// on which path ran. Every accepted spec has finite rates, and one that
// passes Validate re-encodes to itself. The non-finite and overflowing
// seeds live in testdata/fuzz/FuzzFlowSpecUnmarshalJSON.
func FuzzFlowSpecUnmarshalJSON(f *testing.F) {
	for _, s := range []string{
		`{"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}`,
		`{"token":2000000,"bucket":60000}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var strict flowSpecWire
		strictErr := strictUnmarshal(data, &strict)
		if w, ok := parseWireFast(data); ok && (strictErr != nil || w != strict) {
			t.Fatalf("%q: scanner accepted %+v, strict decoder %+v (%v)", data, w, strict, strictErr)
		}
		var s FlowSpec
		err := s.UnmarshalJSON(data)
		if (err == nil) != (strictErr == nil) {
			t.Fatalf("%q: UnmarshalJSON err %v, strict err %v", data, err, strictErr)
		}
		if err != nil {
			return
		}
		if s != (FlowSpec{PeakRate: strict.Peak, TokenRate: strict.Token, BucketSize: strict.Bucket}) {
			t.Fatalf("%q: decoded %+v, strict %+v", data, s, strict)
		}
		for _, r := range []float64{float64(s.PeakRate), float64(s.TokenRate)} {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("%q: decoded non-finite spec %+v", data, s)
			}
		}
		if s.Validate() != nil {
			return
		}
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("%+v: marshal: %v", s, err)
		}
		var back FlowSpec
		if err := back.UnmarshalJSON(b); err != nil || back != s {
			t.Fatalf("%+v: re-encoded as %s, decoded back to %+v (%v)", s, b, back, err)
		}
	})
}
