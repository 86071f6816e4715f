package packet

import (
	"encoding/json"
	"math"
	"testing"

	"bufqos/internal/units"
)

func TestFlowSpecJSONRoundTrip(t *testing.T) {
	specs := []FlowSpec{
		{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(60), PeakRate: units.MbitsPerSecond(16)},
		{TokenRate: units.MbitsPerSecond(0.4), BucketSize: units.KiloBytes(50)},
		{TokenRate: 1234, BucketSize: 7},
	}
	for _, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var back FlowSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != s {
			t.Errorf("round trip %+v -> %s -> %+v", s, b, back)
		}
	}
}

func TestFlowSpecJSONForm(t *testing.T) {
	s := FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(60), PeakRate: units.MbitsPerSecond(6)}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}`
	if string(b) != want {
		t.Errorf("marshal = %s, want %s", b, want)
	}
	// Zero peak is omitted.
	s.PeakRate = 0
	b, _ = json.Marshal(s)
	if string(b) != `{"token":"2Mbit/s","bucket":"60KB"}` {
		t.Errorf("marshal without peak = %s", b)
	}
	// Unknown fields are rejected.
	var back FlowSpec
	if err := json.Unmarshal([]byte(`{"token":"2Mbit/s","bucket":"60KB","sigma":"1KB"}`), &back); err == nil {
		t.Error("unknown field accepted")
	}
	// Suffix-free numbers use base units (bits/s, bytes).
	if err := json.Unmarshal([]byte(`{"token":2000000,"bucket":60000}`), &back); err != nil {
		t.Fatal(err)
	}
	if back.TokenRate != units.MbitsPerSecond(2) || back.BucketSize != units.KiloBytes(60) {
		t.Errorf("numeric form decoded to %+v", back)
	}
}

// TestFlowSpecFastParserAgreesWithStrict feeds the same documents to
// the hand-rolled scanner's entry point and to the reflection decoder
// and requires identical accept/reject verdicts and values.
func TestFlowSpecFastParserAgreesWithStrict(t *testing.T) {
	cases := []string{
		`{"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}`,
		` { "token" : "2Mbit/s" , "bucket" : "60KB" } `,
		"\n{\t\"bucket\":\"60KB\",\n \"token\":\"2Mbit/s\"}\r\n",
		`{"token":2000000,"bucket":60000}`,
		`{"token":2e6,"bucket":6.0e4}`,
		`{}`,
		`null`,
		`{"token":"2Mbit/s","bucket":"60KB","sigma":"1KB"}`, // unknown key
		`{"token":"2Mbit/s"`,                                // truncated
		`{"token":"2Mbit/s","bucket":"60\u004BB"}`,          // escape: slow path
		`{"token":"oops","bucket":"60KB"}`,                  // bad value
		`{"token":+2e6,"bucket":60000}`,                     // not a JSON number
		`{"token":0x1p21,"bucket":60000}`,                   // not a JSON number
		"{\"token\":\"2Mbit/s\",\"bucket\":\"60\tKB\"}",     // control byte in a string
		`{"token":"2Mbit/s","bucket":"60KB"} {}`,            // trailing data
		`[1,2]`,
		`"2Mbit/s"`,
	}
	for _, c := range cases {
		var fast FlowSpec
		fastErr := json.Unmarshal([]byte(c), &fast)
		var slow flowSpecWire
		slowErr := strictUnmarshal([]byte(c), &slow)
		if (fastErr == nil) != (slowErr == nil) {
			t.Errorf("%s: fast err %v, strict err %v", c, fastErr, slowErr)
			continue
		}
		if fastErr == nil && (fast.PeakRate != slow.Peak || fast.TokenRate != slow.Token || fast.BucketSize != slow.Bucket) {
			t.Errorf("%s: fast %+v, strict %+v", c, fast, slow)
		}
		// UnmarshalJSON is also called directly on raw bytes, so the
		// scanner must never accept what the strict decoder refuses.
		if w, ok := parseWireFast([]byte(c)); ok && (slowErr != nil || w != slow) {
			t.Errorf("%s: scanner accepted %+v, strict %+v (%v)", c, w, slow, slowErr)
		}
	}
}

func TestFlowSpecRejectsNonFinite(t *testing.T) {
	// The admission-disabling spec: NaN passes every "<= 0" check.
	for _, doc := range []string{
		`{"token":"NaNMbit/s","bucket":"10KB"}`,
		`{"token":"InfMbit/s","bucket":"10KB"}`,
		`{"peak":"NaNMbit/s","token":"1Mbit/s","bucket":"10KB"}`,
		`{"token":"1Mbit/s","bucket":"InfKB"}`,
		`{"token":"1Mbit/s","bucket":"NaNKB"}`,
		`{"token":"1e300Gbit/s","bucket":"10KB"}`,
		`{"token":1e400,"bucket":10000}`,
		`{"token":1000000,"bucket":1e19}`,
		`{"token":NaN,"bucket":10000}`,
	} {
		if w, ok := parseWireFast([]byte(doc)); ok {
			t.Errorf("%s: fast parser accepted %+v", doc, w)
		}
		var w flowSpecWire
		if err := strictUnmarshal([]byte(doc), &w); err == nil {
			t.Errorf("%s: strict decoder accepted %+v", doc, w)
		}
		var s FlowSpec
		if err := json.Unmarshal([]byte(doc), &s); err == nil {
			t.Errorf("%s: decoded to %+v", doc, s)
		}
	}
	nan, inf := units.Rate(math.NaN()), units.Rate(math.Inf(1))
	for _, s := range []FlowSpec{
		{TokenRate: nan, BucketSize: 10000},
		{TokenRate: inf, BucketSize: 10000},
		{PeakRate: nan, TokenRate: units.Mbps, BucketSize: 10000},
		{PeakRate: inf, TokenRate: units.Mbps, BucketSize: 10000},
	} {
		if s.Validate() == nil {
			t.Errorf("Validate passed %+v", s)
		}
	}
}
