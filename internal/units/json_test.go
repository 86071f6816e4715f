package units

import (
	"encoding/json"
	"math"
	"testing"
)

func TestRateJSONRoundTrip(t *testing.T) {
	for _, r := range []Rate{
		0, 1, 500, Kbps, 48 * Mbps, MbitsPerSecond(1.5), MbitsPerSecond(0.4),
		2 * Gbps, Rate(123456789), Rate(math.Pi * 1e6),
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal %v: %v", r, err)
		}
		var back Rate
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != r {
			t.Errorf("round trip %v -> %s -> %v", float64(r), b, float64(back))
		}
	}
}

func TestRateJSONForms(t *testing.T) {
	cases := []struct {
		in   string
		want Rate
	}{
		{`"48Mbit/s"`, 48 * Mbps},
		{`"48Mb/s"`, 48 * Mbps},
		{`"48mbps"`, 48 * Mbps},
		{`"1.5Gbit/s"`, 1500 * Mbps},
		{`"250Kbit/s"`, 250 * Kbps},
		{`"9600bit/s"`, 9600},
		{`"9600b/s"`, 9600},
		{`64000`, 64 * Kbps},
	}
	for _, c := range cases {
		var r Rate
		if err := json.Unmarshal([]byte(c.in), &r); err != nil {
			t.Errorf("unmarshal %s: %v", c.in, err)
			continue
		}
		if r != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, r, c.want)
		}
	}
	if b, _ := json.Marshal(48 * Mbps); string(b) != `"48Mbit/s"` {
		t.Errorf("marshal 48Mbps = %s, want \"48Mbit/s\"", b)
	}
	var r Rate
	if err := json.Unmarshal([]byte(`"48 furlongs"`), &r); err == nil {
		t.Error("bad suffix accepted")
	}
}

func TestBytesJSONRoundTrip(t *testing.T) {
	for _, v := range []Bytes{0, 1, 999, KiloBytes(100), KiloBytes(1.5), MegaBytes(2), 123456, MegaBytes(1e3)} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Bytes
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != v {
			t.Errorf("round trip %d -> %s -> %d", int64(v), b, int64(back))
		}
	}
	cases := []struct {
		in   string
		want Bytes
	}{
		{`"100KB"`, KiloBytes(100)},
		{`"1.5MB"`, KiloBytes(1500)},
		{`"512B"`, 512},
		{`"2GB"`, MegaBytes(2000)},
		{`777`, 777},
	}
	for _, c := range cases {
		var v Bytes
		if err := json.Unmarshal([]byte(c.in), &v); err != nil {
			t.Errorf("unmarshal %s: %v", c.in, err)
			continue
		}
		if v != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, v, c.want)
		}
	}
	if b, _ := json.Marshal(KiloBytes(100)); string(b) != `"100KB"` {
		t.Errorf("marshal 100KB = %s", b)
	}
}

func TestTimeJSONRoundTrip(t *testing.T) {
	for _, v := range []Time{0, Second, Seconds(1.5), Milliseconds(5), Milliseconds(0.25),
		Microsecond, 80 * Nanosecond, Seconds(3600), Seconds(0.0034567)} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Time
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != v {
			t.Errorf("round trip %v -> %s -> %v", float64(v), b, float64(back))
		}
	}
	cases := []struct {
		in   string
		want Time
	}{
		{`"5ms"`, Milliseconds(5)},
		{`"250us"`, 250 * Microsecond},
		{`"250µs"`, 250 * Microsecond},
		{`"1.5s"`, Seconds(1.5)},
		{`"80ns"`, 80 * Nanosecond},
		{`0.25`, Seconds(0.25)},
	}
	for _, c := range cases {
		var v Time
		if err := json.Unmarshal([]byte(c.in), &v); err != nil {
			t.Errorf("unmarshal %s: %v", c.in, err)
			continue
		}
		if v != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, float64(v), float64(c.want))
		}
	}
	if b, _ := json.Marshal(Milliseconds(5)); string(b) != `"5ms"` {
		t.Errorf("marshal 5ms = %s", b)
	}
}

func TestTimeHelpers(t *testing.T) {
	if Milliseconds(1500).SecondsFloat() != 1.5 {
		t.Error("SecondsFloat wrong")
	}
	if Seconds(2).Duration().Seconds() != 2 {
		t.Error("Duration wrong")
	}
	for _, c := range []struct {
		v    Time
		want string
	}{{0, "0s"}, {Seconds(2), "2s"}, {Milliseconds(5), "5ms"}, {3 * Microsecond, "3us"}, {2 * Nanosecond, "2ns"}} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", float64(c.v), got, c.want)
		}
	}
}

func TestJSONRejectsNonFinite(t *testing.T) {
	// strconv.ParseFloat accepts "NaN" and "Inf", and scaling a huge
	// mantissa by a suffix overflows to Inf; none of these may decode.
	// Sizes must also fit int64 bytes: converting a larger float is
	// implementation-defined (amd64 yields -9223372036854775808).
	for _, c := range []struct {
		in  string
		dst any
	}{
		{`"NaNMbit/s"`, new(Rate)},
		{`"InfMbit/s"`, new(Rate)},
		{`"-infbit/s"`, new(Rate)},
		{`"NaN"`, new(Rate)},
		{`"1e300Gbit/s"`, new(Rate)},
		{`"1e400bit/s"`, new(Rate)},
		{`1e400`, new(Rate)},
		{`NaN`, new(Rate)},
		{`Inf`, new(Rate)},
		{`"InfKB"`, new(Bytes)},
		{`"NaNKB"`, new(Bytes)},
		{`"1e19B"`, new(Bytes)},
		{`"-1e19B"`, new(Bytes)},
		{`"9.3e9GB"`, new(Bytes)},
		{`1e19`, new(Bytes)},
		{`9223372036854775807`, new(Bytes)}, // rounds to 2⁶³ as a float64
		{`1e400`, new(Bytes)},
		{`"NaNs"`, new(Time)},
		{`"Infms"`, new(Time)},
		{`NaN`, new(Time)},
	} {
		if err := json.Unmarshal([]byte(c.in), c.dst); err == nil {
			t.Errorf("%s decoded into %T as %v", c.in, c.dst, c.dst)
		}
	}
	var b Bytes
	if err := json.Unmarshal([]byte(`"-9223372036854775808B"`), &b); err != nil || b != math.MinInt64 {
		t.Errorf("smallest int64 size: %v, %v", int64(b), err)
	}
}

func TestBareNumbersFollowJSONGrammar(t *testing.T) {
	// UnmarshalJSON may be called directly (the flow-spec fast scanner
	// does), so a bare literal must be a JSON number, not merely
	// something strconv.ParseFloat accepts.
	for _, in := range []string{`+5`, `.5`, `5.`, `05`, `0x10`, `1e`, `-`, `1_0`, `infinity`, ``} {
		var r Rate
		if err := r.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("bare %q accepted as %v", in, float64(r))
		}
	}
	for in, want := range map[string]Rate{`0`: 0, `-0.5`: -0.5, `1.5e3`: 1500, `2E+2`: 200, `10`: 10} {
		var r Rate
		if err := r.UnmarshalJSON([]byte(in)); err != nil || r != want {
			t.Errorf("bare %q = %v, %v; want %v", in, float64(r), err, float64(want))
		}
	}
}
