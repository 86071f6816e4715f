package units

import (
	"math"
	"testing"
)

// FuzzUnitsParse hardens the wire decoders of Rate, Bytes and Time:
// every value they accept, bare or quoted, is finite and survives a
// MarshalJSON/UnmarshalJSON round trip bit for bit. The non-finite and
// overflowing seeds live in testdata/fuzz/FuzzUnitsParse.
func FuzzUnitsParse(f *testing.F) {
	for _, s := range []string{"48Mbit/s", "100KB", "5ms", "0", "-0", "1.5e3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, data := range [][]byte{[]byte(s), []byte(`"` + s + `"`)} {
			var r Rate
			if r.UnmarshalJSON(data) == nil {
				v := float64(r)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("rate %s decoded to non-finite %v", data, v)
				}
				var back Rate
				if b, err := r.MarshalJSON(); err != nil || back.UnmarshalJSON(b) != nil || math.Float64bits(float64(back)) != math.Float64bits(v) {
					t.Fatalf("rate %s = %v does not round-trip: %s -> %v (%v)", data, v, b, float64(back), err)
				}
			}
			var n Bytes
			if n.UnmarshalJSON(data) == nil {
				var back Bytes
				if b, err := n.MarshalJSON(); err != nil || back.UnmarshalJSON(b) != nil || back != n {
					t.Fatalf("size %s = %d does not round-trip: %s -> %d (%v)", data, int64(n), b, int64(back), err)
				}
			}
			var d Time
			if d.UnmarshalJSON(data) == nil {
				v := float64(d)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("time %s decoded to non-finite %v", data, v)
				}
				var back Time
				if b, err := d.MarshalJSON(); err != nil || back.UnmarshalJSON(b) != nil || math.Float64bits(float64(back)) != math.Float64bits(v) {
					t.Fatalf("time %s = %v does not round-trip: %s -> %v (%v)", data, v, b, float64(back), err)
				}
			}
		}
	})
}
