package core

import (
	"math"
	"strings"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func TestAdmissionWFQRegion(t *testing.T) {
	// WFQ region (eqs. 5-6): R ≥ Σρ and B ≥ Σσ.
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	if got := a.Admit(spec(50, 20)); got != Accepted {
		t.Fatalf("first flow: %v", got)
	}
	// Second flow pushes Σσ to 120KB > 100KB: buffer limited.
	if got := a.Admit(spec(70, 20)); got != BufferLimited {
		t.Errorf("want buffer-limited, got %v", got)
	}
	// A small-burst flow pushing Σρ over R: bandwidth limited.
	if got := a.Admit(spec(10, 30)); got != BandwidthLimited {
		t.Errorf("want bandwidth-limited, got %v", got)
	}
	// Within both constraints: accepted.
	if got := a.Admit(spec(10, 4)); got != Accepted {
		t.Errorf("fitting flow rejected: %v", got)
	}
	if a.NumFlows() != 2 {
		t.Errorf("NumFlows = %d, want 2", a.NumFlows())
	}
}

func TestAdmissionFIFORegionTighter(t *testing.T) {
	// The same flow set can be WFQ-schedulable but FIFO-buffer-limited
	// (the §2.3 point). Σσ = 300KB, u = 0.5 ⇒ FIFO needs B ≥ 600KB.
	flows := []packet.FlowSpec{spec(150, 12), spec(150, 12)}
	wfq := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(400))
	fifo := NewSerialAdmitter(DisciplineFIFO, units.MbitsPerSecond(48), units.KiloBytes(400))
	for _, f := range flows[:1] {
		if wfq.Admit(f) != Accepted || fifo.Admit(f) != Accepted {
			t.Fatal("first flow rejected")
		}
	}
	if got := wfq.Admit(flows[1]); got != Accepted {
		t.Errorf("WFQ rejected second flow: %v", got)
	}
	if got := fifo.Admit(flows[1]); got != BufferLimited {
		t.Errorf("FIFO should be buffer-limited, got %v", got)
	}
}

func TestAdmissionFIFOMatchesRequiredBuffer(t *testing.T) {
	// The FIFO controller accepts the Table 1 set exactly when
	// B ≥ RequiredBufferFIFO.
	specs := table1Specs()
	need, err := RequiredBufferFIFO(specs, units.MbitsPerSecond(48))
	if err != nil {
		t.Fatal(err)
	}
	admitAll := func(b units.Bytes) bool {
		a := NewSerialAdmitter(DisciplineFIFO, units.MbitsPerSecond(48), b)
		for _, s := range specs {
			if a.Admit(s) != Accepted {
				return false
			}
		}
		return true
	}
	if !admitAll(need + 16) {
		t.Errorf("flow set rejected with sufficient buffer %v", need+16)
	}
	if admitAll(need * 9 / 10) {
		t.Errorf("flow set accepted with insufficient buffer %v", need*9/10)
	}
}

func TestAdmissionRelease(t *testing.T) {
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	s := spec(60, 20)
	a.Admit(s)
	if a.Admit(spec(60, 20)) != BufferLimited {
		t.Fatal("expected buffer-limited before release")
	}
	if !a.Release(s) {
		t.Fatal("release of admitted flow failed")
	}
	if a.Release(s) {
		t.Error("double release succeeded")
	}
	if a.Admit(spec(60, 20)) != Accepted {
		t.Error("slot not freed after release")
	}
}

func TestAdmissionCheckDoesNotAdmit(t *testing.T) {
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	if a.Check(spec(10, 1)) != Accepted {
		t.Fatal("check failed")
	}
	if a.NumFlows() != 0 {
		t.Error("Check admitted the flow")
	}
}

func TestAdmissionUtilization(t *testing.T) {
	a := NewSerialAdmitter(DisciplineFIFO, units.MbitsPerSecond(48), units.MegaBytes(10))
	a.Admit(spec(10, 12))
	a.Admit(spec(10, 12))
	if u := a.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestAdmissionInvalidSpec(t *testing.T) {
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	if a.Check(packet.FlowSpec{}) == Accepted {
		t.Error("invalid spec accepted")
	}
}

func TestAdmissionFlowsCopy(t *testing.T) {
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	a.Admit(spec(10, 1))
	flows := a.Flows()
	flows[0].BucketSize = 0
	if a.Flows()[0].BucketSize == 0 {
		t.Error("Flows() exposes internal state")
	}
}

func TestRejectReasonStrings(t *testing.T) {
	for _, c := range []struct {
		r    RejectReason
		want string
	}{
		{Accepted, "accepted"},
		{BandwidthLimited, "bandwidth"},
		{BufferLimited, "buffer"},
		{RejectReason(99), "99"},
	} {
		if !strings.Contains(c.r.String(), c.want) {
			t.Errorf("String(%d) = %q", int(c.r), c.r.String())
		}
	}
	if DisciplineWFQ.String() != "WFQ" || !strings.Contains(DisciplineFIFO.String(), "FIFO") {
		t.Error("discipline strings wrong")
	}
}

func TestAdmissionConstructorValidation(t *testing.T) {
	for i, f := range []func(){
		func() { NewSerialAdmitter(DisciplineWFQ, 0, 100) },
		func() { NewSerialAdmitter(DisciplineWFQ, units.Mbps, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestNonFiniteSpecCannotDisableAdmission is the regression test for
// the NaN hole: a NaN token rate used to pass Validate and the region
// checks, after which the link's Σρ was NaN and every later comparison
// admitted anything.
func TestNonFiniteSpecCannotDisableAdmission(t *testing.T) {
	probe := packet.FlowSpec{PeakRate: units.Gbps, TokenRate: units.Gbps, BucketSize: units.MegaBytes(100)}
	poison := []packet.FlowSpec{
		{TokenRate: units.Rate(math.NaN()), BucketSize: units.KiloBytes(10)},
		{TokenRate: units.Rate(math.Inf(1)), BucketSize: units.KiloBytes(10)},
		{PeakRate: units.Rate(math.NaN()), TokenRate: units.Mbps, BucketSize: units.KiloBytes(10)},
	}
	for _, d := range []Discipline{DisciplineFIFO, DisciplineWFQ} {
		links := map[string]Admitter{
			"serial":  NewSerialAdmitter(d, units.MbitsPerSecond(48), units.MegaBytes(1)),
			"sharded": NewShardedAdmitter([]LinkConfig{{Discipline: d, Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1)}}).Link(0),
		}
		for name, a := range links {
			for _, p := range poison {
				if got := a.Admit(p); got == Accepted {
					t.Errorf("%v %s: admitted %+v", d, name, p)
				}
			}
			if got := a.Admit(probe); got != BandwidthLimited {
				t.Errorf("%v %s: 1 Gb/s probe on a 48 Mb/s link: %v, want bandwidth-limited", d, name, got)
			}
		}
	}

	// Second line of defence: the region check itself refuses
	// non-finite aggregates and link rates, whatever Validate says.
	ok := spec(10, 1)
	nan := math.NaN()
	if r := checkRegion(DisciplineFIFO, units.MbitsPerSecond(48), units.MegaBytes(1), nan, 0, ok); r == Accepted {
		t.Error("NaN Σρ accepted")
	}
	if r := checkRegion(DisciplineWFQ, units.Rate(nan), units.MegaBytes(1), 0, 0, ok); r == Accepted {
		t.Error("NaN link rate accepted")
	}
	if r := checkRegion(DisciplineWFQ, units.Rate(math.Inf(1)), units.MegaBytes(1), 0, 0, ok); r == Accepted {
		t.Error("infinite link rate accepted")
	}
}

// TestHugeBucketCannotWrapBufferSum: Σσ is summed in float64, so a
// bucket near the int64 limit cannot wrap the buffer check negative.
func TestHugeBucketCannotWrapBufferSum(t *testing.T) {
	for _, d := range []Discipline{DisciplineFIFO, DisciplineWFQ} {
		a := NewSerialAdmitter(d, units.MbitsPerSecond(48), units.MegaBytes(1))
		if got := a.Admit(spec(100, 1)); got != Accepted {
			t.Fatalf("%v: first flow %v", d, got)
		}
		huge := packet.FlowSpec{TokenRate: units.Mbps, BucketSize: math.MaxInt64 - 1000}
		if got := a.Admit(huge); got != BufferLimited {
			t.Errorf("%v: %d-byte bucket: %v, want buffer-limited", d, int64(huge.BucketSize), got)
		}
	}
}
