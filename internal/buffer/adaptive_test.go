package buffer

import (
	"testing"
	"testing/quick"

	"bufqos/internal/units"
)

// adaptive flow 0, non-adaptive flow 1, no reservations, all holes.
func newAdaptive(frac float64) *Sharing {
	return NewAdaptiveSharing(10000, []units.Bytes{0, 0}, []bool{true, false}, 0, frac)
}

func TestAdaptiveFlowBorrowsLikeSharing(t *testing.T) {
	m := newAdaptive(0.25)
	// Adaptive flow: excess bounded by full holes, same as Sharing.
	if !m.Admit(0, 4000) {
		t.Fatal("adaptive borrow rejected")
	}
	if !m.Admit(0, 1000) { // excess 5000 ≤ holes 6000
		t.Fatal("second adaptive borrow rejected")
	}
}

func TestNonAdaptiveFlowRestricted(t *testing.T) {
	m := newAdaptive(0.25)
	// Non-adaptive flow: excess capped at 25% of holes. First grab of
	// 2500 = 0.25 × 10000 is allowed...
	if !m.Admit(1, 2500) {
		t.Fatal("within-fraction borrow rejected")
	}
	// ...but any further growth fails: excess 2500+x > 0.25 × 7500.
	if m.Admit(1, 500) {
		t.Fatal("non-adaptive flow exceeded its fraction")
	}
	// The adaptive flow can still use the rest.
	if !m.Admit(0, 5000) {
		t.Fatal("adaptive flow blocked by non-adaptive cap")
	}
}

func TestAdaptiveFractionZeroLocksOut(t *testing.T) {
	m := newAdaptive(0)
	if m.Admit(1, 100) {
		t.Fatal("non-adaptive flow borrowed with fraction 0")
	}
	if !m.Admit(0, 100) {
		t.Fatal("adaptive flow should borrow freely")
	}
}

func TestAdaptiveFractionOneEqualsSharing(t *testing.T) {
	// With fraction 1 both classes see the Sharing rule: compare
	// decision-by-decision on a fixed operation sequence.
	a := NewAdaptiveSharing(5000, []units.Bytes{800, 0}, []bool{true, false}, 500, 1)
	s := NewSharing(5000, []units.Bytes{800, 0}, 500)
	ops := []struct {
		flow int
		size units.Bytes
	}{
		{0, 400}, {1, 900}, {1, 900}, {0, 600}, {1, 2000}, {0, 300}, {1, 700},
	}
	for i, op := range ops {
		ga, gs := a.Admit(op.flow, op.size), s.Admit(op.flow, op.size)
		if ga != gs {
			t.Fatalf("op %d: adaptive=%v sharing=%v", i, ga, gs)
		}
	}
}

func TestAdaptiveReservationsAlwaysHonored(t *testing.T) {
	// Below-threshold admission ignores the adaptive flag entirely.
	m := NewAdaptiveSharing(3000, []units.Bytes{0, 1000}, []bool{true, false}, 500, 0)
	if !m.Admit(1, 1000) {
		t.Fatal("non-adaptive flow denied its own reservation")
	}
}

func TestAdaptiveDepartureRule(t *testing.T) {
	m := NewAdaptiveSharing(3000, []units.Bytes{3000}, []bool{true}, 500, 1)
	m.Admit(0, 3000) // drains holes 2500 then headroom 500
	if m.Holes() != 0 || m.Headroom() != 0 {
		t.Fatalf("pools = (%v, %v)", m.Holes(), m.Headroom())
	}
	m.Release(0, 800)
	if m.Headroom() != 500 || m.Holes() != 300 {
		t.Errorf("pools after release = (%v holes, %v headroom), want (300, 500)", m.Holes(), m.Headroom())
	}
}

func TestAdaptiveValidation(t *testing.T) {
	cases := []func(){
		func() { NewAdaptiveSharing(100, []units.Bytes{0}, []bool{true, false}, 0, 1) },
		func() { NewAdaptiveSharing(100, []units.Bytes{0}, []bool{true}, 0, -0.1) },
		func() { NewAdaptiveSharing(100, []units.Bytes{0}, []bool{true}, 0, 1.1) },
		func() { NewAdaptiveSharing(100, []units.Bytes{-1}, []bool{true}, 0, 1) },
		func() { NewAdaptiveSharing(100, []units.Bytes{0}, []bool{true}, -1, 1) },
	}
	for i, f := range cases {
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

// Property: space conservation holds for any op sequence and fraction.
func TestPropertyAdaptiveInvariant(t *testing.T) {
	f := func(ops []uint16, fracSel uint8) bool {
		frac := float64(fracSel%101) / 100
		m := NewAdaptiveSharing(5000, []units.Bytes{800, 0, 400}, []bool{true, false, false},
			600, frac)
		type held struct {
			flow int
			size units.Bytes
		}
		var admitted []held
		for _, op := range ops {
			flow := int(op % 3)
			size := units.Bytes(op%500) + 1
			if op%3 == 0 && len(admitted) > 0 {
				h := admitted[0]
				admitted = admitted[1:]
				m.Release(h.flow, h.size)
			} else if m.Admit(flow, size) {
				admitted = append(admitted, held{flow, size})
			}
			if err := m.checkInvariant(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
