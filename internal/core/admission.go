package core

import (
	"fmt"
	"math"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// RejectReason classifies why an admission request fails, following the
// §2.3 distinction: "the scheduler is deemed to be bandwidth limited
// ... conversely it is considered to be buffer limited".
type RejectReason int

const (
	// Accepted means the flow fits.
	Accepted RejectReason = iota
	// BandwidthLimited means Σρ would exceed the link rate (eq. 5/7).
	BandwidthLimited
	// BufferLimited means the buffer constraint fails (eq. 6/8).
	BufferLimited
)

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case BandwidthLimited:
		return "bandwidth-limited"
	case BufferLimited:
		return "buffer-limited"
	default:
		return fmt.Sprintf("RejectReason(%d)", int(r))
	}
}

// Discipline selects which schedulability region an admitter enforces.
type Discipline int

const (
	// DisciplineWFQ uses equations (5)–(6): R ≥ Σρ, B ≥ Σσ.
	DisciplineWFQ Discipline = iota
	// DisciplineFIFO uses equations (7)–(8): R ≥ Σρ and
	// B ≥ (B/R)·Σρ + Σσ.
	DisciplineFIFO
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	if d == DisciplineWFQ {
		return "WFQ"
	}
	return "FIFO+thresholds"
}

// Admitter is the narrow admission-control surface of one link: answer
// whether a flow fits the link's schedulability region, commit it,
// release it, and export a consistent view of the admitted aggregate.
// Two implementations exist: SerialAdmitter (single-goroutine, keeps
// the admitted specs) and ShardedAdmitter link views (mutex-guarded,
// safe for concurrent callers).
type Admitter interface {
	// Check reports whether spec fits without admitting it.
	Check(spec packet.FlowSpec) RejectReason
	// Admit adds spec to the admitted set when it fits, returning the
	// decision.
	Admit(spec packet.FlowSpec) RejectReason
	// Release removes one previously admitted instance of spec. It is
	// idempotent: releasing a spec that is not currently admitted
	// returns false and leaves the aggregate unchanged.
	Release(spec packet.FlowSpec) bool
	// Snapshot returns a consistent copy of the admitted aggregate.
	Snapshot() AdmissionSnapshot
}

// AdmissionSnapshot is a point-in-time view of one link's admitted
// aggregate — everything the admission regions (eqs. 5–8) depend on.
type AdmissionSnapshot struct {
	Discipline Discipline
	Rate       units.Rate
	Buffer     units.Bytes
	NumFlows   int
	// SumRho is Σρ over the admitted set.
	SumRho units.Rate
	// SumSigma is Σσ over the admitted set.
	SumSigma units.Bytes
}

// Utilization returns the reserved utilization u = Σρ/R.
func (s AdmissionSnapshot) Utilization() float64 {
	return s.SumRho.BitsPerSecond() / s.Rate.BitsPerSecond()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkRegion evaluates the paper's schedulability regions for a link
// (d, rate, buffer) whose admitted aggregate is (sumRho bits/s,
// sumSigma) against one additional spec. This is the single shared
// implementation behind both admitters. Non-finite inputs are refused
// outright: a NaN makes every comparison below false, which would
// admit anything.
func checkRegion(d Discipline, rate units.Rate, buffer units.Bytes,
	sumRho float64, sumSigma units.Bytes, spec packet.FlowSpec) RejectReason {
	if err := spec.Validate(); err != nil {
		return BandwidthLimited
	}
	rho := sumRho + spec.TokenRate.BitsPerSecond()
	// Summed in float64: an int64 sum of a near-maximal bucket could
	// wrap negative and pass the buffer bound.
	sigma := float64(sumSigma) + float64(spec.BucketSize)
	if !finite(rho) || !finite(rate.BitsPerSecond()) || rho > rate.BitsPerSecond() {
		return BandwidthLimited
	}
	switch d {
	case DisciplineWFQ:
		if sigma > float64(buffer) {
			return BufferLimited
		}
	case DisciplineFIFO:
		// B ≥ (B/R)·Σρ + Σσ  ⇔  B·(1 − Σρ/R) ≥ Σσ.
		if float64(buffer)*(1-rho/rate.BitsPerSecond()) < sigma {
			return BufferLimited
		}
	}
	return Accepted
}
