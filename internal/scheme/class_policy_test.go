package scheme

import (
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/units"
)

// classRig drives one class-aware combined queue/manager the way a
// Link does: Admit, then Enqueue on success; Dequeue serves. Pushed-out
// victims are collected through the link's pushout hook.
type classRig struct {
	t      *testing.T
	mgr    buffer.Manager
	sc     sched.Scheduler
	pushed []*packet.Packet
	seq    uint64
}

// newClassRig builds spec over a buffer of the given size with one flow
// per entry of classOf; flow i belongs to class classOf[i].
func newClassRig(t *testing.T, spec string, buf units.Bytes, classOf []int) *classRig {
	t.Helper()
	cfg := onlineTestConfig(len(classOf))
	cfg.Buffer = buf
	cfg.Classes = classOf
	mgr, sc, err := MustParse(spec).Build(cfg)
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	r := &classRig{t: t, mgr: mgr, sc: sc}
	if pn, ok := sc.(interface{ SetOnPushout(func(*packet.Packet)) }); ok {
		pn.SetOnPushout(func(p *packet.Packet) { r.pushed = append(r.pushed, p) })
	}
	return r
}

// arrive offers a packet of flow and reports whether it was admitted;
// the packet's Seq is its arrival order.
func (r *classRig) arrive(flow int, size units.Bytes) bool {
	p := &packet.Packet{Flow: flow, Size: size, Seq: r.seq}
	r.seq++
	if !r.mgr.Admit(flow, size) {
		return false
	}
	r.sc.Enqueue(p)
	return true
}

// mustArrive is arrive for packets the policy has to admit.
func (r *classRig) mustArrive(flow int, size units.Bytes) {
	r.t.Helper()
	if !r.arrive(flow, size) {
		r.t.Fatalf("arrival %d (flow %d, %v) refused", r.seq-1, flow, size)
	}
}

// serve dequeues and releases the next packet, returning its Seq.
func (r *classRig) serve() uint64 {
	r.t.Helper()
	p := r.sc.Dequeue()
	if p == nil {
		r.t.Fatal("dequeue on a non-empty queue returned nil")
	}
	r.mgr.Release(p.Flow, p.Size)
	return p.Seq
}

// expectPushed checks the victims so far, in eviction order.
func (r *classRig) expectPushed(want ...uint64) {
	r.t.Helper()
	if len(r.pushed) != len(want) {
		r.t.Fatalf("pushed out %d packets, want %d (%v)", len(r.pushed), len(want), want)
	}
	for i, w := range want {
		if r.pushed[i].Seq != w {
			r.t.Errorf("victim %d is arrival %d, want %d", i, r.pushed[i].Seq, w)
		}
	}
}

// expectServed drains the queue and checks the service order.
func (r *classRig) expectServed(want ...uint64) {
	r.t.Helper()
	for i, w := range want {
		if got := r.serve(); got != w {
			r.t.Errorf("service %d: arrival %d, want %d", i, got, w)
		}
	}
	if r.sc.Len() != 0 || r.mgr.Total() != 0 {
		r.t.Errorf("after draining: %d queued, %v held", r.sc.Len(), r.mgr.Total())
	}
}

// TestClassGreedyPushesNewestOfLowestLowerClass: a full cgreedy buffer
// makes room for an arrival by pushing out the newest queued packet of
// the lowest class strictly below the arrival's; with no lower class
// queued the arrival is refused. Survivors keep FIFO order.
func TestClassGreedyPushesNewestOfLowestLowerClass(t *testing.T) {
	r := newClassRig(t, "cgreedy?classes=3", 2000, []int{0, 1, 2})
	r.mustArrive(1, 500) // 0
	r.mustArrive(0, 500) // 1
	r.mustArrive(0, 500) // 2
	r.mustArrive(1, 500) // 3: buffer full
	if r.arrive(0, 500) {
		t.Fatal("lowest-class arrival admitted into a full buffer")
	}
	r.mustArrive(2, 500) // 5 pushes out 2, class 0's newest
	r.mustArrive(1, 500) // 6 pushes out 1, the last class-0 packet
	r.expectPushed(2, 1)
	if r.arrive(1, 500) {
		t.Fatal("class-1 arrival admitted with no lower class queued")
	}
	r.mustArrive(2, 500) // 8 pushes out 6, class 1's newest
	r.expectPushed(2, 1, 6)
	if !r.arrive(2, 500) {
		t.Fatal("class-2 arrival refused while class 1 is queued")
	}
	r.expectPushed(2, 1, 6, 3)
	if got := r.mgr.Occupancy(0); got != 0 {
		t.Errorf("class-0 flow holds %v after losing every packet", got)
	}
	r.expectServed(0, 5, 8, 9)
}

// TestClassSegStrictPriorityAndLowestClassPushout: classseg serves the
// highest non-empty class first, FIFO within a class, and a full buffer
// pushes out the newest packet of the lowest non-empty class below the
// arrival's.
func TestClassSegStrictPriorityAndLowestClassPushout(t *testing.T) {
	r := newClassRig(t, "classseg?classes=3", 2000, []int{0, 1, 2})
	r.mustArrive(1, 500) // 0
	r.mustArrive(0, 500) // 1
	r.mustArrive(1, 500) // 2
	r.mustArrive(0, 500) // 3: buffer full
	r.mustArrive(2, 500) // 4 pushes out 3
	r.mustArrive(2, 500) // 5 pushes out 1; class 0 is now empty
	r.mustArrive(2, 500) // 6 pushes out 2, class 1's newest
	r.expectPushed(3, 1, 2)
	if r.arrive(1, 500) {
		t.Fatal("class-1 arrival admitted with no lower class queued")
	}
	if !r.arrive(2, 500) {
		t.Fatal("class-2 arrival refused while class 1 is queued")
	}
	r.expectPushed(3, 1, 2, 0)
	r.expectServed(4, 5, 6, 8)

	// Service alone: strict priority across classes, FIFO within one.
	r = newClassRig(t, "classseg?classes=3", 4000, []int{0, 1, 2})
	for _, flow := range []int{0, 1, 2, 0, 1, 2} {
		r.mustArrive(flow, 500)
	}
	r.expectPushed()
	r.expectServed(2, 5, 1, 4, 0, 3)
}

// TestLQFServesLongestQueue: lqf admits into per-class byte quotas of
// B/classes and always serves the class queue holding the most bytes,
// the lowest class on a tie.
func TestLQFServesLongestQueue(t *testing.T) {
	r := newClassRig(t, "lqf?classes=3", 3000, []int{0, 1, 2})
	r.mustArrive(0, 400) // 0
	r.mustArrive(1, 300) // 1
	r.mustArrive(1, 300) // 2
	r.mustArrive(2, 500) // 3
	r.mustArrive(1, 400) // 4: class 1 at its 1000-byte quota
	if r.arrive(1, 1) {
		t.Fatal("arrival beyond the class quota admitted")
	}
	// Queued bytes by class: 400, 1000, 500.
	if got := r.serve(); got != 1 {
		t.Fatalf("served %d, want 1 (class 1 holds 1000 B)", got)
	}
	// 400, 700, 500.
	if got := r.serve(); got != 2 {
		t.Fatalf("served %d, want 2 (class 1 holds 700 B)", got)
	}
	// 400, 400, 500.
	if got := r.serve(); got != 3 {
		t.Fatalf("served %d, want 3 (class 2 holds 500 B)", got)
	}
	// 400, 400, 0: a tie goes to the lowest class.
	r.expectServed(0, 4)
	r.expectPushed()
}

// TestSemiGreedyServesFullestAboveHalfElseOldest: semigreedy serves the
// fullest class queue holding more than half its quota; when none does,
// it serves the oldest head-of-line packet, even against a longer
// queue.
func TestSemiGreedyServesFullestAboveHalfElseOldest(t *testing.T) {
	// Quota 1000 B per class, so "above half" means more than 500 B.
	r := newClassRig(t, "semigreedy?classes=3", 3000, []int{0, 1, 2})
	r.mustArrive(0, 300) // 0
	r.mustArrive(1, 200) // 1
	r.mustArrive(1, 200) // 2
	// 300, 400, 0: nobody above half, so the oldest head (0) goes
	// first although class 1 is longer.
	if got := r.serve(); got != 0 {
		t.Fatalf("served %d, want 0 (oldest head of line)", got)
	}
	r.mustArrive(2, 600) // 3
	r.mustArrive(1, 400) // 4
	// 0, 800, 600: both above half; the fuller class 1 wins.
	if got := r.serve(); got != 1 {
		t.Fatalf("served %d, want 1 (class 1 fullest above half)", got)
	}
	// 0, 600, 600: a tie above half goes to the lowest class.
	if got := r.serve(); got != 2 {
		t.Fatalf("served %d, want 2 (tie above half, lowest class)", got)
	}
	// 0, 400, 600: only class 2 is above half.
	if got := r.serve(); got != 3 {
		t.Fatalf("served %d, want 3 (class 2 above half)", got)
	}
	r.expectServed(4)
	r.expectPushed()
}
